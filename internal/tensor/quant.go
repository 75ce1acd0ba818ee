package tensor

import (
	"fmt"
	"math"
)

// Per-tensor symmetric int8 quantization.
//
// The inference path stores weights (once, at model freeze) and
// activations (per layer call) as int8 with a single float64 scale per
// tensor: real ≈ Scale * q. Symmetric quantization (zero-point 0) keeps
// the arithmetic pure-integer — the int8 GEMM accumulates exact int32
// products and one multiply by scaleA*scaleB recovers the real-valued
// result — and makes padding exact: a zero pixel quantizes to 0 under
// every scale, so Im2RowInt8 needs no zero-point plumbing.

// QuantMaxInt8 is the symmetric clamp bound. The range is ±127, not
// -128..127: excluding -128 keeps negation closed over the domain and
// the scale derivation symmetric around zero.
const QuantMaxInt8 = 127

// QuantParams describes one per-tensor symmetric quantization:
// q = clamp(round(x/Scale)), x ≈ Scale*q.
type QuantParams struct {
	Scale float64
}

// ChooseQuantParams derives the symmetric scale that maps the largest
// finite |x| in data onto ±QuantMaxInt8. All-zero (or empty) data gets
// scale 1 so dequantization stays well-defined.
func ChooseQuantParams(data []float64) QuantParams {
	maxAbs := 0.0
	for _, v := range data {
		if a := math.Abs(v); a > maxAbs && !math.IsInf(a, 0) {
			maxAbs = a
		}
	}
	if maxAbs == 0 {
		return QuantParams{Scale: 1}
	}
	return QuantParams{Scale: maxAbs / QuantMaxInt8}
}

// Quantize maps one value: round half away from zero, clamp to
// ±QuantMaxInt8. NaN quantizes to 0.
func (p QuantParams) Quantize(v float64) int8 {
	q := math.Round(v / p.Scale)
	switch {
	case q != q:
		return 0
	case q > QuantMaxInt8:
		return QuantMaxInt8
	case q < -QuantMaxInt8:
		return -QuantMaxInt8
	}
	return int8(q)
}

// QuantizeInt8 quantizes src into dst element-wise. len(dst) must be at
// least len(src).
func QuantizeInt8(dst []int8, src []float64, p QuantParams) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] = p.Quantize(v)
	}
}

// int8Kernel names an int8 GEMM tile kernel.
type int8Kernel int

const (
	int8Portable int8Kernel = iota // Go 1×4 tile
	int8AVX2                       // 2×4 AVX2 VPMADDWD tile, quant_int8_amd64.s
	int8VNNI                       // 4×4 AVX-512 VNNI VPDPBUSD tile, quant_int8_amd64.s
)

func (k int8Kernel) String() string {
	return [...]string{"portable", "avx2", "vnni"}[k]
}

// rows is the kernel's tile height: one call covers at most this many
// rows of A.
func (k int8Kernel) rows() int {
	return [...]int{1, 2, 4}[k]
}

// int8Kern is the tile kernel GemmInt8TransB dispatches to: the widest
// one the host runs. Tests reassign it to run each kernel on one host.
var int8Kern = bestInt8Kernel()

// HasInt8Kernel reports whether a vector int8 kernel (AVX-512 VNNI or
// AVX2) runs GemmInt8TransB on this host. Throughput expectations (int8
// beating the float path) only hold when one does; results never depend
// on it.
func HasInt8Kernel() bool { return int8Kern != int8Portable }

// GemmInt8TransB computes C = A·Bᵀ over int8 operands with int32
// accumulation: a is m×k, b is n×k, both row-major with the reduction
// axis contiguous — the same operand shape GemmTransB wants, so the
// quantized Dense (x·Wᵀ) and Conv (W·im2rowᵀ) forwards read both
// operands in place. One driver runs a register-blocked tile kernel
// over row blocks of the kernel's tile height: AVX-512 VNNI (4×4
// outputs per tile) where the host has it, AVX2 (2×4) on other amd64
// hosts, the portable Go tile (1×4) elsewhere and under the noasm build
// tag. Each tile loads a chunk of its A and B rows once for all the
// outputs that use it. Every output is the int32 sum of its k products,
// wrapping modulo 2³² like a scalar int32 loop, so it is the same on
// every kernel, for every k tail and every split of the rows over
// workers. Rows fan out over the worker pool in blocks cut at multiples
// of 4, so no tile straddles two workers; with more than one row block,
// columns run in panels of B that stay in L2 while every block uses
// them.
func GemmInt8TransB(c []int32, a, b []int8, m, k, n int) {
	if len(c) < m*n || len(a) < m*k || len(b) < n*k {
		panic(fmt.Sprintf("tensor: int8 GEMM operands too short: len(c)=%d<%d, len(a)=%d<%d or len(b)=%d<%d",
			len(c), m*n, len(a), m*k, len(b), n*k))
	}
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 {
		clear(c[:m*n])
		return
	}
	kern := int8Kern
	if kern == int8AVX2 && k < 16 { // the AVX2 tail window needs 16 bytes of each row
		kern = int8Portable
	}
	mr := kern.rows()
	nc := n // columns per panel
	if m > mr {
		nc = min(n, max(4, int8PanelBytes/k&^3))
	}
	gemmRows(m, func(lo, hi int) {
		for j := 0; j < n; j += nc {
			cols := min(nc, n-j)
			for r := lo; r < hi; r += mr {
				if kern == int8Portable {
					tileInt8Go(c[r*n+j:], a[r*k:], b[j*k:], k, cols)
				} else {
					tileInt8Asm(kern, c[r*n+j:], a[r*k:], b[j*k:], n, k, min(mr, hi-r), cols)
				}
			}
		}
	})
}

// int8PanelBytes bounds the rows of B one column panel of
// GemmInt8TransB covers.
const int8PanelBytes = 128 << 10

// tileInt8Go is the portable tile kernel: C(j) = Σ_p A(p)·B(j,p) for
// j < n over one row of A, four columns at a time, with B(j,p) =
// b[j*k+p]. Columns past n in the last tile repeat column n-1; their
// outputs are not stored.
func tileInt8Go(c []int32, a, b []int8, k, n int) {
	a = a[:k]
	last := (n - 1) * k
	for j := 0; j < n; j += 4 {
		b0 := b[j*k:][:len(a)]
		b1 := b[min((j+1)*k, last):][:len(a)]
		b2 := b[min((j+2)*k, last):][:len(a)]
		b3 := b[min((j+3)*k, last):][:len(a)]
		var s0, s1, s2, s3 int32
		for p, v := range a {
			x := int32(v)
			s0 += x * int32(b0[p])
			s1 += x * int32(b1[p])
			s2 += x * int32(b2[p])
			s3 += x * int32(b3[p])
		}
		c[j] = s0
		if j+1 < n {
			c[j+1] = s1
		}
		if j+2 < n {
			c[j+2] = s2
		}
		if j+3 < n {
			c[j+3] = s3
		}
	}
}

// Im2RowInt8 lowers one int8 image (C×H×W flat slice) into the
// transpose of Im2Col's layout: a (OutH*OutW)×(C*KH*KW) row matrix, row
// r holding output pixel r's receptive field in weight order. That is
// GemmInt8TransB's B operand as written, k = C*KH*KW of any length, so
// the quantized conv multiplies the [OutC, C*KH*KW] weights by it with
// no packing or padding. Padding contributes 0, which is exact under
// symmetric quantization.
func Im2RowInt8(row, img []int8, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	kVol := g.InC * g.KH * g.KW
	// Output columns [oxLo, oxHi) read a whole kernel row inside the
	// image; the loops run along an output row for one (c, kh), so each
	// kernel row is a short copy between two stepping offsets.
	oxLo, oxHi := min((g.PadW+g.StrideW-1)/g.StrideW, outW), 0
	if last := g.InW + g.PadW - g.KW; last >= 0 { // else no kernel row fits
		oxHi = min(last/g.StrideW+1, outW)
	}
	oxHi = max(oxHi, oxLo)
	for oy := 0; oy < outH; oy++ {
		block := row[oy*outW*kVol : (oy+1)*outW*kVol]
		for c := 0; c < g.InC; c++ {
			plane := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
			for kh := 0; kh < g.KH; kh++ {
				off := (c*g.KH + kh) * g.KW // this kernel row's place in a row
				iy := oy*g.StrideH - g.PadH + kh
				if iy < 0 || iy >= g.InH {
					for ox := 0; ox < outW; ox++ {
						dst := block[ox*kVol+off : ox*kVol+off+g.KW]
						for kw := range dst {
							dst[kw] = 0
						}
					}
					continue
				}
				src := plane[iy*g.InW : (iy+1)*g.InW]
				for ox := 0; ox < outW; ox++ {
					dst := block[ox*kVol+off : ox*kVol+off+g.KW]
					x0 := ox*g.StrideW - g.PadW
					if ox >= oxLo && ox < oxHi {
						run := src[x0 : x0+len(dst)]
						for kw := range dst {
							dst[kw] = run[kw]
						}
						continue
					}
					for kw := range dst {
						dst[kw] = 0
						if ix := x0 + kw; ix >= 0 && ix < g.InW {
							dst[kw] = src[ix]
						}
					}
				}
			}
		}
	}
}
