package tensor

import "math"

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

// DequantizeInt8 dequantizes src into dst element-wise. len(dst) must be
// at least len(src).
func DequantizeInt8(dst []float64, src []int8, p QuantParams) {
	dst = dst[:len(src)]
	for i, q := range src {
		dst[i] = p.Scale * float64(q)
	}
}

// HasInt8Kernel reports whether the vector int8 dot kernel is available
// on this host. Throughput expectations (int8 beating the float path)
// only hold when it is; correctness never depends on it.
func HasInt8Kernel() bool { return hasAVX2FMA }

// dotInt8Generic is the portable scalar reduction: exact int32
// accumulation of int8 products (|a·b| ≤ 127² = 16129 per term, so
// int32 holds any realistic k without overflow).
func dotInt8Generic(a, b []int8) int32 {
	var acc int32
	b = b[:len(a)]
	for i, v := range a {
		acc += int32(v) * int32(b[i])
	}
	return acc
}

// GemmInt8TransB computes C = A·Bᵀ over int8 operands with int32
// accumulation: a is m×k, b is n×k, both row-major with the reduction
// axis contiguous — the same operand shape GemmTransB wants, so the
// quantized Dense (x·Wᵀ) and Conv (W·im2rowᵀ) forwards need no packing.
// Rows of A fan out over the worker pool like the float kernels; the
// integer accumulation order is exact, so the split cannot perturb
// results.
func GemmInt8TransB(c []int32, a, b []int8, m, k, n int) {
	parallelRows(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			ar := a[i*k : (i+1)*k]
			cr := c[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				cr[j] = dotInt8(ar, b[j*k:(j+1)*k])
			}
		}
	})
}

// Im2RowInt8 lowers one int8 image (C×H×W flat slice) into the
// transpose of Im2Col's layout: a (OutH*OutW)×(C*KH*KW) row matrix, row
// r holding output pixel r's receptive field in weight order, the
// operand GemmInt8TransB wants. Padding contributes 0, which is exact
// under symmetric quantization.
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
