package tensor

import (
	"fmt"
	"runtime"
)

// The float GEMM kernels.
//
// Every float GEMM runs one driver over a register-blocked outer-product
// micro-kernel (gemm_tile*.go): it broadcasts A one element at a time
// against vectors along a row of a k-major B. Dispatch picks, once per
// process by CPUID/XGETBV, the AVX-512F kernel (4 rows × 8 columns), the
// AVX2+FMA kernel (3 rows × 4 columns) or, on other architectures and
// under the noasm build tag, the portable Go kernel. Each output C(i,j)
// is a fixed function of (i, j, m, k, n) and of whether the kernel is an
// FMA one, never of the worker count, and gets one of three roundings
// depending on where it sits:
//
//   - Tile outputs — rows below m&^3 and columns below the panel width
//     rounded down to even. With an FMA kernel and at least 8 terms they
//     keep four phase accumulators: phase q FMA-accumulates the terms
//     p ≡ q (mod 4) in ascending order, the phases finish as
//     ((P0+P2)+(P1+P3)), and the k%4 tail is added as an unfused chain
//     (so a -0 phase sum becomes +0). Shorter reductions, and every tile
//     output on the portable kernel, are one unfused chain. Both drop the
//     terms whose aligned 4-row group of A is all zero.
//   - The last column of an odd-width panel and the m%4 remainder rows:
//     one unfused chain from +0.
//   - Gemm with fewer than 4 rows or fewer than 16 terms: one unfused
//     chain per output that starts from C (or +0) and skips zero A
//     values (the axpy path).
//
// Gemm, GemmEpilogue and GemmTransA reduce k in kc=128 panels over
// nc=512 column panels and add each panel's value to C in order;
// GemmTransB and GemmWholeK reduce the whole k at once. The AVX-512 and
// AVX2 kernels round identically. The rules are inherited: they
// reproduce bit for bit the 4×2 dot-product tile whose four SIMD lanes
// were the phases, so trained results stay comparable across releases
// (core's TestTrainingNumericsGolden pins them). gemm_ref_test.go
// restates them as a scalar reference.

// gemmParallelThreshold is the minimum number of result rows before a
// GEMM fans work out to the worker pool; below it the dispatch overhead
// dominates.
const gemmParallelThreshold = 16

// Panel sizes of Gemm's reduction (see above). They fix the rounding;
// the micro-kernel's strip packing and k blocks do not show in results.
const (
	gemmBlockK = 128 // kc: terms per reduction panel
	gemmBlockN = 512 // nc: columns per panel
)

// gemmPackElems bounds the transposed B panel GemmTransB builds for the
// portable kernel (256 KiB, so it stays in L2).
const gemmPackElems = 1 << 15

// MatMul computes C = A·B for 2-D tensors A (m×k) and B (k×n), writing the
// m×n result into dst (which must be pre-shaped m×n). Work is spread over
// the persistent worker pool in row blocks.
func MatMul(dst, a, b *Tensor) error {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		return fmt.Errorf("%w: matmul needs 2-D operands, got %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	Gemm(dst.data, a.data, b.data, m, k, n, false)
	return nil
}

// MatMulAdd computes C += A·B, accumulating into dst instead of
// overwriting it.
func MatMulAdd(dst, a, b *Tensor) error {
	if len(a.shape) != 2 || len(b.shape) != 2 || len(dst.shape) != 2 {
		return fmt.Errorf("%w: matmuladd needs 2-D operands", ErrShape)
	}
	m, k := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmuladd %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	Gemm(dst.data, a.data, b.data, m, k, n, true)
	return nil
}

// MatMulTransA computes C = Aᵀ·B where A is k×m, B is k×n and dst is m×n.
func MatMulTransA(dst, a, b *Tensor) error {
	k, m := a.shape[0], a.shape[1]
	k2, n := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul Aᵀ %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	GemmTransA(dst.data, a.data, b.data, m, k, n)
	return nil
}

// MatMulTransB computes C = A·Bᵀ where A is m×k, B is n×k and dst is m×n.
func MatMulTransB(dst, a, b *Tensor) error {
	m, k := a.shape[0], a.shape[1]
	n, k2 := b.shape[0], b.shape[1]
	if k != k2 || dst.shape[0] != m || dst.shape[1] != n {
		return fmt.Errorf("%w: matmul Bᵀ %v·%v->%v", ErrShape, a.shape, b.shape, dst.shape)
	}
	GemmTransB(dst.data, a.data, b.data, m, k, n, false, nil)
	return nil
}

// Gemm computes C (+)= A·B over row-major flat slices: A is m×k, B is
// k×n, C is m×n. Exposing the slice form lets hot loops (per-sample
// convolution lowering) call the kernel without wrapping slices in
// Tensor headers.
func Gemm(c, a, b []float64, m, k, n int, accumulate bool) {
	GemmEpilogue(c, a, b, m, k, n, accumulate, nil)
}

// GemmEpilogue is Gemm with a per-row-block epilogue hook: after the
// kernel finishes a block of destination rows [lo, hi) it calls
// epi(lo, hi) on the worker that produced them, while they are still
// cache-hot, so fused ops (bias add, ReLU) avoid a second full pass over
// the output. epi may be nil. It is invoked exactly once per row,
// possibly concurrently on disjoint ranges.
func GemmEpilogue(c, a, b []float64, m, k, n int, accumulate bool, epi func(lo, hi int)) {
	checkGemm(c, a, b, m*n, m*k, k*n)
	g := gemmArgs{c: c, n: n, a: a, ars: k, aks: 1, m: m, k: k}
	gemmRows(m, func(lo, hi int) {
		g.paneled(lo, hi, b, accumulate)
		if epi != nil {
			epi(lo, hi)
		}
	})
}

// GemmTransA computes C = Aᵀ·B over flat slices where A is k×m, B is k×n
// and C is m×n: dst[i][j] = Σ_p a[p][i]·b[p][j]. The micro-kernel
// broadcasts A one element at a time, so it reads the stored Aᵀ in place
// with Gemm's rounding.
func GemmTransA(c, a, b []float64, m, k, n int) {
	checkGemm(c, a, b, m*n, k*m, k*n)
	g := gemmArgs{c: c, n: n, a: a, ars: 1, aks: m, m: m, k: k}
	gemmRows(m, func(lo, hi int) { g.paneled(lo, hi, b, false) })
}

// GemmWholeK computes C (+)= A·B like Gemm (A m×k, B k×n, both
// row-major) but with GemmTransB's rounding: each output reduces the
// whole k extent at once instead of in kc panels, so GemmWholeK(c, a, b)
// equals GemmTransB(c, a, bᵀ) bit for bit while reading B in place. epi
// runs per completed row block, as in GemmEpilogue.
func GemmWholeK(c, a, b []float64, m, k, n int, accumulate bool, epi func(lo, hi int)) {
	checkGemm(c, a, b, m*n, m*k, k*n)
	g := gemmArgs{c: c, n: n, a: a, ars: k, aks: 1, m: m, k: k}
	gemmRows(m, func(lo, hi int) {
		g.block(lo, hi, 0, n, 0, k, b, n, accumulate, false)
		if epi != nil {
			epi(lo, hi)
		}
	})
}

// GemmTransB computes C (+)= A·Bᵀ over flat slices where A is m×k, B is
// n×k and C is m×n, reducing the whole k extent per output. The tile
// rows transpose each column strip of B into the micro-kernel's packed
// buffer; the m%4 remainder rows and the last column of an odd n are dot
// products along B's contiguous rows, so a batch-1 call reads B once and
// packs nothing. epi, when non-nil, runs per completed row block while C
// is cache-hot.
func GemmTransB(c, a, b []float64, m, k, n int, accumulate bool, epi func(lo, hi int)) {
	checkGemm(c, a, b, m*n, m*k, n*k)
	g := gemmArgs{c: c, n: n, a: a, ars: k, aks: 1, m: m, k: k}
	m4, n2 := m&^3, n&^1
	gemmRows(m, func(lo, hi int) {
		if t1 := min(hi, m4); lo < t1 && n2 > 0 {
			if gemmKern != kernelPortable && k >= 8 {
				g.tile(lo, t1, 0, n2, 0, k, b, k, accumulate, true)
			} else {
				// The chains read B k-major: transpose it a panel at a time.
				w := min(n2, max(1, gemmPackElems/max(k, 1)))
				panel := GetUninit(max(k, 1), w)
				pk := panel.Data()
				for jc := 0; jc < n2; jc += w {
					wc := min(w, n2-jc)
					packTransposed(pk[:k*wc], b[jc*k:(jc+wc)*k], k, wc)
					g.tile(lo, t1, jc, jc+wc, 0, k, pk, wc, accumulate, false)
				}
				Put(panel)
			}
		}
		if t1 := min(hi, m4); lo < t1 && n2 < n {
			dotColumn(c, a, b[n2*k:], lo, t1, k, n, n2, accumulate)
		}
		for i := max(lo, m4); i < hi; i++ {
			dotRow(c[i*n:i*n+n], a[i*k:i*k+k], b, k, accumulate)
		}
		if epi != nil {
			epi(lo, hi)
		}
	})
}

// checkGemm panics unless the flat operands hold their shapes: the
// assembly kernels do not bounds-check, so a short slice must fail here
// (where the executors' recover guards turn it into an error) instead of
// reading or writing past it.
func checkGemm(c, a, b []float64, cn, an, bn int) {
	if len(c) < cn || len(a) < an || len(b) < bn {
		panic(fmt.Sprintf("tensor: GEMM operands too short: len(c)=%d<%d, len(a)=%d<%d or len(b)=%d<%d",
			len(c), cn, len(a), an, len(b), bn))
	}
}

// gemmRows is parallelRows for the GEMM drivers, with chunks cut at
// multiples of 4 rows so every 4-row tile group is computed whole by one
// micro-kernel call. The driver's arithmetic already depends only on
// each output's position; the alignment keeps the tile kernels' row
// blocks inside those groups.
func gemmRows(m int, body func(lo, hi int)) {
	workers := runtime.GOMAXPROCS(0)
	if m < gemmParallelThreshold || workers <= 1 {
		body(0, m)
		return
	}
	parallelChunks((m+3)/4, workers, func(_, lo, hi int) { body(4*lo, min(4*hi, m)) })
}

// paneled runs Gemm's rounding for rows [lo, hi): the axpy path for
// small shapes, otherwise kc-term panels over nc-column panels, each
// panel's value added to C in order (the first one stored when not
// accumulating: +0 + v = v, as v is never -0).
func (g *gemmArgs) paneled(lo, hi int, b []float64, accumulate bool) {
	if g.m < 4 || g.k < 16 {
		g.axpy(lo, hi, b, accumulate)
		return
	}
	for jc := 0; jc < g.n; jc += gemmBlockN {
		jend := min(jc+gemmBlockN, g.n)
		for pc := 0; pc < g.k; pc += gemmBlockK {
			pend := min(pc+gemmBlockK, g.k)
			g.block(lo, hi, jc, jend, pc, pend, b[pc*g.n+jc:], g.n, accumulate || pc > 0, true)
		}
	}
}

// block computes rows [lo, hi) (lo a multiple of 4) of the column panel
// [j0, j1) over terms [p0, p1), b starting at B(p0, j0): the tile
// outputs, the odd panel's last column, and the remainder rows. Gemm's
// remainder rows (paneled) skip zero A values over the panel's 4-column
// groups; like every zero skip, that decides where an Inf in B turns an
// output into NaN, so it is part of the rounding contract.
func (g *gemmArgs) block(lo, hi, j0, j1, p0, p1 int, b []float64, ldb int, add, paneled bool) {
	m4, w := g.m&^3, j1-j0
	if t1 := min(hi, m4); lo < t1 {
		if w2 := w &^ 1; w2 > 0 {
			g.tile(lo, t1, j0, j0+w2, p0, p1, b, ldb, add, false)
		}
		if w&1 != 0 {
			g.chains(lo, t1, j1-1, j1, p0, p1, b[w-1:], ldb, skipNone, add)
		}
	}
	if r0 := max(lo, m4); r0 < hi {
		w4 := 0
		if paneled {
			w4 = w &^ 3
			g.chains(r0, hi, j0, j0+w4, p0, p1, b, ldb, skipZero, add)
		}
		g.chains(r0, hi, j0+w4, j1, p0, p1, b[w4:], ldb, skipNone, add)
	}
}

// packTransposed writes the n×k row-major src into dst as k×n.
func packTransposed(dst, src []float64, k, n int) {
	j := 0
	for ; j+4 <= n; j += 4 {
		r0, r1, r2, r3 := src[j*k:j*k+k], src[(j+1)*k:(j+1)*k+k], src[(j+2)*k:(j+2)*k+k], src[(j+3)*k:(j+3)*k+k]
		for p, v := range r0 {
			d := dst[p*n+j : p*n+j+4]
			d[0], d[1], d[2], d[3] = v, r1[p], r2[p], r3[p]
		}
	}
	for ; j < n; j++ {
		for p, v := range src[j*k : j*k+k] {
			dst[p*n+j] = v
		}
	}
}

// dotColumn computes GemmTransB's last column j of tile rows [r0, r1)
// (4-aligned) as unfused chains, four rows at a time; brow is B's row j.
func dotColumn(c, a, brow []float64, r0, r1, k, n, j int, accumulate bool) {
	brow = brow[:k]
	for i := r0; i < r1; i += 4 {
		a0, a1, a2, a3 := a[i*k:i*k+k], a[(i+1)*k:(i+1)*k+k], a[(i+2)*k:(i+2)*k+k], a[(i+3)*k:(i+3)*k+k]
		var s0, s1, s2, s3 float64
		for p, bv := range brow {
			s0 += float64(a0[p] * bv)
			s1 += float64(a1[p] * bv)
			s2 += float64(a2[p] * bv)
			s3 += float64(a3[p] * bv)
		}
		for r, s := range [4]float64{s0, s1, s2, s3} {
			if accumulate {
				c[(i+r)*n+j] += s
			} else {
				c[(i+r)*n+j] = s
			}
		}
	}
}

// dotRow computes one GemmTransB remainder row: every output an unfused
// chain along A's row and B's row, four columns at a time.
func dotRow(crow, arow, b []float64, k int, accumulate bool) {
	n := len(crow)
	j := 0
	for ; j+4 <= n; j += 4 {
		b0, b1, b2, b3 := b[j*k:j*k+k], b[(j+1)*k:(j+1)*k+k], b[(j+2)*k:(j+2)*k+k], b[(j+3)*k:(j+3)*k+k]
		var s0, s1, s2, s3 float64
		for p, av := range arow {
			s0 += float64(av * b0[p])
			s1 += float64(av * b1[p])
			s2 += float64(av * b2[p])
			s3 += float64(av * b3[p])
		}
		store4(crow[j:j+4], s0, s1, s2, s3, accumulate)
	}
	for ; j < n; j++ {
		brow := b[j*k : j*k+k]
		s := 0.0
		for p, av := range arow {
			s += float64(av * brow[p])
		}
		if accumulate {
			crow[j] += s
		} else {
			crow[j] = s
		}
	}
}

func store4(c []float64, s0, s1, s2, s3 float64, add bool) {
	if add {
		c[0] += s0
		c[1] += s1
		c[2] += s2
		c[3] += s3
		return
	}
	c[0], c[1], c[2], c[3] = s0, s1, s2, s3
}
