package tensor

import "unsafe"

// gemmKernel names a float GEMM micro-kernel.
type gemmKernel int

const (
	kernelPortable gemmKernel = iota // Go scalar chains (no FMA)
	kernelAVX2                       // 3×4 AVX2+FMA tile, gemm_tile_amd64.s
	kernelAVX512                     // 4×8 AVX-512F tile, gemm_tile_amd64.s
)

func (k gemmKernel) String() string {
	return [...]string{"portable", "avx2", "avx512"}[k]
}

// gemmKern is the micro-kernel every float GEMM dispatches to: the
// widest one the host runs. Tests reassign it to run each kernel on one
// host.
var gemmKern = bestGemmKernel()

// GemmKernel names the float GEMM micro-kernel in use: "avx512", "avx2"
// or "portable". The two FMA kernels round identically; the portable
// kernel rounds differently (see matmul.go).
func GemmKernel() string { return gemmKern.String() }

// gemmKeepGroups bounds the 4-row groups one tile-kernel call covers, so
// the per-group tail masks live in a fixed stack array.
const gemmKeepGroups = 256

// gemmKBlock is the number of phase terms the tile kernel reduces per
// call on a packed strip: 256 rows of 8 columns is 16 KiB, L1-resident
// beside the A rows and the parked phases of a 64-row block.
const gemmKBlock = 256

// Zero-skip rules of the unfused chains. A skipped term is never
// computed, so an Inf or NaN in B that meets a zero in A cannot reach
// the output through it.
const (
	skipNone  = iota
	skipZero  // drop A(i,p) == 0: the single-row paths
	skipGroup // drop p where A's aligned 4-row group is all zero: the tile
)

// gemmArgs holds the operands of one GEMM: C is row-major m×n and
// A(i,p) = a[i*ars+p*aks], so A is read in place whether it is stored
// m×k (ars=k, aks=1) or k×m (ars=1, aks=m). B is passed per call as a
// slice starting at B(p0, j0) with row stride ldb, the caller's column
// panel of a k-major matrix.
type gemmArgs struct {
	c        []float64
	n        int
	a        []float64
	ars, aks int
	m, k     int
}

// tile computes the tile outputs C(i,j) for rows [r0, r1) — below m&^3,
// r0 a multiple of 4 — and columns [j0, j1), reducing terms [p0, p1);
// b starts at B(p0, j0). add selects C += v over C = v.
//
// With an FMA kernel and at least 8 terms, v is the four-phase sum of
// the assembly contract: phase q FMA-accumulates the terms p0+q, p0+q+4,
// ... below p0 + (p1-p0)&^3, v = ((P0+P2)+(P1+P3)) + s, and s chains the
// k%4 tail unfused, dropping terms whose 4-row A group is all zero.
// Otherwise v is one unfused chain over all terms with the same drops.
//
// When more than one row block shares a column strip, the strip is first
// copied into an aligned contiguous buffer: B read in place has a row
// stride of n, so its vector loads split cache lines and, for n a
// multiple of 512, contend for one L1 set. A packed strip is processed
// gemmKBlock terms at a time, so it stays in L1 while every row block
// uses it; the phase accumulators wait in a buffer between blocks. With
// bT, b holds B stored n-major (B(p,j) = b[(j-j0)*ldb+p-p0], GemmTransB's
// operand), and every strip is packed by transposing it.
func (g *gemmArgs) tile(r0, r1, j0, j1, p0, p1 int, b []float64, ldb int, add, bT bool) {
	kern, kk := gemmKern, p1-p0
	if kern == kernelPortable || kk < 8 {
		g.chains(r0, r1, j0, j1, p0, p1, b, ldb, skipGroup, add)
		return
	}
	k4, tail := kk&^3, kk&3
	addFlag := 0
	if add {
		addFlag = 1
	}
	nr := 8 // strip width: one ZMM or, for AVX2, one YMM
	if kern == kernelAVX2 {
		nr = 4
	}
	rows := min(r1-r0, 4*gemmKeepGroups)
	var pk, ph []float64
	if bT || r1-r0 > 4 {
		kb := min(kk, gemmKBlock+3)
		buf := GetUninit(kb*nr + 8)
		defer Put(buf)
		pk = aligned64(buf.Data())
		if k4 > gemmKBlock {
			// Four phases per output. An AVX2 block of 3 rows parks 48
			// values at 16 per row, so the last block can end 32 values
			// past rows*16.
			phases := GetUninit(rows*4*nr + 32 + 8)
			defer Put(phases)
			ph = aligned64(phases.Data())
		}
	}
	var keep [gemmKeepGroups + 1]uint8 // +1: the AVX2 kernel may read one group past its rows
	for s := r0; s < r1; s += rows {
		e := min(r1, s+rows)
		for grp := s; tail > 0 && grp < e; grp += 4 {
			bits := uint8(0)
			for t := 0; t < tail; t++ {
				p := p0 + k4 + t
				a := g.a[grp*g.ars+p*g.aks:]
				if a[0] != 0 || a[g.ars] != 0 || a[2*g.ars] != 0 || a[3*g.ars] != 0 {
					bits |= 1 << t
				}
			}
			keep[(grp-s)/4] = bits
		}
		if pk == nil {
			tileFMA(kern, &g.a[s*g.ars+p0*g.aks], &b[0], &g.c[s*g.n+j0], &keep[0],
				g.ars, g.aks, ldb, g.n, e-s, j1-j0, k4, tail, addFlag, nil, 0)
			continue
		}
		for j := j0; j < j1; j += nr {
			w := min(nr, j1-j)
			// Each k block covers up to gemmKBlock phase terms; the last
			// one also takes the tail and finishes the outputs.
			for q := 0; q < k4; q += gemmKBlock {
				qe := min(q+gemmKBlock, k4)
				np, tl, mode := qe-q, 0, 0
				if q > 0 {
					mode |= 1 // resume the parked phases
				}
				if qe < k4 {
					mode |= 2 // park them for the next block
				} else {
					tl = tail
				}
				if bT {
					packStripT(kern, &pk[0], &b[(j-j0)*ldb+q], ldb, np+tl, w)
				} else {
					packStrip(kern, &pk[0], &b[q*ldb+j-j0], ldb, np+tl, w)
				}
				var php *float64
				if ph != nil {
					php = &ph[0]
				}
				tileFMA(kern, &g.a[s*g.ars+(p0+q)*g.aks], &pk[0], &g.c[s*g.n+j], &keep[0],
					g.ars, g.aks, nr, g.n, e-s, w, np, tl, addFlag, php, mode)
			}
		}
	}
}

// aligned64 returns the tail of d that starts on a 64-byte boundary; d
// must hold 7 spare elements.
func aligned64(d []float64) []float64 {
	mis := int(uintptr(unsafe.Pointer(&d[0]))&63) / 8
	return d[(8-mis)&7:]
}

// chains computes C(i,j) for rows [r0, r1) and columns [j0, j1) as
// unfused chains v = Σ A(i,p)·B(p,j) over ascending p in [p0, p1),
// starting from +0 and dropping terms by the skip rule; b starts at
// B(p0, j0). add selects C += v over C = v. Each product is rounded
// before it is added (the float64 conversion forbids fusing), so the
// chains round the same on every architecture.
//
// The chains walk B along its rows: each output still adds its terms in
// ascending p, but the sums of a whole row of C advance together, so B
// is read contiguously instead of down a column at a stride of n.
func (g *gemmArgs) chains(r0, r1, j0, j1, p0, p1 int, b []float64, ldb, skip int, add bool) {
	kk, w := p1-p0, j1-j0
	if w == 0 || r0 >= r1 {
		return
	}
	ars, aks := g.ars, g.aks
	if w == 1 && skip == skipNone {
		// One column (an odd panel's last): gather it once, then run the
		// rows four at a time so four independent chains hide the add
		// latency.
		colBuf := GetUninit(max(kk, 1))
		bc := colBuf.Data()[:kk]
		for t := range bc {
			bc[t] = b[t*ldb]
		}
		i := r0
		for ; i+4 <= r1; i += 4 {
			for r, v := range g.quadChain(i, p0, bc) {
				storeAdd(&g.c[(i+r)*g.n+j0], v, add)
			}
		}
		for ; i < r1; i++ {
			v := 0.0
			for t, bv := range bc {
				v += float64(g.a[i*ars+(p0+t)*aks] * bv)
			}
			storeAdd(&g.c[i*g.n+j0], v, add)
		}
		Put(colBuf)
		return
	}
	sumBuf := GetUninit(w)
	sum := sumBuf.Data()
	for i := r0; i < r1; i++ {
		clear(sum)
		ai, gi := i*ars+p0*aks, (i&^3)*ars+p0*aks // A(i,p0) and its group's first row
		for t := 0; t < kk; t++ {
			av := g.a[ai+t*aks]
			if skip == skipZero && av == 0 || skip == skipGroup && groupZero(g.a[gi+t*aks:], ars) {
				continue
			}
			brow := b[t*ldb : t*ldb+w]
			for j, bv := range brow {
				sum[j] += float64(av * bv)
			}
		}
		crow := g.c[i*g.n+j0 : i*g.n+j1]
		if add {
			for j, v := range sum {
				crow[j] += v
			}
		} else {
			copy(crow, sum)
		}
	}
	Put(sumBuf)
}

func storeAdd(c *float64, v float64, add bool) {
	if add {
		*c += v
	} else {
		*c = v
	}
}

// quadChain returns the four unfused chains of rows i..i+3 against one
// gathered column of B (bc[t] = B(p0+t, j)), with no skips.
func (g *gemmArgs) quadChain(i, p0 int, bc []float64) [4]float64 {
	var s0, s1, s2, s3 float64
	switch ars, aks := g.ars, g.aks; {
	case aks == 1: // A stored m×k: four contiguous rows
		a0 := g.a[i*ars+p0 : i*ars+p0+len(bc)]
		a1 := g.a[(i+1)*ars+p0:][:len(a0)]
		a2 := g.a[(i+2)*ars+p0:][:len(a0)]
		a3 := g.a[(i+3)*ars+p0:][:len(a0)]
		for t, bv := range bc[:len(a0)] {
			s0 += float64(a0[t] * bv)
			s1 += float64(a1[t] * bv)
			s2 += float64(a2[t] * bv)
			s3 += float64(a3[t] * bv)
		}
	case ars == 1: // A stored k×m: the four rows are adjacent per term
		for t, bv := range bc {
			x := g.a[i+(p0+t)*aks:][:4]
			s0 += float64(x[0] * bv)
			s1 += float64(x[1] * bv)
			s2 += float64(x[2] * bv)
			s3 += float64(x[3] * bv)
		}
	default:
		for t, bv := range bc {
			o := i*ars + (p0+t)*aks
			s0 += float64(g.a[o] * bv)
			s1 += float64(g.a[o+ars] * bv)
			s2 += float64(g.a[o+2*ars] * bv)
			s3 += float64(g.a[o+3*ars] * bv)
		}
	}
	return [4]float64{s0, s1, s2, s3}
}

// groupZero reports whether the four A values a[0], a[ars], a[2ars],
// a[3ars] (one column of an aligned 4-row group) are all zero.
func groupZero(a []float64, ars int) bool {
	return a[0] == 0 && a[ars] == 0 && a[2*ars] == 0 && a[3*ars] == 0
}

// axpy is Gemm's path for fewer than four rows or fewer than 16 terms:
// each nonzero A(i,p) scales B row p into C row i, so every output is
// one unfused chain that starts from C (or +0) and skips zero A values.
// b is all of the k-major B.
func (g *gemmArgs) axpy(lo, hi int, b []float64, accumulate bool) {
	for i := lo; i < hi; i++ {
		crow := g.c[i*g.n : i*g.n+g.n]
		if !accumulate {
			clear(crow)
		}
		for p := 0; p < g.k; p++ {
			av := g.a[i*g.ars+p*g.aks]
			if av == 0 {
				continue
			}
			brow := b[p*g.n : p*g.n+g.n]
			for j, bv := range brow {
				crow[j] += float64(av * bv)
			}
		}
	}
}
