package tensor

import "math"

// The reference below is the test oracle for the float GEMM kernels. It
// computes one output at a time, in plain Go, with exactly the rounding
// the kernels promise (see the comment at the top of matmul.go): phase
// accumulators in math.FMA where the vector kernels fuse, unfused scalar
// chains everywhere else, and the zero-skips that decide which terms an
// Inf or NaN can reach. It is deliberately slow and shape-agnostic, so
// the kernels' blocking, vector widths and worker partitions cannot leak
// into it.

// refOperands addresses the two GEMM operands: A(i,p) = a[i*ars+p*aks]
// and B(p,j) = b[p*bks+j*bjs], so one reference covers Gemm, GemmTransA
// and GemmTransB.
type refOperands struct {
	a        []float64
	ars, aks int
	b        []float64
	bks, bjs int
	m, k, n  int
}

func (o refOperands) A(i, p int) float64 { return o.a[i*o.ars+p*o.aks] }
func (o refOperands) B(p, j int) float64 { return o.b[p*o.bks+j*o.bjs] }

// chain returns s + Σ A(i,p)·B(p,j) over ascending p in [p0, p1), each
// term rounded before it is added; terms for which skip reports true are
// left out.
func (o refOperands) chain(s float64, i, j, p0, p1 int, skip func(p int) bool) float64 {
	for p := p0; p < p1; p++ {
		if skip != nil && skip(p) {
			continue
		}
		s += float64(o.A(i, p) * o.B(p, j))
	}
	return s
}

// skipGroup reports the terms the 4-row tile drops: those where all four
// A rows of i's aligned row group are zero.
func (o refOperands) skipGroup(i int) func(p int) bool {
	g := i &^ 3
	return func(p int) bool {
		return o.A(g, p) == 0 && o.A(g+1, p) == 0 && o.A(g+2, p) == 0 && o.A(g+3, p) == 0
	}
}

// skipZero reports the terms the single-row paths drop: A(i,p) == 0.
func (o refOperands) skipZero(i int) func(p int) bool {
	return func(p int) bool { return o.A(i, p) == 0 }
}

// tile is one tile output over [p0, p1). With fma and at least eight
// terms, phase q FMA-accumulates the terms p0+q, p0+q+4, ...; the phases
// are finished as ((P0+P2)+(P1+P3))+0 and the k%4 tail is added as an
// unfused chain. Otherwise the whole range is one unfused chain.
func (o refOperands) tile(i, j, p0, p1 int, fma bool) float64 {
	skip := o.skipGroup(i)
	acc := 0.0
	if !fma || p1-p0 < 8 {
		return acc + o.chain(0, i, j, p0, p1, skip)
	}
	k4 := p0 + (p1-p0)&^3
	var ph [4]float64
	for p := p0; p < k4; p++ {
		q := (p - p0) & 3
		ph[q] = math.FMA(o.A(i, p), o.B(p, j), ph[q])
	}
	v := ((ph[0] + ph[2]) + (ph[1] + ph[3])) + acc
	if k4 < p1 {
		v += o.chain(0, i, j, k4, p1, skip)
	}
	return v
}

// refWholeK is the reference for GemmTransB (and the k-major entry with
// its rounding): every output reduces the whole k extent at once. Rows
// below m&^3 and columns below n&^1 are tile outputs; the rest are
// single unfused chains.
func refWholeK(c []float64, o refOperands, accumulate, fma bool) {
	m4, n2 := o.m&^3, o.n&^1
	for i := 0; i < o.m; i++ {
		for j := 0; j < o.n; j++ {
			var v float64
			if i < m4 && j < n2 {
				v = o.tile(i, j, 0, o.k, fma)
			} else {
				v = o.chain(0, i, j, 0, o.k, nil)
			}
			if accumulate {
				c[i*o.n+j] += v
			} else {
				c[i*o.n+j] = v
			}
		}
	}
}

// refPaneled is the reference for Gemm and GemmTransA. Fewer than four
// rows or fewer than 16 terms: one chain per output that starts from C
// (or 0) and skips zero A values. Otherwise each output adds one value
// per kc-row panel of the reduction, in order; within an nc-column
// panel, tile outputs are rows below m&^3 and panel columns below the
// panel width rounded down to even, the remainder rows chain with the
// zero skip over their 4-column groups, and what is left chains plainly.
func refPaneled(c []float64, o refOperands, accumulate, fma bool) {
	m4 := o.m &^ 3
	for i := 0; i < o.m; i++ {
		for j := 0; j < o.n; j++ {
			s := 0.0
			if accumulate {
				s = c[i*o.n+j]
			}
			if o.m < 4 || o.k < 16 {
				c[i*o.n+j] = o.chain(s, i, j, 0, o.k, o.skipZero(i))
				continue
			}
			jc := j - j%gemmBlockN
			ncols := min(gemmBlockN, o.n-jc)
			jj := j - jc
			for pc := 0; pc < o.k; pc += gemmBlockK {
				pend := min(pc+gemmBlockK, o.k)
				var v float64
				switch {
				case i < m4 && jj < ncols&^1:
					v = o.tile(i, j, pc, pend, fma)
				case i >= m4 && jj < ncols&^3:
					v = o.chain(0, i, j, pc, pend, o.skipZero(i))
				default:
					v = o.chain(0, i, j, pc, pend, nil)
				}
				s += v
			}
			c[i*o.n+j] = s
		}
	}
}

// refGemm, refGemmTransA and refGemmTransB mirror the exported kernels'
// operand layouts.
func refGemm(c, a, b []float64, m, k, n int, accumulate, fma bool) {
	refPaneled(c, refOperands{a: a, ars: k, aks: 1, b: b, bks: n, bjs: 1, m: m, k: k, n: n}, accumulate, fma)
}

func refGemmTransA(c, a, b []float64, m, k, n int, fma bool) {
	refPaneled(c, refOperands{a: a, ars: 1, aks: m, b: b, bks: n, bjs: 1, m: m, k: k, n: n}, false, fma)
}

func refGemmTransB(c, a, b []float64, m, k, n int, accumulate, fma bool) {
	refWholeK(c, refOperands{a: a, ars: k, aks: 1, b: b, bks: 1, bjs: k, m: m, k: k, n: n}, accumulate, fma)
}
