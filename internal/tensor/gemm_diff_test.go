package tensor

import (
	"math"
	"runtime"
	"testing"
)

// kernelsOnHost lists the micro-kernels this build and host can run.
func kernelsOnHost() []gemmKernel {
	ks := []gemmKernel{kernelPortable}
	if hasAVX2FMA {
		ks = append(ks, kernelAVX2)
	}
	if hasAVX512 {
		ks = append(ks, kernelAVX512)
	}
	return ks
}

// withKernel runs f with gemmKern forced to k.
func withKernel(k gemmKernel, f func()) {
	prev := gemmKern
	gemmKern = k
	defer func() { gemmKern = prev }()
	f()
}

// diffValues draws n inputs that exercise every rounding path: exact
// zeros (the zero skips), -0, values whose products underflow to ±0
// (so a phase sum can be -0), and normal values.
func diffValues(rng *RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r := rng.Intn(20); {
		case r < 3:
			v[i] = 0
		case r < 4:
			v[i] = math.Copysign(0, -1)
		case r < 5:
			v[i] = (rng.Float64()*2 - 1) * 1e-160
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// zeroTerms zeroes whole reduction columns of A, so some 4-row groups
// drop a term in the tile and the chains.
func zeroTerms(rng *RNG, a []float64, ars, aks, m, k int) {
	for t := 0; t < k/3; t++ {
		p := rng.Intn(k)
		for i := 0; i < m; i++ {
			a[i*ars+p*aks] = 0
		}
	}
}

// poison scatters ±Inf and NaN through v.
func poison(rng *RNG, v []float64) {
	for t := 0; t < 1+len(v)/40; t++ {
		v[rng.Intn(len(v))] = [...]float64{math.Inf(1), math.Inf(-1), math.NaN()}[rng.Intn(3)]
	}
}

func transpose(src []float64, rows, cols int) []float64 {
	dst := make([]float64, len(src))
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			dst[c*rows+r] = src[r*cols+c]
		}
	}
	return dst
}

// diffShapes covers m, k and n around the tile, strip, panel and
// mask-slab edges: every triple of the small sizes, each large size in
// each position, and a few layer shapes.
func diffShapes() [][3]int {
	small := []int{1, 3, 4, 7, 8, 15, 16, 24, 25}
	var shapes [][3]int
	for _, m := range small {
		for _, k := range small {
			for _, n := range small {
				shapes = append(shapes, [3]int{m, k, n})
			}
		}
	}
	for _, big := range []int{127, 128, 129, 511, 512, 513} {
		for _, x := range []int{4, 7} {
			for _, y := range []int{3, 24, 25} {
				shapes = append(shapes, [3]int{big, 8 + 17*(x&1), y}, [3]int{x, big, y}, [3]int{x, y, big})
			}
		}
	}
	return append(shapes,
		[3]int{1029, 9, 5},   // more 4-row groups than one tile call's masks
		[3]int{20, 25, 576},  // Caffe MNIST conv1 forward
		[3]int{64, 75, 49},   // a k%4 = 3 tail over 2+ AVX-512 strips
		[3]int{12, 259, 50},  // three kc panels, the last one short
		[3]int{8, 131, 1027}, // a 3-term last panel, three nc panels
		[3]int{12, 515, 27},  // two full k blocks, then the tail
		[3]int{9, 1031, 17},  // five k blocks, the last one short
	)
}

// runDiff computes every entry point on one shape with the current
// kernel and with the reference, and reports mismatches through check.
func runDiff(t *testing.T, rng *RNG, m, k, n int, nonFinite bool, check func(what string, got, want []float64) bool) {
	a := diffValues(rng, m*k)
	zeroTerms(rng, a, k, 1, m, k)
	b := diffValues(rng, k*n)
	at := transpose(a, m, k)
	bt := transpose(b, k, n)
	if nonFinite {
		if rng.Intn(2) == 0 {
			poison(rng, b)
			bt = transpose(b, k, n)
		} else {
			poison(rng, a)
			at = transpose(a, m, k)
		}
	}
	fma := gemmKern != kernelPortable
	c0 := diffValues(rng, m*n)
	for _, acc := range []bool{false, true} {
		start := func() []float64 {
			c := append([]float64(nil), c0...)
			if !acc {
				for i := range c {
					c[i] = math.NaN() // an overwrite must not read C
				}
			}
			return c
		}
		got, want := start(), start()
		Gemm(got, a, b, m, k, n, acc)
		refGemm(want, a, b, m, k, n, acc, fma)
		if !check("Gemm", got, want) {
			return
		}
		got, want = start(), start()
		GemmTransB(got, a, bt, m, k, n, acc, nil)
		refGemmTransB(want, a, bt, m, k, n, acc, fma)
		if !check("GemmTransB", got, want) {
			return
		}
		got = start()
		GemmWholeK(got, a, b, m, k, n, acc, nil)
		if !check("GemmWholeK", got, want) {
			return
		}
	}
	got, want := make([]float64, m*n), make([]float64, m*n)
	GemmTransA(got, at, b, m, k, n)
	refGemmTransA(want, at, b, m, k, n, fma)
	check("GemmTransA", got, want)
}

// TestGemmKernelsMatchReference: on finite inputs (±0 included), every
// micro-kernel this host runs reproduces the reference's rounding bit
// for bit through every entry point, overwriting and accumulating.
func TestGemmKernelsMatchReference(t *testing.T) {
	for _, kern := range kernelsOnHost() {
		withKernel(kern, func() {
			rng := NewRNG(0x6e11)
			outputs := 0
			for _, s := range diffShapes() {
				m, k, n := s[0], s[1], s[2]
				runDiff(t, rng, m, k, n, false, func(what string, got, want []float64) bool {
					outputs += len(got)
					for i := range got {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Errorf("%s kernel, %s m=%d k=%d n=%d: c[%d] = %v (%#x), reference %v (%#x)",
								kern, what, m, k, n, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
							return false
						}
					}
					return true
				})
			}
			t.Logf("%s: %d outputs bit-identical to the reference", kern, outputs)
		})
	}
}

// TestGemmKernelsNonFinitePositions: with Inf and NaN in an operand the
// kernels produce non-finite values exactly where the reference does;
// the zero skips decide some of those positions.
func TestGemmKernelsNonFinitePositions(t *testing.T) {
	finite := func(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
	for _, kern := range kernelsOnHost() {
		withKernel(kern, func() {
			rng := NewRNG(0xbad)
			for _, s := range diffShapes() {
				m, k, n := s[0], s[1], s[2]
				runDiff(t, rng, m, k, n, true, func(what string, got, want []float64) bool {
					for i := range got {
						if finite(got[i]) != finite(want[i]) {
							t.Errorf("%s kernel, %s m=%d k=%d n=%d: c[%d] = %v, reference %v", kern, what, m, k, n, i, got[i], want[i])
							return false
						}
					}
					return true
				})
			}
		})
	}
}

// TestGemmBitsIndependentOfWorkers: the row partition across workers
// does not change a single output bit. Before row blocks were cut at
// 4-row boundaries, 1,920 of the 11,520 outputs of the 20×25×576 shape
// differed between GOMAXPROCS 1 and 2.
func TestGemmBitsIndependentOfWorkers(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	shapes := [][3]int{{20, 25, 576}, {64, 1600, 225}, {75, 64, 1024}, {37, 130, 33}, {18, 16, 9}}
	for _, kern := range kernelsOnHost() {
		withKernel(kern, func() {
			for _, s := range shapes {
				m, k, n := s[0], s[1], s[2]
				rng := NewRNG(uint64(m*k + n))
				a, b := diffValues(rng, m*k), diffValues(rng, k*n)
				at, bt := transpose(a, m, k), transpose(b, k, n)
				run := func(procs int) [][]float64 {
					runtime.GOMAXPROCS(procs)
					outs := make([][]float64, 4)
					for i := range outs {
						outs[i] = make([]float64, m*n)
					}
					Gemm(outs[0], a, b, m, k, n, false)
					GemmTransA(outs[1], at, b, m, k, n)
					GemmTransB(outs[2], a, bt, m, k, n, false, nil)
					GemmWholeK(outs[3], a, b, m, k, n, false, nil)
					return outs
				}
				want := run(1)
				for _, procs := range []int{2, 3} {
					for e, got := range run(procs) {
						for i := range got {
							if math.Float64bits(got[i]) != math.Float64bits(want[e][i]) {
								t.Fatalf("%s kernel, entry %d, m=%d k=%d n=%d: c[%d] differs between GOMAXPROCS 1 and %d",
									kern, e, m, k, n, i, procs)
							}
						}
					}
				}
			}
		})
	}
}

// TestTileKernelWritesStayInBounds: the assembly kernels write C and the
// parked phases only inside the sizes tile() allocates (the arena hands
// out power-of-two buckets, whose slack would hide an overrun).
func TestTileKernelWritesStayInBounds(t *testing.T) {
	const k4, guard = 16, 64
	sentinel := math.Float64frombits(0x7ff8dead0000beef)
	for _, kern := range kernelsOnHost()[1:] {
		nr := 8
		if kern == kernelAVX2 {
			nr = 4
		}
		for _, rows := range []int{4, 8, 12, 16} {
			for _, cols := range []int{1, 3, nr} {
				rng := NewRNG(uint64(rows*cols + nr))
				a := diffValues(rng, rows*k4)
				pk := aligned64(make([]float64, k4*nr+8))
				copy(pk, diffValues(rng, k4*nr))
				c := make([]float64, rows*cols+guard)
				ph := make([]float64, rows*4*nr+32+guard)
				for i := range c[rows*cols:] {
					c[rows*cols+i] = sentinel
				}
				for i := range ph[rows*4*nr+32:] {
					ph[rows*4*nr+32+i] = sentinel
				}
				var keep [gemmKeepGroups + 1]uint8
				tileFMA(kern, &a[0], &pk[0], &c[0], &keep[0], k4, 1, nr, cols, rows, cols, k4, 0, 0, &ph[0], 2)
				tileFMA(kern, &a[0], &pk[0], &c[0], &keep[0], k4, 1, nr, cols, rows, cols, k4, 0, 0, &ph[0], 1)
				for name, buf := range map[string][]float64{"C": c[rows*cols:], "phases": ph[rows*4*nr+32:]} {
					for i, v := range buf {
						if math.Float64bits(v) != math.Float64bits(sentinel) {
							t.Fatalf("%s kernel, rows=%d cols=%d: wrote %s guard element %d", kern, rows, cols, name, i)
						}
					}
				}
			}
		}
	}
}
