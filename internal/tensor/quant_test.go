package tensor

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"testing/quick"
)

// TestQuantRoundTripBounded: for any finite data, quantize→dequantize
// reconstructs each element within half a quantization step (scale/2,
// plus one ulp of slack for the division/rounding round trip).
func TestQuantRoundTripBounded(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		n := 1 + rng.Intn(512)
		data := make([]float64, n)
		scale := math.Exp(rng.NormFloat64() * 3) // spans tiny..huge magnitudes
		for i := range data {
			data[i] = rng.NormFloat64() * scale
		}
		p := ChooseQuantParams(data)
		q := make([]int8, n)
		back := make([]float64, n)
		QuantizeInt8(q, data, p)
		for i, v := range q {
			back[i] = p.Scale * float64(v)
		}
		bound := p.Scale/2 + p.Scale*1e-12
		for i := range data {
			if math.Abs(back[i]-data[i]) > bound {
				t.Logf("seed %d: elem %d: %v -> %d -> %v (scale %v)", seed, i, data[i], q[i], back[i], p.Scale)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuantSaturation: the clamp boundaries. Values beyond ±127*scale
// saturate to ±QuantMaxInt8 (never wrap to -128), halves round away
// from zero, and non-finite inputs degrade safely.
func TestQuantSaturation(t *testing.T) {
	p := QuantParams{Scale: 1}
	cases := []struct {
		in   float64
		want int8
	}{
		{0, 0},
		{126.49, 126},
		{126.5, 127}, // half away from zero
		{127, 127},
		{127.49, 127},
		{1000, 127},    // clamp high
		{-1000, -127},  // clamp low, not -128
		{-126.5, -127}, // half away from zero, negative
		{-127.6, -127}, // would round to -128; clamps
		{math.Inf(1), 127},
		{math.Inf(-1), -127},
		{math.NaN(), 0},
	}
	for _, c := range cases {
		if got := p.Quantize(c.in); got != c.want {
			t.Errorf("Quantize(%v) = %d, want %d", c.in, got, c.want)
		}
	}
	// ChooseQuantParams ignores infinities and survives all-zero data.
	p = ChooseQuantParams([]float64{0, math.Inf(1), -63.5, 0})
	if want := 63.5 / QuantMaxInt8; math.Abs(p.Scale-want) > 1e-15 {
		t.Errorf("scale with Inf present = %v, want %v", p.Scale, want)
	}
	if p = ChooseQuantParams([]float64{0, 0}); p.Scale != 1 {
		t.Errorf("all-zero scale = %v, want 1", p.Scale)
	}
	if p = ChooseQuantParams(nil); p.Scale != 1 {
		t.Errorf("empty scale = %v, want 1", p.Scale)
	}
}

// naiveGemmInt8 is the int32 reference reduction.
func naiveGemmInt8(a, b []int8, m, k, n int) []int32 {
	c := make([]int32, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var acc int32
			for p := 0; p < k; p++ {
				acc += int32(a[i*k+p]) * int32(b[j*k+p])
			}
			c[i*n+j] = acc
		}
	}
	return c
}

// int8KernelsOnHost lists the int8 tile kernels this build and host can
// run: every kernel up to the best one (a VNNI host runs AVX2 too).
func int8KernelsOnHost() []int8Kernel {
	var ks []int8Kernel
	for k := int8Portable; k <= bestInt8Kernel(); k++ {
		ks = append(ks, k)
	}
	return ks
}

// withInt8Kernel runs f with int8Kern forced to k.
func withInt8Kernel(k int8Kernel, f func()) {
	prev := int8Kern
	int8Kern = k
	defer func() { int8Kern = prev }()
	f()
}

// int8Codes fills dst with random codes over the whole int8 domain,
// with extra weight on the extremes ±127 and -128.
func int8Codes(rng *RNG, dst []int8) {
	for i := range dst {
		switch rng.Intn(8) {
		case 0:
			dst[i] = QuantMaxInt8
		case 1:
			dst[i] = -QuantMaxInt8
		case 2:
			dst[i] = -128
		default:
			dst[i] = int8(rng.Intn(256) - 128)
		}
	}
}

// int8LayerShapes are the m×k×n int8 GEMMs of the TF MNIST and TF CIFAR
// networks: convs as OutC × C·KH·KW × OutH·OutW, dense layers as batch ×
// in × out, MNIST at batch 1 and 100, CIFAR at batch 10.
var int8LayerShapes = [][3]int{
	{32, 25, 784},     // MNIST conv1
	{64, 800, 196},    // MNIST conv2
	{1, 3136, 1024},   // MNIST fc1, batch 1
	{100, 3136, 1024}, // MNIST fc1, batch 100
	{1, 1024, 10},     // MNIST fc2, batch 1
	{100, 1024, 10},   // MNIST fc2, batch 100
	{64, 75, 1024},    // CIFAR conv1
	{64, 1600, 225},   // CIFAR conv2
	{10, 3136, 384},   // CIFAR fc1
	{10, 384, 192},    // CIFAR fc2
	{10, 192, 10},     // CIFAR fc3
}

// TestGemmInt8ExactVsReference: every int8 kernel the host runs agrees
// EXACTLY with the naive int32 loop — integer sums have no rounding, so
// any deviation is a bug. It covers the network layer shapes at
// GOMAXPROCS 1 and 2 (row blocks split across workers), every k from 1
// past two 64-byte VNNI blocks with m and n across the 4×4, 2×4 and 1×4
// tile edges, operands that are all +127, all -127 or all -128 (the
// largest products), and a reduction long enough that the int32 sum
// wraps, which every kernel must wrap the same way as the loop.
func TestGemmInt8ExactVsReference(t *testing.T) {
	type problem struct {
		m, k, n int
		a, b    []int8
		want    []int32
	}
	rng := NewRNG(0x1e8)
	var probs []problem
	add := func(m, k, n int, fill func(a, b []int8)) {
		a, b := make([]int8, m*k), make([]int8, n*k)
		fill(a, b)
		probs = append(probs, problem{m, k, n, a, b, naiveGemmInt8(a, b, m, k, n)})
	}
	random := func(a, b []int8) { int8Codes(rng, a); int8Codes(rng, b) }
	for _, s := range int8LayerShapes {
		add(s[0], s[1], s[2], random)
	}
	layers := len(probs)
	edges := []int{1, 2, 3, 4, 5, 7, 8, 9}
	for k := 1; k <= 2*64+5; k++ {
		add(edges[k%len(edges)], k, edges[(k/len(edges))%len(edges)], random)
	}
	for _, m := range edges {
		for _, n := range edges {
			add(m, 67, n, random)
		}
	}
	for _, v := range [][2]int8{{127, 127}, {-127, 127}, {-127, -127}, {-128, -128}, {-128, 127}} {
		for _, k := range []int{1, 15, 16, 17, 63, 64, 65, 200} {
			add(5, k, 6, func(a, b []int8) {
				for i := range a {
					a[i] = v[0]
				}
				for i := range b {
					b[i] = v[1]
				}
			})
		}
	}
	add(3, 140000, 5, func(a, b []int8) { // 140000·127² > 2³¹
		for i := range a {
			a[i] = 127
		}
		for i := range b {
			b[i] = 127 - int8(i%2)
		}
	})
	if probs[len(probs)-1].want[0] >= 0 {
		t.Fatal("the long reduction does not wrap")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, kern := range int8KernelsOnHost() {
		withInt8Kernel(kern, func() {
			for i, p := range probs {
				for _, procs := range []int{1, 2} {
					if procs == 2 && i >= layers {
						break
					}
					runtime.GOMAXPROCS(procs)
					// Every output must be written, and nothing past C:
					// 16 guard elements follow it.
					got := make([]int32, p.m*p.n+16)
					for j := range got {
						got[j] = -1 << 31
					}
					GemmInt8TransB(got, p.a, p.b, p.m, p.k, p.n)
					for j := range got {
						want := int32(-1 << 31)
						if j < len(p.want) {
							want = p.want[j]
						}
						if got[j] != want {
							t.Fatalf("%s kernel, GOMAXPROCS %d, m=%d k=%d n=%d: c[%d] = %d, want %d",
								kern, procs, p.m, p.k, p.n, j, got[j], want)
						}
					}
				}
			}
			t.Logf("%s: %d problems exact", kern, len(probs))
		})
	}
}

// TestGemmInt8WithinDerivedTolerance: quantize float operands, run the
// int8 GEMM, dequantize, and compare against the float64 reference. The
// worst-case per-element error is the propagated quantization error:
// each a-element is off by ≤ sa/2 and each b-element by ≤ sb/2, so a
// k-term dot product deviates by at most
// k*(sa/2*max|b| + sb/2*max|a| + sa*sb/4).
func TestGemmInt8WithinDerivedTolerance(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(8), 1+rng.Intn(64), 1+rng.Intn(8)
		a, bT := New(m, k), New(n, k)
		rng.FillNormal(a, 0, 1+float64(rng.Intn(4)))
		rng.FillNormal(bT, 0, 1+float64(rng.Intn(4)))
		pa := ChooseQuantParams(a.Data())
		pb := ChooseQuantParams(bT.Data())
		qa := make([]int8, m*k)
		qb := make([]int8, n*k)
		QuantizeInt8(qa, a.Data(), pa)
		QuantizeInt8(qb, bT.Data(), pb)
		qc := make([]int32, m*n)
		GemmInt8TransB(qc, qa, qb, m, k, n)

		maxA := pa.Scale * QuantMaxInt8
		maxB := pb.Scale * QuantMaxInt8
		tol := float64(k) * (pa.Scale/2*maxB + pb.Scale/2*maxA + pa.Scale*pb.Scale/4)
		tol += 1e-9 // float reference's own rounding
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				var ref float64
				for p := 0; p < k; p++ {
					ref += a.Data()[i*k+p] * bT.Data()[j*k+p]
				}
				got := pa.Scale * pb.Scale * float64(qc[i*n+j])
				if math.Abs(got-ref) > tol {
					t.Logf("seed %d m=%d k=%d n=%d: c[%d,%d]=%v ref %v tol %v", seed, m, k, n, i, j, got, ref, tol)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestIm2RowInt8MatchesFloatLowering: lowering a quantized image must
// equal quantizing the float lowering — element maps commute with the
// rearrangement, and padding zeros are exact under symmetric
// quantization. Geometry includes padding so zero-fill is exercised.
func TestIm2RowInt8MatchesFloatLowering(t *testing.T) {
	rng := NewRNG(99)
	g := ConvGeom{InC: 3, InH: 7, InW: 6, KH: 3, KW: 3, StrideH: 2, StrideW: 1, PadH: 1, PadW: 2, OutC: 1}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	img := New(g.InC, g.InH, g.InW)
	rng.FillNormal(img, 0, 2)
	p := ChooseQuantParams(img.Data())
	qimg := make([]int8, img.Len())
	QuantizeInt8(qimg, img.Data(), p)

	vol := g.OutH() * g.OutW() * g.InC * g.KH * g.KW
	frow := make([]float64, vol)
	naiveIm2Row(frow, img.Data(), g)
	wantQ := make([]int8, vol)
	QuantizeInt8(wantQ, frow, p)

	gotQ := make([]int8, vol)
	Im2RowInt8(gotQ, qimg, g)
	for i := range wantQ {
		if gotQ[i] != wantQ[i] {
			t.Fatalf("lowered code %d: got %d want %d", i, gotQ[i], wantQ[i])
		}
	}
}

// BenchmarkGemmInt8 times GemmInt8TransB at the TF MNIST layer shapes,
// once per int8 kernel the host runs. Ops are reported as "bytes", so
// MB/s reads as MOP/s (two ops per multiply-add).
func BenchmarkGemmInt8(b *testing.B) {
	for _, s := range [][3]int{{32, 25, 784}, {64, 800, 196}, {1, 3136, 1024}, {100, 3136, 1024}} {
		m, k, n := s[0], s[1], s[2]
		rng := NewRNG(7)
		a8, b8 := make([]int8, m*k), make([]int8, n*k)
		int8Codes(rng, a8)
		int8Codes(rng, b8)
		c := make([]int32, m*n)
		for _, kern := range int8KernelsOnHost() {
			b.Run(fmt.Sprintf("m%dk%dn%d/%s", m, k, n, kern), func(b *testing.B) {
				withInt8Kernel(kern, func() {
					b.SetBytes(int64(2 * m * k * n))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						GemmInt8TransB(c, a8, b8, m, k, n)
					}
				})
			})
		}
	}
}
