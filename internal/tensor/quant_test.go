package tensor

import (
	"math"
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
		DequantizeInt8(back, q, p)
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

// TestGemmInt8ExactVsReference: the kernel (vector body + scalar tail +
// worker-pool row split) must agree EXACTLY with the naive int32 loop —
// integer accumulation has no rounding, so any deviation is a bug. The
// shape sweep crosses the k<16 generic cutoff, the 16/32-byte vector
// strides and their tails, and the parallel-row threshold; extreme
// codes ±127 exercise the sign-extension path at full magnitude.
func TestGemmInt8ExactVsReference(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(24), 1+rng.Intn(100), 1+rng.Intn(12)
		a := make([]int8, m*k)
		b := make([]int8, n*k)
		fill := func(dst []int8) {
			for i := range dst {
				switch rng.Intn(8) {
				case 0:
					dst[i] = QuantMaxInt8
				case 1:
					dst[i] = -QuantMaxInt8
				default:
					dst[i] = int8(rng.Intn(2*QuantMaxInt8+1) - QuantMaxInt8)
				}
			}
		}
		fill(a)
		fill(b)
		got := make([]int32, m*n)
		GemmInt8TransB(got, a, b, m, k, n)
		want := naiveGemmInt8(a, b, m, k, n)
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d m=%d k=%d n=%d: c[%d]=%d want %d", seed, m, k, n, i, got[i], want[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
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

// BenchmarkDotInt8 documents the int8 kernel's advantage over the float
// path on a dense-layer-sized reduction (the batch-1 latency story).
func BenchmarkDotInt8(b *testing.B) {
	const k = 3136
	a8 := make([]int8, k)
	b8 := make([]int8, k)
	for i := range a8 {
		a8[i] = int8(i%255 - 127)
		b8[i] = int8((i*7)%255 - 127)
	}
	b.SetBytes(2 * k)
	var sink int32
	for i := 0; i < b.N; i++ {
		sink += dotInt8(a8, b8)
	}
	_ = sink
}
