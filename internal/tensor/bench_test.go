package tensor

import "testing"

func benchmarkMatMul(b *testing.B, m, k, n int) {
	rng := NewRNG(1)
	a := New(m, k)
	bb := New(k, n)
	c := New(m, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(bb, 0, 1)
	b.SetBytes(int64(8 * (m*k + k*n + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Gemm(c.Data(), a.Data(), bb.Data(), m, k, n, false)
	}
}

func BenchmarkMatMulSmall(b *testing.B)  { benchmarkMatMul(b, 32, 25, 576) }
func BenchmarkMatMulMedium(b *testing.B) { benchmarkMatMul(b, 64, 800, 196) }
func BenchmarkMatMulLarge(b *testing.B)  { benchmarkMatMul(b, 64, 1600, 225) }

func BenchmarkMatMulTransA(b *testing.B) {
	rng := NewRNG(2)
	k, m, n := 64, 1600, 225
	a := New(k, m)
	bb := New(k, n)
	c := New(m, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(bb, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTransA(c.Data(), a.Data(), bb.Data(), m, k, n)
	}
}

func BenchmarkMatMulTransB(b *testing.B) {
	rng := NewRNG(3)
	m, k, n := 64, 225, 1600
	a := New(m, k)
	bb := New(n, k)
	c := New(m, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(bb, 0, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GemmTransB(c.Data(), a.Data(), bb.Data(), m, k, n, false, nil)
	}
}

func BenchmarkIm2Col(b *testing.B) {
	g := ConvGeom{InC: 64, InH: 15, InW: 15, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, OutC: 64}
	img := make([]float64, g.InC*g.InH*g.InW)
	col := make([]float64, g.InC*g.KH*g.KW*g.OutH()*g.OutW())
	rng := NewRNG(4)
	for i := range img {
		img[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Im2Col(col, img, g)
	}
}

func BenchmarkRNGNormal(b *testing.B) {
	rng := NewRNG(5)
	s := 0.0
	for i := 0; i < b.N; i++ {
		s += rng.NormFloat64()
	}
	_ = s
}
