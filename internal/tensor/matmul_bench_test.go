package tensor

import (
	"fmt"
	"testing"
)

// Shapes taken from the hot GEMMs of the paper's MNIST/CIFAR networks:
// conv1/conv2 forward (im2col lowering), the conv2 backward transposes,
// and the first fully connected layer. Each benchmark runs once per
// micro-kernel the host supports (the default one is the widest), so an
// AVX-512 host also reports what an AVX2-only host would run.
var gemmBenchShapes = []struct{ m, k, n int }{
	{32, 25, 784},   // TF MNIST conv1 forward
	{64, 800, 196},  // TF MNIST conv2 forward
	{64, 1600, 64},  // CIFAR-style conv forward
	{128, 3136, 64}, // dense-ish tall reduction
}

// benchKernels runs body as one sub-benchmark per micro-kernel.
func benchKernels(b *testing.B, name string, flops int, body func()) {
	for _, kern := range kernelsOnHost() {
		b.Run(fmt.Sprintf("%s/%s", name, kern), func(b *testing.B) {
			withKernel(kern, func() {
				b.SetBytes(int64(flops)) // flops as "bytes": MB/s reads as MFLOP/s
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					body()
				}
			})
		})
	}
}

func BenchmarkGemm(b *testing.B) {
	for _, s := range gemmBenchShapes {
		a := fillSeq(s.m*s.k, 3)
		bb := fillSeq(s.k*s.n, 5)
		c := make([]float64, s.m*s.n)
		benchKernels(b, fmt.Sprintf("m%dk%dn%d", s.m, s.k, s.n), 2*s.m*s.k*s.n, func() {
			Gemm(c, a, bb, s.m, s.k, s.n, false)
		})
	}
}

func BenchmarkGemmTransA(b *testing.B) {
	// conv2 backward dcol: c[kVol×plane] = Wᵀ[kVol×OutC]·g[OutC×plane].
	const m, k, n = 800, 64, 196
	a := fillSeq(k*m, 3)
	bb := fillSeq(k*n, 5)
	c := make([]float64, m*n)
	benchKernels(b, "dcol", 2*m*k*n, func() { GemmTransA(c, a, bb, m, k, n) })
}

func BenchmarkGemmTransB(b *testing.B) {
	// conv2 backward dW: c[OutC×kVol] += g[OutC×plane]·colᵀ[kVol×plane].
	const m, k, n = 64, 196, 800
	a := fillSeq(m*k, 3)
	bb := fillSeq(n*k, 5)
	c := make([]float64, m*n)
	benchKernels(b, "dW", 2*m*k*n, func() { GemmTransB(c, a, bb, m, k, n, true, nil) })
}

func BenchmarkGemmWholeK(b *testing.B) {
	// The same dW GEMM as the conv layer now issues it, B lowered k-major
	// by Im2Row and read in place.
	const m, k, n = 64, 196, 800
	a := fillSeq(m*k, 3)
	bb := fillSeq(k*n, 5)
	c := make([]float64, m*n)
	benchKernels(b, "dW", 2*m*k*n, func() { GemmWholeK(c, a, bb, m, k, n, true, nil) })
}
