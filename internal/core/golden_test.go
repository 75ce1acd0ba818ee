package core

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/tensor"
)

// goldenCells pins the training numerics of every framework × dataset
// baseline cell at test scale and seed 1: a digest of the first eight
// loss-curve points (iteration and loss bits) plus the final loss, and
// the test accuracy. ROADMAP requires results to stay bit-identical
// across changes unless a change declares otherwise; a change that moves
// these values must say so and record the new ones here.
//
// The values were recorded at GOMAXPROCS=1 with the FMA GEMM kernels
// (AVX2 or AVX-512, which round identically) under Go 1.24. The portable
// kernel rounds differently, so the test skips there. Another Go release
// may change the math library; the failure message names the toolchain
// so such a mismatch can be told from a numeric change.
var goldenCells = []struct {
	fw     framework.ID
	ds     framework.DatasetID
	digest string
	acc    float64
}{
	{framework.TensorFlow, framework.MNIST, "b3cb6fd3c3cacac7", 22.395833333333332},
	{framework.Caffe, framework.MNIST, "49e2d40df08388e4", 22.916666666666668},
	{framework.Torch, framework.MNIST, "dd87a9cd8ce8c246", 76.04166666666667},
	{framework.TensorFlow, framework.CIFAR10, "c8479808a18c6a10", 10.9375},
	{framework.Caffe, framework.CIFAR10, "bb4791f58ff7b787", 21.875},
	{framework.Torch, framework.CIFAR10, "b24ff1081a5b3963", 15.625},
}

// lossDigest hashes the first eight loss points and the final loss.
func lossDigest(hist []metrics.LossPoint, final float64) string {
	h := sha256.New()
	var buf [16]byte
	for i, p := range hist {
		if i == 8 {
			break
		}
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.Iteration))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Loss))
		h.Write(buf[:])
	}
	binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(final))
	h.Write(buf[:8])
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

func TestTrainingNumericsGolden(t *testing.T) {
	if tensor.GemmKernel() == "portable" {
		t.Skip("golden values are pinned to the FMA GEMM kernels")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, ds := range []framework.DatasetID{framework.MNIST, framework.CIFAR10} {
		s, err := NewSuite(ScaleTest, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range goldenCells {
			if c.ds != ds {
				continue
			}
			r, err := baselineRun(s, c.fw, c.ds)
			if err != nil {
				t.Fatalf("%s %s: %v", c.fw.Short(), c.ds, err)
			}
			got := lossDigest(r.LossHistory, r.FinalLoss)
			if got != c.digest || math.Float64bits(r.AccuracyPct) != math.Float64bits(c.acc) {
				t.Errorf("%s %s: loss digest %s accuracy %v (%#x), golden %s %v (%s, %s kernel)",
					c.fw.Short(), c.ds, got, r.AccuracyPct, math.Float64bits(r.AccuracyPct), c.digest, c.acc,
					runtime.Version(), tensor.GemmKernel())
			}
		}
	}
}
