package nn

import (
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// TestSteadyStateAllocations: after a warm-up iteration the persistent
// layer buffers and the tensor arena must absorb all hot-loop storage, so
// conv/relu/lrn/pool/dense forward+backward allocate near-zero bytes per
// iteration, the per-worker LRN scratch included. This is the regression guard that keeps the arena honest: if
// a layer silently reverts to per-call tensor.New, this threshold trips.
func TestSteadyStateAllocations(t *testing.T) {
	conv, err := NewConv2D(Conv2DConfig{
		Name: "c1", InC: 1, InH: 12, InW: 12, OutC: 4, Kernel: 3, Stride: 1, Pad: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	relu, err := NewActivation("r1", ReLU)
	if err != nil {
		t.Fatal(err)
	}
	lrn, err := NewLRN(LRNConfig{Name: "n1", Depth: 3})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewPool2D(Pool2DConfig{
		Name: "p1", Kind: MaxPool, InC: 4, InH: 12, InW: 12, Window: 2, Stride: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := NewDense("fc", 4*6*6, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(9)
	rng.FillNormal(conv.weight.Value, 0, 0.3)
	rng.FillNormal(dense.weight.Value, 0, 0.3)

	const batch = 4
	x := tensor.New(batch, 1, 12, 12)
	rng.FillNormal(x, 0, 1)
	gradOut := tensor.New(batch, 5)
	rng.FillNormal(gradOut, 0, 1)

	iter := func() {
		c, err := conv.Forward(x, true)
		if err != nil {
			t.Fatal(err)
		}
		r, err := relu.Forward(c, true)
		if err != nil {
			t.Fatal(err)
		}
		l, err := lrn.Forward(r, true)
		if err != nil {
			t.Fatal(err)
		}
		p, err := pool.Forward(l, true)
		if err != nil {
			t.Fatal(err)
		}
		flat, err := p.Reshape(batch, 4*6*6)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dense.Forward(flat, true); err != nil {
			t.Fatal(err)
		}
		gd, err := dense.Backward(gradOut)
		if err != nil {
			t.Fatal(err)
		}
		gp, err := gd.Reshape(batch, 4, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		gl, err := pool.Backward(gp)
		if err != nil {
			t.Fatal(err)
		}
		gr, err := lrn.Backward(gl)
		if err != nil {
			t.Fatal(err)
		}
		gc, err := relu.Backward(gr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conv.Backward(gc); err != nil {
			t.Fatal(err)
		}
	}

	// Warm-up: first iterations size the persistent buffers and populate
	// the arena buckets.
	for i := 0; i < 3; i++ {
		iter()
	}

	const iters = 20
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < iters; i++ {
		iter()
	}
	runtime.ReadMemStats(&after)
	perIter := (after.TotalAlloc - before.TotalAlloc) / iters

	// The steady-state residue is tensor headers, reshape views and
	// closure captures — a few hundred bytes. The old per-iteration
	// tensors for this net were several hundred KB; 16 KiB is far below
	// the old regime while leaving headroom for header churn.
	const limit = 16 * 1024
	if perIter > limit {
		t.Fatalf("steady-state allocations = %d B/iter, want <= %d (arena/buffer reuse regressed)", perIter, limit)
	}
	t.Logf("steady-state allocations: %d B/iter", perIter)
}
