package engine

import (
	"context"
	"testing"

	"repro/internal/nn"
	"repro/internal/obs"
)

// TestDispatchAllocations guards the dispatch path against allocations
// made per dispatch, such as an op span name or a closure: after
// warm-up, Predict through each executor and TrainBatch through the
// float ones must allocate exactly as often on a live tracer with
// profiling off as on a nil one, and no more often than the bare
// network does for the same pass (plus Predict's result slice).
func TestDispatchAllocations(t *testing.T) {
	x, labels := testBatch(37)
	ctx := context.Background()
	perCall := func(f func() error) float64 {
		call := func() {
			if err := f(); err != nil {
				t.Fatal(err)
			}
		}
		call() // size the layer buffers and warm the arena
		return testing.AllocsPerRun(20, call)
	}

	net := buildNet(t, 31)
	qnet, err := nn.Quantize(buildNet(t, 31))
	if err != nil {
		t.Fatal(err)
	}
	floorPredict := 1 + perCall(func() error { _, err := net.Forward(x, false); return err })
	floorTrain := perCall(func() error { _, err := net.TrainStep(x, labels); return err })
	floorInt8 := 1 + perCall(func() error { _, err := qnet.Forward(x); return err })

	styles := map[string]func(*obs.Tracer) (Executor, error){
		"graph":     func(tr *obs.Tracer) (Executor, error) { return NewGraph(buildNet(t, 31), tr) },
		"layerwise": func(tr *obs.Tracer) (Executor, error) { return NewLayerwise(buildNet(t, 31), 4, tr) },
		"module":    func(tr *obs.Tracer) (Executor, error) { return NewModule(buildNet(t, 31), tr) },
		"int8":      func(tr *obs.Tracer) (Executor, error) { return NewQuant(buildNet(t, 31), tr) },
	}
	for name, build := range styles {
		for _, train := range []bool{false, true} {
			if train && name == "int8" {
				continue // inference-only
			}
			count := func(tr *obs.Tracer) float64 {
				e, err := build(tr)
				if err != nil {
					t.Fatal(err)
				}
				if train {
					return perCall(func() error { _, err := e.TrainBatch(ctx, x, labels); return err })
				}
				return perCall(func() error { _, err := e.Predict(ctx, x); return err })
			}
			floor := floorPredict
			switch {
			case train:
				floor = floorTrain
			case name == "int8":
				floor = floorInt8
			}
			off, live := count(nil), count(obs.New())
			t.Logf("%s train=%v: %.0f allocs per call with a nil tracer, %.0f with a live one, bare network %.0f",
				name, train, off, live, floor)
			if live != off {
				t.Errorf("%s train=%v: %.0f allocs per call with a live tracer (profiling off), want %.0f as with a nil tracer",
					name, train, live, off)
			}
			if off > floor {
				t.Errorf("%s train=%v: %.0f allocs per call, more than the bare network's %.0f", name, train, off, floor)
			}
		}
	}
}
