package engine

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// tracedExecutors builds one executor of each style over identical
// networks, each wired to its own tracer.
func tracedExecutors(t *testing.T, seed uint64) map[string]struct {
	exec Executor
	tr   *obs.Tracer
} {
	t.Helper()
	out := make(map[string]struct {
		exec Executor
		tr   *obs.Tracer
	})
	trG, trL, trM := obs.New(), obs.New(), obs.New()
	g, err := NewGraph(buildNet(t, seed), trG)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := NewLayerwise(buildNet(t, seed), 4, trL)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModule(buildNet(t, seed), trM)
	if err != nil {
		t.Fatal(err)
	}
	out["graph"] = struct {
		exec Executor
		tr   *obs.Tracer
	}{g, trG}
	out["layerwise"] = struct {
		exec Executor
		tr   *obs.Tracer
	}{lw, trL}
	out["module"] = struct {
		exec Executor
		tr   *obs.Tracer
	}{m, trM}
	return out
}

func testBatch(seed uint64) (*tensor.Tensor, []int) {
	rng := tensor.NewRNG(seed)
	x := tensor.New(4, 1, 10, 10)
	rng.FillNormal(x, 0, 1)
	labels := make([]int, 4)
	for i := range labels {
		labels[i] = rng.Intn(3)
	}
	return x, labels
}

// TestStatsMatchTracedDispatches is the cross-check between the static
// cost model and the live tracer: for every executor style, one
// TrainBatch must increment the traced dispatch counter by exactly
// Stats().TrainDispatches, and one Logits by Stats().InferDispatches. The
// device cost model charges the same mechanical dispatches the tracer
// observes.
func TestStatsMatchTracedDispatches(t *testing.T) {
	x, labels := testBatch(99)
	for name, e := range tracedExecutors(t, 7) {
		t.Run(name, func(t *testing.T) {
			stats := e.exec.Stats()
			trainC := e.tr.Counter(CounterTrainDispatch(name))
			inferC := e.tr.Counter(CounterInferDispatch(name))
			if trainC.Value() != 0 || inferC.Value() != 0 {
				t.Fatalf("dispatch counters non-zero before first batch: train=%d infer=%d",
					trainC.Value(), inferC.Value())
			}
			if _, err := e.exec.TrainBatch(context.Background(), x, labels); err != nil {
				t.Fatal(err)
			}
			if got, want := trainC.Value(), int64(stats.TrainDispatches); got != want {
				t.Errorf("one TrainBatch recorded %d dispatches, Stats().TrainDispatches = %d", got, want)
			}
			if inferC.Value() != 0 {
				t.Errorf("TrainBatch leaked %d inference dispatches", inferC.Value())
			}
			if _, err := e.exec.Logits(context.Background(), x); err != nil {
				t.Fatal(err)
			}
			if got, want := inferC.Value(), int64(stats.InferDispatches); got != want {
				t.Errorf("one Logits recorded %d dispatches, Stats().InferDispatches = %d", got, want)
			}
			// A second iteration doubles the counter — the count is
			// per-iteration, not amortized.
			if _, err := e.exec.TrainBatch(context.Background(), x, labels); err != nil {
				t.Fatal(err)
			}
			if got, want := trainC.Value(), 2*int64(stats.TrainDispatches); got != want {
				t.Errorf("two TrainBatches recorded %d dispatches, want %d", got, want)
			}
		})
	}
}

// TestExecutorSpansEmitted: every style must emit its build span at
// construction and forward/backward spans per training iteration.
func TestExecutorSpansEmitted(t *testing.T) {
	x, labels := testBatch(42)
	for name, e := range tracedExecutors(t, 13) {
		t.Run(name, func(t *testing.T) {
			if got := e.tr.Histogram(name + ".build").Count(); got != 1 {
				t.Errorf("%s.build spans = %d, want 1", name, got)
			}
			const iters = 3
			for i := 0; i < iters; i++ {
				if _, err := e.exec.TrainBatch(context.Background(), x, labels); err != nil {
					t.Fatal(err)
				}
			}
			for _, phase := range []string{".forward", ".backward"} {
				if got := e.tr.Histogram(name + phase).Count(); got != iters {
					t.Errorf("%s%s spans = %d, want %d", name, phase, got, iters)
				}
			}
			if _, err := e.exec.Predict(context.Background(), x); err != nil {
				t.Fatal(err)
			}
			if got := e.tr.Histogram(name + ".predict").Count(); got != 1 {
				t.Errorf("%s.predict spans = %d, want 1", name, got)
			}
		})
	}
}

// TestGraphFuseSpanEmitted: the graph executor additionally spans its
// optimization pass.
func TestGraphFuseSpanEmitted(t *testing.T) {
	tr := obs.New()
	if _, err := NewGraph(buildNet(t, 3), tr); err != nil {
		t.Fatal(err)
	}
	if got := tr.Histogram("graph.fuse").Count(); got != 1 {
		t.Fatalf("graph.fuse spans = %d, want 1", got)
	}
}

// TestNilTracerExecutorsStillWork: the disabled state must not change
// executor behaviour.
func TestNilTracerExecutorsStillWork(t *testing.T) {
	x, labels := testBatch(5)
	for name, exec := range executors(t, 11) {
		res, err := exec.TrainBatch(context.Background(), x, labels)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Loss <= 0 {
			t.Fatalf("%s: non-positive loss %v", name, res.Loss)
		}
	}
}

// TestProfilingModeEmitsPerOpSpans: with profiling enabled every style
// must emit one "op" span per layer dispatch, named via OpSpanName, and
// with profiling off (tracing only) no op spans may appear.
func TestProfilingModeEmitsPerOpSpans(t *testing.T) {
	x, labels := testBatch(21)
	for name, e := range tracedExecutors(t, 17) {
		t.Run(name, func(t *testing.T) {
			// Tracing without profiling: no per-op spans.
			if _, err := e.exec.TrainBatch(context.Background(), x, labels); err != nil {
				t.Fatal(err)
			}
			if got := e.tr.Histogram(OpSpanName(name, "conv1")).Count(); got != 0 {
				t.Fatalf("op spans emitted without profiling mode: %d", got)
			}
			e.tr.EnableProfiling()
			if _, err := e.exec.TrainBatch(context.Background(), x, labels); err != nil {
				t.Fatal(err)
			}
			// Every layer of the test net dispatches forward and backward,
			// except the graph executor's fused conv+relu pair: the ReLU
			// runs inside conv1's GEMM epilogue, so its forward emits no
			// dispatch span of its own (backward still does).
			for _, layer := range []string{"conv1", "relu1", "pool1", "flat", "fc"} {
				want := int64(2)
				if name == "graph" && layer == "relu1" {
					want = 1
				}
				if got := e.tr.Histogram(OpSpanName(name, layer)).Count(); got != want {
					t.Errorf("%s op spans = %d, want %d", layer, got, want)
				}
			}
			// Op spans must be inside the phase spans: forward span count
			// unchanged by profiling (still one per TrainBatch).
			if got := e.tr.Histogram(name + ".forward").Count(); got != 2 {
				t.Errorf("%s.forward spans = %d, want 2", name, got)
			}
		})
	}
}

// TestInt8StageSpansCoverForward: in profiling mode the int8 column's
// per-stage op spans must time the stages themselves, so together they
// cover most of the int8.forward span around them. Profiling's memory
// samples sit between spans and a loaded host can stretch them, so the
// best of several passes is judged.
func TestInt8StageSpansCoverForward(t *testing.T) {
	tr := obs.New()
	tr.EnableProfiling()
	q, err := NewQuant(buildNet(t, 23), tr)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(256, 1, 10, 10)
	tensor.NewRNG(24).FillNormal(x, 0, 1)
	const passes = 5
	for i := 0; i < passes; i++ {
		if _, err := q.Logits(context.Background(), x); err != nil {
			t.Fatal(err)
		}
	}
	spans := tr.Spans()
	best, forwards := 0.0, 0
	for _, fwd := range spans {
		if fwd.Name != "int8.forward" {
			continue
		}
		forwards++
		var staged time.Duration
		for _, op := range spans {
			if strings.HasPrefix(op.Name, "int8.op.") && op.Start >= fwd.Start && op.Start+op.Dur <= fwd.Start+fwd.Dur {
				staged += op.Dur
			}
		}
		if c := float64(staged) / float64(fwd.Dur); c > best {
			best = c
		}
	}
	if forwards != passes {
		t.Fatalf("recorded %d int8.forward spans, want %d", forwards, passes)
	}
	t.Logf("best pass: int8.op.* spans cover %.1f%% of int8.forward", 100*best)
	if best < 0.5 {
		t.Fatalf("int8.op.* spans cover %.1f%% of int8.forward in the best pass, want >= 50%%", 100*best)
	}
}
