package obs_test

import (
	"context"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/monitor"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// buildIterationWorkload constructs the Caffe LeNet MNIST workload the
// root-level executor benchmarks use: one batch, one network, one
// executor of the requested style wired to tr.
func buildIterationWorkload(tb testing.TB, tr *obs.Tracer) (engine.Executor, *tensor.Tensor, []int) {
	tb.Helper()
	in, err := framework.InputFor(framework.MNIST)
	if err != nil {
		tb.Fatal(err)
	}
	net, err := framework.BuildNetwork(framework.Caffe, framework.MNIST, in, framework.NetworkOptions{Device: device.GPU, DropoutRate: -1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, tensor.NewRNG(1)); err != nil {
		tb.Fatal(err)
	}
	exec, err := framework.NewTracedExecutor(framework.Caffe, net, 16, tr)
	if err != nil {
		tb.Fatal(err)
	}
	rng := tensor.NewRNG(2)
	x := tensor.New(16, 1, 28, 28)
	rng.FillNormal(x, 0, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	return exec, x, labels
}

// BenchmarkTrainIterationTracerDisabled measures a full training
// iteration through an instrumented executor with the tracer disabled
// (nil) — the default CLI state. Compare against
// BenchmarkTrainIterationTracerEnabled for the cost of live tracing.
func BenchmarkTrainIterationTracerDisabled(b *testing.B) {
	exec, x, labels := buildIterationWorkload(b, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.TrainBatch(context.Background(), x, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrainIterationTracerEnabled is the live-tracer counterpart.
func BenchmarkTrainIterationTracerEnabled(b *testing.B) {
	exec, x, labels := buildIterationWorkload(b, obs.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exec.TrainBatch(context.Background(), x, labels); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDisabledSpan measures the no-op span open/close pair on a nil
// tracer — the unit cost the instrumented hot paths pay when tracing is
// off.
func BenchmarkDisabledSpan(b *testing.B) {
	var tr *obs.Tracer
	for i := 0; i < b.N; i++ {
		tr.Span("x", "bench").End()
	}
}

// BenchmarkDisabledCounter measures the no-op counter add.
func BenchmarkDisabledCounter(b *testing.B) {
	var tr *obs.Tracer
	c := tr.Counter("x")
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

// BenchmarkDisabledOpSpan measures the op span open/close pair the
// executors make around every layer dispatch on a live tracer with
// profiling off — the cost the profiler adds to a dispatch when not
// profiling.
func BenchmarkDisabledOpSpan(b *testing.B) {
	tr := obs.New()
	for i := 0; i < b.N; i++ {
		tr.OpSpan("x", "op").End()
	}
	if tr.SpanCount() != 0 {
		b.Fatal("profiling unexpectedly enabled")
	}
}

// BenchmarkDisabledEmit measures the no-op event emission on a nil
// tracer.
func BenchmarkDisabledEmit(b *testing.B) {
	var tr *obs.Tracer
	for i := 0; i < b.N; i++ {
		tr.Emit("x", nil)
	}
}

// BenchmarkDisabledCurrentSpan measures the no-op current-span read on a
// nil tracer — the unit cost live-introspection paths (the serve /status
// in-flight view) pay per job when its tracer is disabled.
func BenchmarkDisabledCurrentSpan(b *testing.B) {
	var tr *obs.Tracer
	for i := 0; i < b.N; i++ {
		if s := tr.CurrentSpan(); s != "" {
			b.Fatal("nil tracer reported an open span")
		}
	}
}

// BenchmarkDisabledMonitorLatest measures the no-op latest-sample read
// on a nil sampler — the unit cost status/exposition paths pay when
// -monitor is off.
func BenchmarkDisabledMonitorLatest(b *testing.B) {
	var sm *monitor.Sampler
	for i := 0; i < b.N; i++ {
		if _, ok := sm.Latest(); ok {
			b.Fatal("nil sampler produced a sample")
		}
	}
}

// TestDisabledTracerOverheadUnderTwoPercent is the acceptance guard: the
// disabled-tracer instrumentation added to a training iteration must cost
// under 2% of the iteration itself. A training iteration makes a handful
// of nil span open/close pairs and nil counter adds; the test measures
// both sides and compares with a generous instrumentation-count margin.
func TestDisabledTracerOverheadUnderTwoPercent(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test")
	}
	exec, x, labels := buildIterationWorkload(t, nil)
	// Warm up allocator/caches, then time real iterations.
	if _, err := exec.TrainBatch(context.Background(), x, labels); err != nil {
		t.Fatal(err)
	}
	const iters = 10
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := exec.TrainBatch(context.Background(), x, labels); err != nil {
			t.Fatal(err)
		}
	}
	perIter := time.Since(start) / iters

	// Measure the unit cost of the disabled instrumentation primitives:
	// the nil span pair and counter add the hot paths always pay, the
	// op span pair each layer dispatch opens on a live tracer with
	// profiling off (the default), the nil event emission the loop
	// boundaries pay without -events, the nil-sampler reads the
	// monitor-aware paths pay without -monitor, and the nil current-span
	// read the serve introspection path pays on a disabled tracer.
	var tr *obs.Tracer
	var sm *monitor.Sampler
	live := obs.New()
	c := tr.Counter("x")
	const ops = 1_000_000
	profiled := 0
	start = time.Now()
	for i := 0; i < ops; i++ {
		tr.Span("x", "t").End()
		c.Add(1)
		live.OpSpan("x", "op").End()
		tr.Emit("x", nil)
		if _, ok := sm.Latest(); ok {
			profiled++
		}
		if tr.CurrentSpan() != "" {
			profiled++
		}
	}
	perOp := time.Since(start) / ops
	if profiled != 0 || live.SpanCount() != 0 {
		t.Fatal("profiling unexpectedly enabled")
	}

	// An instrumented iteration performs ~6 span pairs and ~6 counter
	// adds across executor + suite + data layers, plus two op span pairs
	// per layer (forward and backward dispatch); charge 100 to leave
	// headroom against scheduling noise.
	const opsPerIter = 100
	overhead := perOp * opsPerIter
	limit := perIter / 50 // 2%
	t.Logf("iteration %v, disabled instrumentation %v/op, %d ops -> %v overhead (limit %v)",
		perIter, perOp, opsPerIter, overhead, limit)
	if overhead >= limit {
		t.Fatalf("disabled tracer overhead %v exceeds 2%% of iteration time %v", overhead, perIter)
	}
}
