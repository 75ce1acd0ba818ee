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

// BenchmarkDisabledProfilingCheck measures the per-pass profiling-mode
// test the executors run on a live tracer with profiling off — the cost
// the profiler adds to every forward/backward pass when not profiling.
func BenchmarkDisabledProfilingCheck(b *testing.B) {
	tr := obs.New()
	n := 0
	for i := 0; i < b.N; i++ {
		if tr.ProfilingEnabled() {
			n++
		}
	}
	if n != 0 {
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

// BenchmarkDisabledRegistryLookup measures the no-op scope lookup on a
// nil registry — the unit cost lookup-per-request server paths pay when
// scoped tracing is off.
func BenchmarkDisabledRegistryLookup(b *testing.B) {
	var r *obs.Registry
	for i := 0; i < b.N; i++ {
		if tr := r.Lookup("x"); tr != nil {
			b.Fatal("nil registry produced a tracer")
		}
	}
}

// BenchmarkDisabledCurrentSpan measures the no-op current-span read on a
// nil tracer — the unit cost live-introspection paths (the serve /status
// in-flight view) pay per job when its scope is disabled.
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
	// profiling-mode test each executor pass makes on a live tracer with
	// profiling off (the default), the nil event emission the loop
	// boundaries pay without -events, the nil-sampler reads the
	// monitor-aware paths pay without -monitor, and the nil-registry
	// lookup plus nil current-span read the serve introspection paths pay
	// when scoped tracing is off.
	var tr *obs.Tracer
	var sm *monitor.Sampler
	var reg *obs.Registry
	live := obs.New()
	c := tr.Counter("x")
	const ops = 1_000_000
	profiled := 0
	start = time.Now()
	for i := 0; i < ops; i++ {
		tr.Span("x", "t").End()
		c.Add(1)
		if live.ProfilingEnabled() {
			profiled++
		}
		tr.Emit("x", nil)
		if _, ok := sm.Latest(); ok {
			profiled++
		}
		if reg.Lookup("x") != nil {
			profiled++
		}
		if tr.CurrentSpan() != "" {
			profiled++
		}
	}
	perOp := time.Since(start) / ops
	if profiled != 0 {
		t.Fatal("profiling unexpectedly enabled")
	}

	// An instrumented iteration performs ~6 span pairs, ~6 counter adds
	// and a few profiling checks across executor + suite + data layers;
	// charge 100 to leave two orders of magnitude of headroom against
	// scheduling noise.
	const opsPerIter = 100
	overhead := perOp * opsPerIter
	limit := perIter / 50 // 2%
	t.Logf("iteration %v, disabled instrumentation %v/op, %d ops -> %v overhead (limit %v)",
		perIter, perOp, opsPerIter, overhead, limit)
	if overhead >= limit {
		t.Fatalf("disabled tracer overhead %v exceeds 2%% of iteration time %v", overhead, perIter)
	}
}
