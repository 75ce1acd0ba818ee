package monitor

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
)

// spin burns CPU for roughly d so CPU-time readers have something to
// measure.
func spin(d time.Duration) {
	deadline := time.Now().Add(d)
	x := 1.0
	for time.Now().Before(deadline) {
		for i := 0; i < 1000; i++ {
			x *= 1.0000001
		}
	}
	_ = x
}

func TestNilSamplerIsSafe(t *testing.T) {
	var s *Sampler
	s.Start()
	s.Stop()
	if smp := s.SampleOnce(); smp != (Sample{}) {
		t.Fatalf("nil SampleOnce = %+v", smp)
	}
	if _, ok := s.Latest(); ok {
		t.Fatal("nil Latest reported ok")
	}
}

func TestSampleOnceReadsResources(t *testing.T) {
	s := New(Config{})
	smp := s.SampleOnce()
	if smp.HeapInuseBytes == 0 || smp.HeapLiveBytes == 0 {
		t.Errorf("sample has no heap reading: %+v", smp)
	}
	if smp.HeapInuseBytes < smp.HeapLiveBytes {
		t.Errorf("heap in-use %d < live %d", smp.HeapInuseBytes, smp.HeapLiveBytes)
	}
	if smp.Goroutines < 1 {
		t.Errorf("goroutines = %d", smp.Goroutines)
	}
	latest, ok := s.Latest()
	if !ok || latest != smp {
		t.Errorf("Latest = %+v ok=%v, want the sample just taken", latest, ok)
	}
}

func TestStartStopCollectsSeries(t *testing.T) {
	tr := obs.New()
	s := New(Config{Interval: 2 * time.Millisecond, Tracer: tr})
	s.Start()
	s.Start() // idempotent
	// Sleep rather than spin: on a single-core host a busy loop starves
	// the sampling goroutine.
	time.Sleep(40 * time.Millisecond)
	s.Stop()
	s.Stop() // idempotent
	var series []obs.Event
	for _, ev := range tr.Events() {
		if ev.Type == "monitor.sample" {
			series = append(series, ev)
		}
	}
	if len(series) < 3 {
		t.Fatalf("collected %d samples in 40ms at 2ms interval", len(series))
	}
	for i := 1; i < len(series); i++ {
		if series[i].NS < series[i-1].NS {
			t.Fatalf("samples out of order: %d before %d", series[i].NS, series[i-1].NS)
		}
	}
	latest, ok := s.Latest()
	if !ok {
		t.Fatal("Latest reported no sample after the sampler ran")
	}
	if got := series[len(series)-1].Fields["heap_inuse_bytes"]; got != latest.HeapInuseBytes {
		t.Errorf("Latest heap in-use %d, last monitor.sample event %v", latest.HeapInuseBytes, got)
	}
}

func TestCPUReaderIsMonotonic(t *testing.T) {
	r := newCPUReader()
	a, ok := r.processCPUSeconds()
	if !ok {
		t.Skip("no CPU reader available on this platform")
	}
	spin(20 * time.Millisecond)
	b, ok := r.processCPUSeconds()
	if !ok {
		t.Fatal("CPU reader became unavailable")
	}
	if b < a {
		t.Fatalf("CPU time went backwards: %v -> %v", a, b)
	}
}

func TestSamplerFeedsTracerGaugesAndEvents(t *testing.T) {
	tr := obs.New()
	s := New(Config{Tracer: tr})
	s.SampleOnce()
	snap := tr.Snapshot()
	for _, g := range []string{
		"monitor.heap_inuse_bytes", "monitor.heap_live_bytes",
		"monitor.goroutines", "monitor.cpu_pct",
	} {
		if _, ok := snap.Gauges[g]; !ok {
			t.Errorf("tracer missing gauge %q (have %v)", g, snap.GaugeNames())
		}
	}
	if snap.Gauges["monitor.heap_inuse_bytes"].Last <= 0 {
		t.Error("heap gauge not set")
	}
	events := tr.Events()
	found := false
	for _, ev := range events {
		if ev.Type == "monitor.sample" {
			found = true
			if _, ok := ev.Fields["heap_inuse_bytes"]; !ok {
				t.Errorf("monitor.sample event missing heap field: %v", ev.Fields)
			}
		}
	}
	if !found {
		t.Error("no monitor.sample event emitted")
	}
}

// TestPerSampleGCColumns: forcing GC between two samples must show up as
// a per-tick cycle delta with pause quantiles, on the sample, the
// gauges, and the monitor.sample event — the columns `dlbench top`
// renders. A Sample must stay comparable (scalar fields only).
func TestPerSampleGCColumns(t *testing.T) {
	tr := obs.New()
	s := New(Config{Tracer: tr})
	s.SampleOnce() // establishes the GC differencing basis
	for i := 0; i < 3; i++ {
		runtime.GC()
	}
	smp := s.SampleOnce()
	if smp == (Sample{}) {
		t.Fatal("live sampler returned zero sample")
	}
	if smp.GCCount < 3 {
		t.Fatalf("sample saw %d GC cycles, want >= 3 (forced)", smp.GCCount)
	}
	if smp.GCPauseP50NS <= 0 || smp.GCPauseP99NS < smp.GCPauseP50NS {
		t.Fatalf("per-sample pause quantiles wrong: p50=%d p99=%d", smp.GCPauseP50NS, smp.GCPauseP99NS)
	}
	snap := tr.Snapshot()
	if snap.Gauges["monitor.gc_cycles_total"].Last <= 0 {
		t.Error("gc_cycles_total gauge not set")
	}
	if int64(snap.Gauges["monitor.gc_pause_p50_ns"].Last) != smp.GCPauseP50NS {
		t.Errorf("gc_pause_p50_ns gauge %v, want %d", snap.Gauges["monitor.gc_pause_p50_ns"].Last, smp.GCPauseP50NS)
	}
	// A GC-free tick must not wipe the pause gauges.
	quiet := s.SampleOnce()
	if quiet.GCCount == 0 && int64(tr.Snapshot().Gauges["monitor.gc_pause_p50_ns"].Last) != smp.GCPauseP50NS {
		t.Error("GC-free tick wiped the pause gauges")
	}
	events := tr.Events()
	last := events[len(events)-1]
	for _, k := range []string{"gc_count", "gc_pause_p50_ns", "gc_pause_p99_ns"} {
		if _, ok := last.Fields[k]; !ok {
			t.Errorf("monitor.sample event missing %q: %v", k, last.Fields)
		}
	}
}
