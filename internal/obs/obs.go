// Package obs is the zero-dependency execution-tracing and runtime
// telemetry layer of the benchmark suite. The paper treats runtime
// behaviour — training/testing time, dispatch overhead, utilisation — as a
// first-class metric family; obs makes that behaviour observable *inside*
// a run instead of only as end-of-run aggregates.
//
// The package provides:
//
//   - Tracer: records nested spans against a monotonic clock and keeps a
//     registry of named counters, gauges and duration histograms. Every
//     span additionally feeds a histogram under its own name, so span
//     populations get p50/p95/p99 for free.
//   - Counter / Gauge: atomic instruments safe for concurrent use.
//   - Histogram: a streaming log-bucketed duration histogram with
//     constant-time recording and approximate quantiles.
//   - Snapshot / Delta: a plain-data view of all instruments that attaches
//     to metrics.RunResult and round-trips through JSON.
//   - WriteChromeTrace: exports recorded spans as Chrome trace_event JSON
//     loadable in chrome://tracing or Perfetto.
//
// The whole layer is disabled by default: every method is safe on a nil
// *Tracer (and nil instrument handles), reducing the instrumented hot
// paths to a pointer test. A benchmark in this package guards that the
// disabled path costs well under 2% of a training iteration.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// maxSpans bounds the span buffer: beyond it new spans are counted but
// dropped, so tracing a full-scale sweep cannot exhaust memory. 1<<20
// spans ≈ 48 MB, far beyond any single-figure run.
const maxSpans = 1 << 20

// spanRec is one recorded span, with times relative to the tracer epoch.
type spanRec struct {
	name  string
	cat   string
	start time.Duration
	dur   time.Duration
	depth int32
	// alloc is the TotalAlloc delta across the span when profiling mode
	// sampled memory around it; zero otherwise.
	alloc int64
}

// Tracer records spans and owns the instrument registry. The zero value
// is not usable; construct with New. All methods are safe on a nil
// receiver, which is the disabled state.
type Tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []spanRec
	dropped int64
	// open is the stack of currently-open span names, outermost first; its
	// length is the depth of the next span. CurrentSpan reads its top so
	// live introspection (the serve /status view) can show what a tracer
	// is doing right now.
	open []string

	imu    sync.Mutex
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	infos  map[string]*Info

	// profiling gates per-op spans and memory sampling (see spans.go).
	profiling atomic.Bool

	// emu guards the typed event log (see events.go). eventSeq numbers
	// every emitted event — including dropped ones — so consumers can
	// detect gaps in a stream.
	emu           sync.Mutex
	events        []Event
	eventsDropped int64
	eventSeq      int64
}

// New constructs an enabled tracer whose span timestamps are measured
// from now on the monotonic clock.
func New() *Tracer {
	return &Tracer{
		epoch:  time.Now(),
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		infos:  make(map[string]*Info),
	}
}

// Span is an open span handle. End records it; the zero Span (from a nil
// tracer) is a no-op. Span is a value type: opening and closing a span
// performs no heap allocation.
type Span struct {
	t     *Tracer
	name  string
	cat   string
	start time.Duration
	depth int32
	// allocStart is the TotalAlloc sample taken at open time in profiling
	// mode; sampled marks it valid (TotalAlloc can legitimately be 0 only
	// before any allocation, but the flag keeps the semantics exact).
	allocStart uint64
	sampled    bool
}

// Span opens a span under the given name and category. Category groups
// related spans in the Chrome trace view ("engine", "data", "suite"). In
// profiling mode the open additionally samples the allocator so End can
// record the span's allocation delta.
func (t *Tracer) Span(name, cat string) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	d := int32(len(t.open))
	t.open = append(t.open, name)
	t.mu.Unlock()
	s := Span{t: t, name: name, cat: cat, depth: d}
	if t.profiling.Load() {
		s.allocStart = t.memSample()
		s.sampled = true
	}
	s.start = time.Since(t.epoch)
	return s
}

// End closes the span, recording it and feeding the duration histogram
// registered under the span's name. It returns the span's duration, so a
// caller that needs the number reads the same clock the trace shows; a
// span from a nil tracer returns 0.
func (s Span) End() time.Duration {
	if s.t == nil {
		return 0
	}
	dur := time.Since(s.t.epoch) - s.start
	var alloc int64
	if s.sampled {
		if end := s.t.memSample(); end > s.allocStart {
			alloc = int64(end - s.allocStart)
		}
	}
	s.t.mu.Lock()
	// Pop the innermost matching open-span entry. Spans usually close
	// LIFO, making this the top of the stack, but concurrent spans on one
	// tracer may close out of order — matching by name keeps the stack
	// consistent either way.
	for i := len(s.t.open) - 1; i >= 0; i-- {
		if s.t.open[i] == s.name {
			s.t.open = append(s.t.open[:i], s.t.open[i+1:]...)
			break
		}
	}
	if len(s.t.spans) < maxSpans {
		s.t.spans = append(s.t.spans, spanRec{name: s.name, cat: s.cat, start: s.start, dur: dur, depth: s.depth, alloc: alloc})
	} else {
		s.t.dropped++
	}
	s.t.mu.Unlock()
	s.t.Histogram(s.name).Observe(dur)
	return dur
}

// CurrentSpan returns the name of the innermost span currently open on
// the tracer, or "" when no span is open (or on a nil tracer). It is the
// live-introspection primitive: a polling dashboard can ask a job's
// tracer what stage it is in right now without waiting for the span to
// close.
func (t *Tracer) CurrentSpan() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.open) == 0 {
		return ""
	}
	return t.open[len(t.open)-1]
}

// SpanCount returns the number of retained spans.
func (t *Tracer) SpanCount() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// Dropped returns the number of spans discarded after the buffer filled.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a safe no-op handle) on a nil tracer; hot paths should cache the
// handle rather than re-resolving the name per operation.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.imu.Lock()
	defer t.imu.Unlock()
	c, ok := t.counts[name]
	if !ok {
		c = &Counter{}
		t.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil on
// a nil tracer.
func (t *Tracer) Gauge(name string) *Gauge {
	if t == nil {
		return nil
	}
	t.imu.Lock()
	defer t.imu.Unlock()
	g, ok := t.gauges[name]
	if !ok {
		g = &Gauge{}
		t.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration histogram, creating it on first
// use. Returns nil on a nil tracer.
func (t *Tracer) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.imu.Lock()
	defer t.imu.Unlock()
	h, ok := t.hists[name]
	if !ok {
		h = &Histogram{}
		t.hists[name] = h
	}
	return h
}

// Info returns the named string-valued instrument, creating it on first
// use. Returns nil (a safe no-op handle) on a nil tracer. Infos carry
// run-progress identity (current cell, scale name) that has no numeric
// representation; they surface in /status JSON and as Prometheus info
// metrics.
func (t *Tracer) Info(name string) *Info {
	if t == nil {
		return nil
	}
	t.imu.Lock()
	defer t.imu.Unlock()
	i, ok := t.infos[name]
	if !ok {
		i = &Info{}
		t.infos[name] = i
	}
	return i
}
