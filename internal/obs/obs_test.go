package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Span("x", "test")
	sp.End()
	tr.Counter("c").Add(5)
	tr.Counter("c").Inc()
	tr.Gauge("g").Set(1.5)
	tr.Histogram("h").Observe(time.Millisecond)
	if got := tr.Counter("c").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	if got := tr.Gauge("g").Value(); got != 0 {
		t.Fatalf("nil gauge value = %v", got)
	}
	if got := tr.Histogram("h").Count(); got != 0 {
		t.Fatalf("nil histogram count = %d", got)
	}
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer snapshot must be nil")
	}
	if tr.SpanCount() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must report zero spans")
	}
	if err := WriteChromeTrace(&bytes.Buffer{}, tr); err == nil {
		t.Fatal("exporting a nil tracer must error")
	}
}

func TestSpansNestAndRecord(t *testing.T) {
	tr := New()
	outer := tr.Span("outer", "test")
	inner := tr.Span("inner", "test")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()
	if got := tr.SpanCount(); got != 2 {
		t.Fatalf("span count = %d, want 2", got)
	}
	// End order: inner first, at depth 1; outer second, at depth 0.
	tr.mu.Lock()
	spans := append([]spanRec(nil), tr.spans...)
	tr.mu.Unlock()
	if spans[0].name != "inner" || spans[0].depth != 1 {
		t.Fatalf("first recorded span = %q depth %d, want inner at depth 1", spans[0].name, spans[0].depth)
	}
	if spans[1].name != "outer" || spans[1].depth != 0 {
		t.Fatalf("second recorded span = %q depth %d, want outer at depth 0", spans[1].name, spans[1].depth)
	}
	if spans[1].dur < spans[0].dur {
		t.Fatalf("outer dur %v < inner dur %v", spans[1].dur, spans[0].dur)
	}
	// Every span feeds the histogram registered under its name.
	if got := tr.Histogram("inner").Count(); got != 1 {
		t.Fatalf("inner histogram count = %d, want 1", got)
	}
}

func TestCounterGaugeHistogram(t *testing.T) {
	tr := New()
	c := tr.Counter("dispatches")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if tr.Counter("dispatches") != c {
		t.Fatal("counter registry must return the same handle")
	}
	g := tr.Gauge("loss")
	g.Set(2.5)
	g.Set(0.5)
	g.Set(1.0)
	last, min, max, n := g.stats()
	if last != 1.0 || min != 0.5 || max != 2.5 || n != 3 {
		t.Fatalf("gauge stats = (%v,%v,%v,%d)", last, min, max, n)
	}
	h := tr.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	s := h.Stats()
	if s.Count != 100 {
		t.Fatalf("histogram count = %d", s.Count)
	}
	if s.MinNS != int64(time.Microsecond) || s.MaxNS != int64(100*time.Microsecond) {
		t.Fatalf("extrema = [%d,%d]", s.MinNS, s.MaxNS)
	}
	// The log-bucketed quantiles carry at most ~1/histSub relative error.
	checkApprox(t, "p50", s.P50NS, int64(50*time.Microsecond), 0.25)
	checkApprox(t, "p95", s.P95NS, int64(95*time.Microsecond), 0.25)
	checkApprox(t, "p99", s.P99NS, int64(99*time.Microsecond), 0.25)
	// Mean is exact (sum/count): (1+...+100)/100 = 50.5 µs.
	if mean := s.MeanNS(); mean != int64(50500) {
		t.Fatalf("mean = %d ns, want 50500", mean)
	}
}

func checkApprox(t *testing.T, what string, got, want int64, tol float64) {
	t.Helper()
	lo := float64(want) * (1 - tol)
	hi := float64(want) * (1 + tol)
	if float64(got) < lo || float64(got) > hi {
		t.Fatalf("%s = %d, want within %.0f%% of %d", what, got, tol*100, want)
	}
}

func TestBucketIndexMonotone(t *testing.T) {
	prev := -1
	for _, ns := range []int64{0, 1, 2, 3, 7, 8, 100, 1000, 1e6, 1e9, 1e12} {
		i := bucketIndex(ns)
		if i < prev {
			t.Fatalf("bucketIndex(%d) = %d < previous %d", ns, i, prev)
		}
		prev = i
	}
	// For any observed value, the midpoint of its bucket must map back to
	// the same (or an adjacent) bucket — the quantile estimate stays
	// within one sub-bucket of the data.
	for _, ns := range []int64{1, 2, 3, 5, 17, 100, 999, 4096, 1e6, 7e8, 1e12} {
		i := bucketIndex(ns)
		mid := bucketMid(i)
		if j := bucketIndex(mid); j < i-1 || j > i+1 {
			t.Fatalf("bucketMid(bucketIndex(%d)) = %d maps to bucket %d, not %d±1", ns, mid, j, i)
		}
	}
}

func TestSnapshotAndDelta(t *testing.T) {
	tr := New()
	tr.Counter("ops").Add(10)
	tr.Gauge("loss").Set(3.0)
	tr.Histogram("step").Observe(time.Millisecond)
	before := tr.Snapshot()

	tr.Counter("ops").Add(5)
	tr.Counter("fresh").Add(2)
	tr.Gauge("loss").Set(1.0)
	tr.Histogram("step").Observe(2 * time.Millisecond)
	tr.Histogram("step").Observe(3 * time.Millisecond)
	after := tr.Snapshot()

	if after.Counters["ops"] != 15 || after.Durations["step"].Count != 3 {
		t.Fatalf("cumulative snapshot wrong: %+v", after)
	}

	d := Delta(before, after)
	if d.Counters["ops"] != 5 || d.Counters["fresh"] != 2 {
		t.Fatalf("delta counters = %v", d.Counters)
	}
	if _, ok := d.Counters["unchanged"]; ok {
		t.Fatal("unchanged counters must be omitted from deltas")
	}
	if d.Gauges["loss"].Last != 1.0 {
		t.Fatalf("delta gauge = %+v", d.Gauges["loss"])
	}
	step := d.Durations["step"]
	if step.Count != 2 {
		t.Fatalf("delta duration count = %d, want 2", step.Count)
	}
	if step.SumNS != int64(5*time.Millisecond) {
		t.Fatalf("delta duration sum = %d", step.SumNS)
	}
	if Delta(nil, after) != after {
		t.Fatal("Delta(nil, cur) must return cur")
	}
	if Delta(before, nil) != nil {
		t.Fatal("Delta(prev, nil) must return nil")
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	tr := New()
	tr.Counter("ops").Add(7)
	tr.Gauge("acc").Set(99.1)
	tr.Histogram("iter").Observe(time.Millisecond)
	s := tr.Snapshot()
	raw, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["ops"] != 7 {
		t.Fatalf("round-tripped counter = %d", back.Counters["ops"])
	}
	if back.Gauges["acc"].Last != 99.1 {
		t.Fatalf("round-tripped gauge = %+v", back.Gauges["acc"])
	}
	if back.Durations["iter"].Count != 1 || back.Durations["iter"].P50NS == 0 {
		t.Fatalf("round-tripped duration = %+v", back.Durations["iter"])
	}
}

func TestDurationNamesSortedByTotal(t *testing.T) {
	tr := New()
	tr.Histogram("small").Observe(time.Microsecond)
	tr.Histogram("big").Observe(time.Second)
	s := tr.Snapshot()
	names := s.DurationNames()
	if len(names) != 2 || names[0] != "big" || names[1] != "small" {
		t.Fatalf("names = %v", names)
	}
}

func TestSpanBufferCap(t *testing.T) {
	tr := New()
	tr.mu.Lock()
	tr.spans = make([]spanRec, maxSpans)
	tr.mu.Unlock()
	tr.Span("overflow", "test").End()
	if got := tr.Dropped(); got != 1 {
		t.Fatalf("dropped = %d, want 1", got)
	}
	if got := tr.SpanCount(); got != maxSpans {
		t.Fatalf("span count grew past cap: %d", got)
	}
}

func TestWriteChromeTraceFormat(t *testing.T) {
	tr := New()
	sp := tr.Span("forward", "engine")
	time.Sleep(100 * time.Microsecond)
	sp.End()
	tr.Counter("dispatches").Add(9)
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// The file must parse as the Chrome trace_event JSON Object Format.
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("trace events = %d, want 1", len(doc.TraceEvents))
	}
	ev := doc.TraceEvents[0]
	if ev["name"] != "forward" || ev["cat"] != "engine" || ev["ph"] != "X" {
		t.Fatalf("event fields wrong: %v", ev)
	}
	for _, k := range []string{"ts", "dur", "pid", "tid"} {
		if _, ok := ev[k].(float64); !ok {
			t.Fatalf("event missing numeric %q: %v", k, ev)
		}
	}
	if ev["dur"].(float64) < 50 {
		t.Fatalf("dur = %v µs, want >= 50", ev["dur"])
	}
}

// TestWriteChromeTraceMonitorCounters: monitor.* events export as "C"
// counter records with only their numeric fields, on the span timeline.
func TestWriteChromeTraceMonitorCounters(t *testing.T) {
	tr := New()
	tr.Span("train", "suite").End()
	tr.Emit("monitor.sample", map[string]any{
		"heap_inuse_bytes": uint64(1 << 20),
		"cpu_pct":          42.5,
		"goroutines":       int64(8),
		"note":             "not numeric",
	})
	tr.Emit("run.start", map[string]any{"cell": "x"}) // not a monitor event
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	var counters int
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "C" {
			continue
		}
		counters++
		if ev.Name != "monitor.sample" || ev.Cat != "monitor" {
			t.Fatalf("counter event = %+v", ev)
		}
		for _, k := range []string{"heap_inuse_bytes", "cpu_pct", "goroutines"} {
			if _, ok := ev.Args[k].(float64); !ok {
				t.Errorf("counter missing numeric arg %q: %v", k, ev.Args)
			}
		}
		if _, ok := ev.Args["note"]; ok {
			t.Error("non-numeric field leaked into counter args")
		}
	}
	if counters != 1 {
		t.Fatalf("counter events = %d, want 1 (run.start must not export)", counters)
	}
}

// TestSpanEndReturnsRecordedDuration: End hands back exactly the
// duration the span record (and so the Chrome trace) carries, so callers
// that need the number never run a second clock.
func TestSpanEndReturnsRecordedDuration(t *testing.T) {
	tr := New()
	sp := tr.Span("work", "test")
	time.Sleep(time.Millisecond)
	d := sp.End()
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Dur != d {
		t.Fatalf("End returned %v, recorded spans %+v", d, spans)
	}
	if d < time.Millisecond {
		t.Fatalf("End returned %v, want >= 1ms", d)
	}
	var nilTr *Tracer
	if d := nilTr.Span("x", "test").End(); d != 0 {
		t.Fatalf("nil tracer span End = %v, want 0", d)
	}
}

func TestCurrentSpanTracksOpenStack(t *testing.T) {
	tr := New()
	if got := tr.CurrentSpan(); got != "" {
		t.Fatalf("CurrentSpan on idle tracer = %q, want empty", got)
	}
	outer := tr.Span("outer", "test")
	if got := tr.CurrentSpan(); got != "outer" {
		t.Fatalf("CurrentSpan = %q, want outer", got)
	}
	inner := tr.Span("inner", "test")
	if got := tr.CurrentSpan(); got != "inner" {
		t.Fatalf("CurrentSpan = %q, want inner", got)
	}
	inner.End()
	if got := tr.CurrentSpan(); got != "outer" {
		t.Fatalf("CurrentSpan after inner End = %q, want outer", got)
	}
	outer.End()
	if got := tr.CurrentSpan(); got != "" {
		t.Fatalf("CurrentSpan after all spans closed = %q, want empty", got)
	}

	var nilTr *Tracer
	if got := nilTr.CurrentSpan(); got != "" {
		t.Fatalf("nil tracer CurrentSpan = %q, want empty", got)
	}
}

func TestCurrentSpanOutOfOrderEnd(t *testing.T) {
	tr := New()
	a := tr.Span("a", "test")
	b := tr.Span("b", "test")
	a.End() // closes out of LIFO order
	if got := tr.CurrentSpan(); got != "b" {
		t.Fatalf("CurrentSpan after out-of-order End = %q, want b", got)
	}
	b.End()
	if got := tr.CurrentSpan(); got != "" {
		t.Fatalf("CurrentSpan = %q, want empty", got)
	}
}

func TestEventSeqMonotonicAndGapOnDrop(t *testing.T) {
	tr := New()
	for i := 0; i < 3; i++ {
		tr.Emit("tick", nil)
	}
	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if want := int64(i + 1); ev.Seq != want {
			t.Fatalf("event %d Seq = %d, want %d", i, ev.Seq, want)
		}
	}
	line, err := EventLine(evs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(line), `"seq":3`) {
		t.Fatalf("EventLine missing seq field: %s", line)
	}
}

func TestEventSeqCountsDroppedEvents(t *testing.T) {
	tr := New()
	for i := 0; i < maxEvents+5; i++ {
		tr.Emit("flood", nil)
	}
	if got := tr.EventsDropped(); got != 5 {
		t.Fatalf("EventsDropped = %d, want 5", got)
	}
	// A post-flood emit would take seq maxEvents+6; the retained log ends
	// at maxEvents, so seq numbering exposes exactly the dropped range.
	evs := tr.Events()
	if got := evs[len(evs)-1].Seq; got != int64(maxEvents) {
		t.Fatalf("last retained Seq = %d, want %d", got, maxEvents)
	}
}

func TestChromeTraceCarriesScopeID(t *testing.T) {
	tr := New()
	tr.Info("scope.id").Set("j-42")
	sp := tr.Span("work", "test")
	sp.End()
	var sb strings.Builder
	if err := WriteChromeTrace(&sb, tr); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `"scopeID":"j-42"`) {
		t.Fatalf("chrome trace missing scopeID metadata: %s", sb.String())
	}
}
