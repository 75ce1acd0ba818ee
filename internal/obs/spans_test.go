package obs_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestSpansExportPreservesNestingMetadata: the exported SpanInfo view must
// carry name, category, depth and a plausible duration for profiling.
func TestSpansExportPreservesNestingMetadata(t *testing.T) {
	tr := obs.New()
	outer := tr.Span("outer", "t")
	inner := tr.Span("inner", "t")
	time.Sleep(time.Millisecond)
	inner.End()
	outer.End()

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// End order: inner first.
	if spans[0].Name != "inner" || spans[1].Name != "outer" {
		t.Fatalf("span order = %q, %q", spans[0].Name, spans[1].Name)
	}
	if spans[0].Depth != 1 || spans[1].Depth != 0 {
		t.Fatalf("depths = %d, %d, want 1, 0", spans[0].Depth, spans[1].Depth)
	}
	if spans[0].Dur <= 0 || spans[1].Dur < spans[0].Dur {
		t.Fatalf("durations inconsistent: inner %v outer %v", spans[0].Dur, spans[1].Dur)
	}
	if spans[0].Start < spans[1].Start {
		t.Fatalf("inner started before outer: %v < %v", spans[0].Start, spans[1].Start)
	}
}

// TestNilTracerSpanAndProfilingSafe: the disabled state must be inert.
func TestNilTracerSpanAndProfilingSafe(t *testing.T) {
	var tr *obs.Tracer
	if tr.Spans() != nil {
		t.Fatal("nil tracer returned spans")
	}
	tr.EnableProfiling()
	if tr.OpSpan("x", "op").End() != 0 || tr.Spans() != nil {
		t.Fatal("nil tracer recorded an op span")
	}
	tr.Emit("x", nil)
	if tr.Events() != nil || tr.EventsDropped() != 0 {
		t.Fatal("nil tracer recorded events")
	}
	tr.Info("x").Set("y")
	if got := tr.Info("x").Value(); got != "" {
		t.Fatalf("nil info value = %q", got)
	}
}

// TestProfilingModeSamplesAlloc: with profiling on, a span that
// allocates must record a positive allocation delta.
func TestProfilingModeSamplesAlloc(t *testing.T) {
	tr := obs.New()
	tr.OpSpan("off", "op").End()
	if tr.SpanCount() != 0 {
		t.Fatal("op span recorded before profiling mode")
	}
	tr.EnableProfiling()
	sp := tr.OpSpan("alloc", "t")
	sink = make([]byte, 1<<20)
	sp.End()
	spans := tr.Spans()
	if len(spans) != 1 {
		t.Fatalf("got %d spans", len(spans))
	}
	if spans[0].AllocBytes < 1<<20 {
		t.Fatalf("span alloc delta = %d, want >= %d", spans[0].AllocBytes, 1<<20)
	}
}

// sink defeats dead-store elimination of the profiling-test allocation.
var sink []byte

// TestInfoInstrumentFlowsIntoSnapshot: Info values must appear in
// Snapshot.Infos, sorted by InfoNames, and survive Delta.
func TestInfoInstrumentFlowsIntoSnapshot(t *testing.T) {
	tr := obs.New()
	before := tr.Snapshot()
	tr.Info("suite.cell").Set("TF TF MNIST on MNIST @GPU")
	tr.Info("suite.scale").Set("test")
	snap := tr.Snapshot()
	if got := snap.Infos["suite.cell"]; got != "TF TF MNIST on MNIST @GPU" {
		t.Fatalf("info = %q", got)
	}
	names := snap.InfoNames()
	if len(names) != 2 || names[0] != "suite.cell" || names[1] != "suite.scale" {
		t.Fatalf("InfoNames = %v", names)
	}
	d := obs.Delta(before, snap)
	if d.Infos["suite.scale"] != "test" {
		t.Fatalf("delta lost infos: %v", d.Infos)
	}
	// Round-trip through JSON like RunResult telemetry does.
	b, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back obs.Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Infos["suite.cell"] != snap.Infos["suite.cell"] {
		t.Fatal("infos did not round-trip through JSON")
	}
}

// TestEventLogJSONL: events must export as one valid JSON object per
// line with ts_ns/type plus flattened fields, in emission order.
func TestEventLogJSONL(t *testing.T) {
	tr := obs.New()
	tr.Emit("run.start", map[string]any{"cell": "a"})
	tr.Emit("epoch", map[string]any{"cell": "a", "epoch": 1})
	tr.Emit("run.end", map[string]any{"cell": "a", "converged": true})

	var buf bytes.Buffer
	if err := obs.WriteEventsJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	var types []string
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		if _, ok := line["ts_ns"]; !ok {
			t.Fatalf("line missing ts_ns: %q", sc.Text())
		}
		typ, _ := line["type"].(string)
		types = append(types, typ)
		if line["cell"] != "a" {
			t.Fatalf("line missing flattened cell field: %q", sc.Text())
		}
	}
	if strings.Join(types, ",") != "run.start,epoch,run.end" {
		t.Fatalf("event order = %v", types)
	}
}
