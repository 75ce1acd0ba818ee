package profile

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// span is a test helper constructing a SpanInfo with millisecond times.
func span(name, cat string, startMS, durMS, depth int) obs.SpanInfo {
	return obs.SpanInfo{
		Name:  name,
		Cat:   cat,
		Start: time.Duration(startMS) * time.Millisecond,
		Dur:   time.Duration(durMS) * time.Millisecond,
		Depth: depth,
	}
}

// synthetic population:
//
//	run [0,100)
//	  fwd [10,40)
//	    op.a [12,20)   op.a [22,30)
//	  bwd [50,90)
//	    op.a [55,65)
func syntheticSpans() []obs.SpanInfo {
	return []obs.SpanInfo{
		// end order, as the tracer records them
		span("op.a", "op", 12, 8, 2),
		span("op.a", "op", 22, 8, 2),
		span("fwd", "engine", 10, 30, 1),
		span("op.a", "op", 55, 10, 2),
		span("bwd", "engine", 50, 40, 1),
		span("run", "suite", 0, 100, 0),
	}
}

func entryByName(t *testing.T, p *Profile, name string) Entry {
	t.Helper()
	for _, e := range p.Entries {
		if e.Name == name {
			return e
		}
	}
	t.Fatalf("entry %q not found in %+v", name, p.Entries)
	return Entry{}
}

func TestBuildSelfVsCumulativeAttribution(t *testing.T) {
	p := Build(syntheticSpans())
	ms := int64(time.Millisecond)

	run := entryByName(t, p, "run")
	if run.CumNS != 100*ms {
		t.Fatalf("run cum = %d, want %d", run.CumNS, 100*ms)
	}
	// run self = 100 - fwd(30) - bwd(40) = 30ms
	if run.SelfNS != 30*ms {
		t.Fatalf("run self = %d, want %d", run.SelfNS, 30*ms)
	}
	fwd := entryByName(t, p, "fwd")
	if fwd.SelfNS != 14*ms { // 30 - 8 - 8
		t.Fatalf("fwd self = %d, want %d", fwd.SelfNS, 14*ms)
	}
	opA := entryByName(t, p, "op.a")
	if opA.Count != 3 || opA.SelfNS != 26*ms || opA.CumNS != 26*ms {
		t.Fatalf("op.a = %+v", opA)
	}

	// Self times must partition attributed time exactly.
	var selfSum int64
	for _, e := range p.Entries {
		selfSum += e.SelfNS
	}
	if selfSum != p.AttributedNS {
		t.Fatalf("self sum %d != attributed %d", selfSum, p.AttributedNS)
	}
	if p.WallNS != 100*ms || p.AttributedNS != 100*ms {
		t.Fatalf("wall %d attributed %d", p.WallNS, p.AttributedNS)
	}
	if got := p.CoveragePct(); got != 100 {
		t.Fatalf("coverage = %v", got)
	}
	// Entries sorted by self desc: run(30) > op.a(26) > bwd(30)? bwd self = 40-10=30.
	if p.Entries[len(p.Entries)-1].Name != "op.a" && p.Entries[0].SelfNS < p.Entries[len(p.Entries)-1].SelfNS {
		t.Fatalf("entries not sorted by self desc: %+v", p.Entries)
	}
	for i := 1; i < len(p.Entries); i++ {
		if p.Entries[i].SelfNS > p.Entries[i-1].SelfNS {
			t.Fatalf("entries not sorted: %+v", p.Entries)
		}
	}
}

func TestBuildCoverageWithGaps(t *testing.T) {
	// Two roots covering 60 of 100ms.
	p := Build([]obs.SpanInfo{
		span("a", "t", 0, 40, 0),
		span("b", "t", 80, 20, 0),
	})
	if p.WallNS != int64(100*time.Millisecond) {
		t.Fatalf("wall = %d", p.WallNS)
	}
	if got := p.CoveragePct(); got != 60 {
		t.Fatalf("coverage = %v, want 60", got)
	}
}

func TestFoldedStacksRenderSortedPaths(t *testing.T) {
	p := Build(syntheticSpans())
	var buf bytes.Buffer
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		"run 30000",
		"run;bwd 30000",
		"run;bwd;op.a 10000",
		"run;fwd 14000",
		"run;fwd;op.a 16000",
	}
	if len(lines) != len(want) {
		t.Fatalf("got %d folded lines %v, want %d", len(lines), lines, len(want))
	}
	for i, w := range want {
		if lines[i] != w {
			t.Fatalf("folded line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestWriteTableAndCSV(t *testing.T) {
	p := Build(syntheticSpans())
	var tblBuf bytes.Buffer
	if err := p.WriteTable(&tblBuf); err != nil {
		t.Fatal(err)
	}
	out := tblBuf.String()
	for _, want := range []string{"coverage", "op.a", "run", "Self%"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
	var csvBuf bytes.Buffer
	if err := p.WriteCSV(&csvBuf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csvBuf.String()), "\n")
	if lines[0] != "span,cat,count,self_ns,cum_ns,self_pct,alloc_bytes" {
		t.Fatalf("csv header = %q", lines[0])
	}
	if len(lines) != 1+len(p.Entries) {
		t.Fatalf("csv has %d lines for %d entries", len(lines), len(p.Entries))
	}
}

func TestBuildFromLiveTracer(t *testing.T) {
	tr := obs.New()
	root := tr.Span("root", "t")
	child := tr.Span("child", "t")
	time.Sleep(2 * time.Millisecond)
	child.End()
	root.End()
	p := Build(tr.Spans())
	if len(p.Entries) != 2 {
		t.Fatalf("entries = %+v", p.Entries)
	}
	if got := p.CoveragePct(); got < 99 {
		t.Fatalf("single-root coverage = %v, want ~100", got)
	}
	c := entryByName(t, p, "child")
	r := entryByName(t, p, "root")
	if c.SelfNS <= 0 || r.SelfNS < 0 || r.CumNS < c.CumNS {
		t.Fatalf("child %+v root %+v", c, r)
	}
}

func TestBuildEmpty(t *testing.T) {
	p := Build(nil)
	if p.WallNS != 0 || len(p.Entries) != 0 || p.CoveragePct() != 0 {
		t.Fatalf("empty profile = %+v", p)
	}
	var buf bytes.Buffer
	if err := p.WriteTable(&buf); err != nil {
		t.Fatal(err)
	}
	if err := p.WriteFolded(&buf); err != nil {
		t.Fatal(err)
	}
}
