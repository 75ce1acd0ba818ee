// Package profile turns the raw span stream recorded by internal/obs into
// an attribution profile: for every span name (suite phase, executor
// phase, individual op) the self wall time (time inside the span minus
// time inside its children), cumulative wall time, call count and
// allocation delta. This is the paper's "where did the time go" view —
// the per-layer breakdown that Bahrampour et al. show decides framework
// rankings — computed from the same spans the Chrome trace exports.
package profile

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/metrics"
	"repro/internal/obs"
)

// Entry aggregates every span sharing one name.
type Entry struct {
	// Name is the span name ("graph.forward", "layerwise.op.conv1").
	Name string `json:"name"`
	// Cat is the span category ("suite", "engine", "op", "data").
	Cat string `json:"cat"`
	// Count is the number of spans aggregated.
	Count int64 `json:"count"`
	// SelfNS is wall time spent inside these spans but outside their
	// children — the attribution metric. Summed over all entries it
	// equals the profile's attributed time exactly.
	SelfNS int64 `json:"self_ns"`
	// CumNS is total wall time inside these spans, children included.
	CumNS int64 `json:"cum_ns"`
	// AllocBytes is the summed allocation delta (profiling mode only).
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
}

// Profile is the aggregated attribution view of one span population.
type Profile struct {
	// WallNS spans the population: last span end minus first span start.
	WallNS int64
	// AttributedNS is the summed duration of root spans — the portion of
	// WallNS the instrumentation can account for.
	AttributedNS int64
	// Entries is sorted by SelfNS descending (ties by name).
	Entries []Entry

	// folded maps a ";"-joined root-to-leaf stack path to the self time
	// spent exactly at that path.
	folded map[string]*foldedStack
}

type foldedStack struct {
	selfNS int64
	count  int64
}

// open is one in-flight span during tree reconstruction.
type open struct {
	s       obs.SpanInfo
	childNS int64
	path    string
}

func (o *open) end() time.Duration { return o.s.Start + o.s.Dur }

// Build reconstructs the span tree from a flat span population and
// aggregates it. Spans recorded on one goroutine strictly nest, so
// nesting is recovered from time containment (with recorded depth
// breaking start-time ties). An empty population yields an empty profile.
func Build(spans []obs.SpanInfo) *Profile {
	p := &Profile{folded: make(map[string]*foldedStack)}
	if len(spans) == 0 {
		return p
	}
	sorted := make([]obs.SpanInfo, len(spans))
	copy(sorted, spans)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i], sorted[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth // parents open before children
		}
		return a.Dur > b.Dur
	})

	entries := make(map[string]*Entry)
	var stack []*open
	finish := func(o *open) {
		self := int64(o.s.Dur) - o.childNS
		if self < 0 {
			self = 0
		}
		e, ok := entries[o.s.Name]
		if !ok {
			e = &Entry{Name: o.s.Name, Cat: o.s.Cat}
			entries[o.s.Name] = e
		}
		e.Count++
		e.SelfNS += self
		e.CumNS += int64(o.s.Dur)
		e.AllocBytes += o.s.AllocBytes
		f, ok := p.folded[o.path]
		if !ok {
			f = &foldedStack{}
			p.folded[o.path] = f
		}
		f.selfNS += self
		f.count++
	}

	first := sorted[0].Start
	last := sorted[0].Start + sorted[0].Dur
	for i := range sorted {
		s := sorted[i]
		if end := s.Start + s.Dur; end > last {
			last = end
		}
		for len(stack) > 0 && stack[len(stack)-1].end() <= s.Start {
			finish(stack[len(stack)-1])
			stack = stack[:len(stack)-1]
		}
		o := &open{s: s, path: s.Name}
		if len(stack) > 0 {
			parent := stack[len(stack)-1]
			parent.childNS += int64(s.Dur)
			o.path = parent.path + ";" + s.Name
		} else {
			p.AttributedNS += int64(s.Dur)
		}
		stack = append(stack, o)
	}
	for len(stack) > 0 {
		finish(stack[len(stack)-1])
		stack = stack[:len(stack)-1]
	}

	p.WallNS = int64(last - first)
	p.Entries = make([]Entry, 0, len(entries))
	for _, e := range entries {
		p.Entries = append(p.Entries, *e)
	}
	sort.Slice(p.Entries, func(i, j int) bool {
		if p.Entries[i].SelfNS != p.Entries[j].SelfNS {
			return p.Entries[i].SelfNS > p.Entries[j].SelfNS
		}
		return p.Entries[i].Name < p.Entries[j].Name
	})
	return p
}

// CoveragePct is the fraction of wall time the profile attributes to
// spans, in percent. 100% means the root spans tile the whole window.
func (p *Profile) CoveragePct() float64 {
	if p.WallNS <= 0 {
		return 0
	}
	return 100 * float64(p.AttributedNS) / float64(p.WallNS)
}

// WriteTable renders the profile as the sorted text report served by
// dlbench -profile: a coverage header plus one row per span name.
func (p *Profile) WriteTable(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "Attribution profile: %s attributed of %s wall (%.1f%% coverage)\n\n",
		metrics.FormatDur(p.AttributedNS), metrics.FormatDur(p.WallNS), p.CoveragePct()); err != nil {
		return fmt.Errorf("profile: write header: %w", err)
	}
	tbl := metrics.NewTable("Span", "Cat", "Count", "Self", "Self%", "Cum", "Mean Self", "Alloc")
	for _, e := range p.Entries {
		selfPct := 0.0
		if p.WallNS > 0 {
			selfPct = 100 * float64(e.SelfNS) / float64(p.WallNS)
		}
		mean := int64(0)
		if e.Count > 0 {
			mean = e.SelfNS / e.Count
		}
		tbl.AddRow(e.Name, e.Cat,
			strconv.FormatInt(e.Count, 10),
			metrics.FormatDur(e.SelfNS),
			fmt.Sprintf("%.1f", selfPct),
			metrics.FormatDur(e.CumNS),
			metrics.FormatDur(mean),
			formatBytes(e.AllocBytes),
		)
	}
	if _, err := io.WriteString(w, tbl.String()); err != nil {
		return fmt.Errorf("profile: write table: %w", err)
	}
	return nil
}

// Write renders the profile in the named format: "table" (the default
// when empty), "csv", or "folded". This is the dispatch the CLI flags
// and the serve daemon's /jobs/{id}/profile?format= parameter share.
func (p *Profile) Write(w io.Writer, format string) error {
	switch format {
	case "", "table":
		return p.WriteTable(w)
	case "csv":
		return p.WriteCSV(w)
	case "folded":
		return p.WriteFolded(w)
	default:
		return fmt.Errorf("profile: unknown format %q (want table, csv or folded)", format)
	}
}

// WriteCSV renders the profile as flat CSV in the same order as the
// table.
func (p *Profile) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"span", "cat", "count", "self_ns", "cum_ns", "self_pct", "alloc_bytes"}); err != nil {
		return fmt.Errorf("profile: write csv header: %w", err)
	}
	for _, e := range p.Entries {
		selfPct := 0.0
		if p.WallNS > 0 {
			selfPct = 100 * float64(e.SelfNS) / float64(p.WallNS)
		}
		row := []string{
			e.Name, e.Cat,
			strconv.FormatInt(e.Count, 10),
			strconv.FormatInt(e.SelfNS, 10),
			strconv.FormatInt(e.CumNS, 10),
			strconv.FormatFloat(selfPct, 'f', 2, 64),
			strconv.FormatInt(e.AllocBytes, 10),
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("profile: write csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("profile: flush csv: %w", err)
	}
	return nil
}

// WriteFolded renders the profile in folded-stack format — one
// "a;b;c value" line per distinct stack path, value in microseconds of
// self time — directly consumable by flamegraph.pl and speedscope. Lines
// are sorted by path for deterministic output.
func (p *Profile) WriteFolded(w io.Writer) error {
	paths := make([]string, 0, len(p.folded))
	for path := range p.folded {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		f := p.folded[path]
		us := f.selfNS / 1e3
		if us == 0 && f.selfNS > 0 {
			us = 1 // sub-microsecond stacks still deserve a sample
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", path, us); err != nil {
			return fmt.Errorf("profile: write folded stack: %w", err)
		}
	}
	return nil
}

// formatBytes renders a byte count in binary units, "-" for zero (the
// common case when profiling-mode memory sampling was off).
func formatBytes(b int64) string {
	switch {
	case b == 0:
		return "-"
	case b >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(b)/(1<<10))
	default:
		return strconv.FormatInt(b, 10) + "B"
	}
}
