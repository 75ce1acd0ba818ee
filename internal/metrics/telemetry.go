package metrics

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
)

// TelemetryReport renders an obs snapshot as flat text tables (reusing
// Table): one per-span/duration summary ordered by total time, one
// counter table and one gauge table. An empty string is returned for a
// nil snapshot.
func TelemetryReport(s *obs.Snapshot) string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	if names := s.DurationNames(); len(names) > 0 {
		tbl := NewTable("Span/Histogram", "Count", "Total", "Mean", "P50", "P95", "P99", "Max")
		for _, name := range names {
			d := s.Durations[name]
			tbl.AddRow(name,
				strconv.FormatInt(d.Count, 10),
				FormatDur(d.SumNS),
				FormatDur(d.MeanNS()),
				FormatDur(d.P50NS),
				FormatDur(d.P95NS),
				FormatDur(d.P99NS),
				FormatDur(d.MaxNS),
			)
		}
		b.WriteString("Durations (per span name / histogram)\n\n")
		b.WriteString(tbl.String())
	}
	if names := s.CounterNames(); len(names) > 0 {
		tbl := NewTable("Counter", "Value")
		for _, name := range names {
			tbl.AddRow(name, strconv.FormatInt(s.Counters[name], 10))
		}
		if b.Len() > 0 {
			b.WriteString("\n")
		}
		b.WriteString("Counters\n\n")
		b.WriteString(tbl.String())
	}
	if names := s.GaugeNames(); len(names) > 0 {
		tbl := NewTable("Gauge", "Last", "Min", "Max", "Samples")
		for _, name := range names {
			g := s.Gauges[name]
			tbl.AddRow(name,
				fmt.Sprintf("%.4g", g.Last),
				fmt.Sprintf("%.4g", g.Min),
				fmt.Sprintf("%.4g", g.Max),
				strconv.FormatInt(g.N, 10),
			)
		}
		if b.Len() > 0 {
			b.WriteString("\n")
		}
		b.WriteString("Gauges\n\n")
		b.WriteString(tbl.String())
	}
	if names := s.InfoNames(); len(names) > 0 {
		tbl := NewTable("Info", "Value")
		for _, name := range names {
			tbl.AddRow(name, s.Infos[name])
		}
		if b.Len() > 0 {
			b.WriteString("\n")
		}
		b.WriteString("Infos\n\n")
		b.WriteString(tbl.String())
	}
	return b.String()
}

// FormatDur renders nanoseconds with a duration-appropriate unit, the way
// time.Duration prints but capped at µs precision for readability.
func FormatDur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	case d >= time.Microsecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
