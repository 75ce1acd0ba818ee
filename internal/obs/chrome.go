package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// ChromeEvent is one trace_event record in Chrome's JSON Object Format.
// Only the "X" (complete) phase is emitted: begin timestamp plus
// duration, with nesting inferred by the viewer from time containment.
// See the Trace Event Format spec (Chromium docs); files load directly in
// chrome://tracing and Perfetto.
type ChromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds since trace epoch
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace is the top-level JSON Object Format document.
type ChromeTrace struct {
	TraceEvents     []ChromeEvent  `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"otherData,omitempty"`
}

// WriteChromeTrace exports every retained span (plus a final metadata
// record of the counters) as a Chrome trace_event JSON document.
// Resource-monitor samples in the event log additionally export as "C"
// (counter) records, so heap/goroutine/CPU series render as tracks on
// the same timeline as the spans they correlate with.
func WriteChromeTrace(w io.Writer, t *Tracer) error {
	if t == nil {
		return fmt.Errorf("obs: cannot export a nil tracer")
	}
	t.mu.Lock()
	events := make([]ChromeEvent, 0, len(t.spans))
	for _, s := range t.spans {
		events = append(events, ChromeEvent{
			Name: s.name,
			Cat:  s.cat,
			Ph:   "X",
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64(s.dur.Nanoseconds()) / 1e3,
			PID:  1,
			// Spans are timed on the suite's single training goroutine;
			// the depth recorded at open time is surfaced for tooling but
			// the viewer nests by time containment.
			TID:  1,
			Args: map[string]any{"depth": s.depth},
		})
	}
	dropped := t.dropped
	t.mu.Unlock()

	for _, ev := range t.Events() {
		if !strings.HasPrefix(ev.Type, "monitor.") {
			continue
		}
		args := make(map[string]any, len(ev.Fields))
		for k, v := range ev.Fields {
			if n, ok := numericArg(v); ok {
				args[k] = n
			}
		}
		if len(args) == 0 {
			continue
		}
		events = append(events, ChromeEvent{
			Name: ev.Type,
			Cat:  "monitor",
			Ph:   "C",
			TS:   float64(ev.NS) / 1e3,
			PID:  1,
			TID:  1,
			Args: args,
		})
	}

	doc := ChromeTrace{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
		Metadata:        map[string]any{"droppedSpans": dropped},
	}
	if snap := t.Snapshot(); snap != nil {
		if len(snap.Counters) > 0 {
			counters := make(map[string]any, len(snap.Counters))
			for k, v := range snap.Counters {
				counters[k] = v
			}
			doc.Metadata["counters"] = counters
		}
		// A per-job tracer carries its job ID as the scope.id info;
		// exporting it lets a downloaded trace name the job it came from.
		if id, ok := snap.Infos["scope.id"]; ok && id != "" {
			doc.Metadata["scopeID"] = id
		}
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(doc); err != nil {
		return fmt.Errorf("obs: write chrome trace: %w", err)
	}
	return nil
}

// numericArg converts an event field to a counter value. Counter tracks
// only render numbers; anything else is dropped from the record.
func numericArg(v any) (float64, bool) {
	switch n := v.(type) {
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	case uint64:
		return float64(n), true
	case float64:
		return n, true
	default:
		return 0, false
	}
}
