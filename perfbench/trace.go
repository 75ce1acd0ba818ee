package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// tracer records spans around the benchmark's calls into each layer. It
// keeps every span in memory and writes them as a Chrome trace at exit.
// A nil *tracer is the untraced mode: every method is a no-op, so the
// timed code paths are the same in both modes.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int32 // stack of open span indexes
	// values holds per-operation numbers that are not spans: server
	// headers, counter deltas, intervals measured by another clock.
	values map[string][]float64
}

// span is one recorded interval. Key names the metric the span's self
// time feeds (for example "data.next_ms.tf"); Parent is -1 for a root.
type span struct {
	Key    string
	Start  time.Duration
	Dur    time.Duration
	Parent int32
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), values: make(map[string][]float64)}
}

// value records one per-operation sample of a non-span metric.
func (t *tracer) value(key string, v float64) {
	if t == nil {
		return
	}
	t.values[key] = append(t.values[key], v)
}

// begin opens a span as a child of the innermost open span and returns
// its handle for end.
func (t *tracer) begin(key string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Key: key, Start: time.Since(t.epoch), Parent: parent})
	t.open = append(t.open, id)
	return id
}

// end closes the span opened by begin. Spans close in LIFO order.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].Dur = time.Since(t.epoch) - t.spans[id].Start
	t.open = t.open[:len(t.open)-1]
}

// selfTimes returns, for every root span, the self time of each key in
// its subtree: a span's duration minus the time its direct children
// cover, summed over the subtree's spans that carry the key. The result
// maps key to one sample per root span whose subtree holds the key.
func (t *tracer) selfTimes() map[string][]time.Duration {
	self := make([]time.Duration, len(t.spans))
	root := make([]int32, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.Dur
		if s.Parent >= 0 {
			self[s.Parent] -= s.Dur
			root[i] = root[s.Parent]
		} else {
			root[i] = int32(i)
		}
	}
	perRoot := make(map[int32]map[string]time.Duration)
	var order []int32
	for i, s := range t.spans {
		r := root[i]
		m := perRoot[r]
		if m == nil {
			m = make(map[string]time.Duration)
			perRoot[r] = m
			order = append(order, r)
		}
		m[s.Key] += self[i]
	}
	out := make(map[string][]time.Duration)
	for _, r := range order {
		for k, d := range perRoot[r] {
			out[k] = append(out[k], d)
		}
	}
	return out
}

// writeChrome writes the spans in Chrome trace_event format (complete
// events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			fmt.Fprint(w, ",")
		}
		name, _ := json.Marshal(s.Key)
		fmt.Fprintf(w, `{"name":%s,"ph":"X","ts":%.3f,"dur":%.3f,"pid":1,"tid":1}`,
			name, float64(s.Start.Nanoseconds())/1e3, float64(s.Dur.Nanoseconds())/1e3)
	}
	fmt.Fprint(w, "]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
