package obs

import (
	"runtime"
	"time"
)

// SpanInfo is the exported, immutable view of one recorded span, the raw
// material of the attribution profiler (internal/profile). Times are
// relative to the tracer epoch on the monotonic clock.
type SpanInfo struct {
	Name  string
	Cat   string
	Start time.Duration
	Dur   time.Duration
	Depth int
	// AllocBytes is the heap-allocation delta (runtime.MemStats.TotalAlloc)
	// observed across the span. Zero unless profiling mode sampled memory
	// around the span; negative never occurs (TotalAlloc is monotonic).
	AllocBytes int64
}

// Spans returns a snapshot copy of every retained span in end order.
// Returns nil on a nil tracer.
func (t *Tracer) Spans() []SpanInfo {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanInfo, len(t.spans))
	for i, s := range t.spans {
		out[i] = SpanInfo{
			Name:       s.name,
			Cat:        s.cat,
			Start:      s.start,
			Dur:        s.dur,
			Depth:      int(s.depth),
			AllocBytes: s.alloc,
		}
	}
	return out
}

// EnableProfiling switches the tracer into profiling mode: OpSpan opens
// real spans, and every span open/close samples runtime.MemStats so
// span records carry allocation deltas. Profiling costs real time
// (ReadMemStats briefly stops the world), so it is opt-in on top of
// tracing; a nil tracer ignores the call.
func (t *Tracer) EnableProfiling() {
	if t == nil {
		return
	}
	t.profiling.Store(true)
}

// OpSpan opens a per-op dispatch span: Span in profiling mode, the zero
// Span otherwise. One span per op dispatch would dominate the span
// buffer on long sweeps, so executors open every dispatch through here
// and pay a nil check plus one atomic load when not profiling.
func (t *Tracer) OpSpan(name, cat string) Span {
	if t == nil || !t.profiling.Load() {
		return Span{}
	}
	return t.Span(name, cat)
}

// memSample returns the allocator's monotonic total-allocated counter
// for span deltas.
func (t *Tracer) memSample() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}
