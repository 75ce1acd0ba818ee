package obs

import (
	"math"
	"math/bits"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. All methods are
// safe on a nil receiver (the disabled state handed out by a nil Tracer).
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (zero on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic last-value instrument that additionally tracks the
// extrema of everything it has observed. All methods are safe on a nil
// receiver.
type Gauge struct {
	mu       sync.Mutex
	last     float64
	min, max float64
	n        int64
}

// Set records a new value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.mu.Lock()
	if g.n == 0 || v < g.min {
		g.min = v
	}
	if g.n == 0 || v > g.max {
		g.max = v
	}
	g.last = v
	g.n++
	g.mu.Unlock()
}

// Value returns the last set value (zero on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last
}

// stats returns (last, min, max, n) atomically.
func (g *Gauge) stats() (last, min, max float64, n int64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.last, g.min, g.max, g.n
}

// Info is an atomic last-value instrument for strings: run-progress
// identity like the cell currently training. All methods are safe on a
// nil receiver.
type Info struct {
	mu   sync.Mutex
	last string
	n    int64
}

// Set records a new value.
func (i *Info) Set(v string) {
	if i == nil {
		return
	}
	i.mu.Lock()
	i.last = v
	i.n++
	i.mu.Unlock()
}

// Value returns the last set value (empty on a nil receiver).
func (i *Info) Value() string {
	if i == nil {
		return ""
	}
	i.mu.Lock()
	defer i.mu.Unlock()
	return i.last
}

// Histogram bucket geometry: durations are bucketed by octave (power of
// two of the nanosecond value) with histSub linear sub-buckets per octave,
// giving a constant-time streaming histogram whose quantile estimates
// carry at most ~1/histSub relative error — ample for p50/p95/p99
// reporting of phase durations.
const (
	histSub     = 8
	histOctaves = 64
	histBuckets = histOctaves * histSub
)

// bucketIndex maps a nanosecond duration to its bucket.
func bucketIndex(ns int64) int {
	if ns <= 0 {
		return 0
	}
	oct := bits.Len64(uint64(ns)) - 1 // floor(log2(ns))
	lo := int64(1) << uint(oct)       // bucket octave start
	sub := 0
	if oct > 0 {
		sub = int((ns - lo) * histSub / lo)
		if sub >= histSub {
			sub = histSub - 1
		}
	}
	i := oct*histSub + sub
	if i >= histBuckets {
		i = histBuckets - 1
	}
	return i
}

// bucketMid returns a representative duration (the sub-bucket midpoint)
// for quantile interpolation.
func bucketMid(i int) int64 {
	oct := i / histSub
	sub := i % histSub
	lo := int64(1) << uint(oct)
	// Mirror bucketIndex's floor arithmetic: the bucket starts at
	// lo + sub·lo/histSub and is lo/histSub wide (degenerating to the
	// octave start for octaves narrower than histSub).
	offset := int64(sub) * lo / histSub
	width := lo / histSub
	return lo + offset + width/2
}

// Histogram is a streaming duration histogram: constant-time Observe,
// exact count/sum/min/max, approximate quantiles from log-spaced buckets.
// All methods are safe on a nil receiver.
type Histogram struct {
	mu      sync.Mutex
	buckets [histBuckets]int64
	count   int64
	sum     int64
	min     int64
	max     int64
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.mu.Lock()
	h.buckets[bucketIndex(ns)]++
	if h.count == 0 || ns < h.min {
		h.min = ns
	}
	if h.count == 0 || ns > h.max {
		h.max = ns
	}
	h.count++
	h.sum += ns
	h.mu.Unlock()
}

// Count returns the number of observations (zero on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// quantileLocked estimates the q-quantile (0 < q < 1) from the buckets,
// clamped to the observed [min, max].
func (h *Histogram) quantileLocked(q float64) int64 {
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	cum := int64(0)
	for i, c := range h.buckets {
		cum += c
		if cum >= rank {
			v := bucketMid(i)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Stats extracts a DurStats view of the histogram (the zero DurStats on
// a nil receiver).
func (h *Histogram) Stats() DurStats {
	if h == nil {
		return DurStats{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	s := DurStats{
		Count: h.count,
		SumNS: h.sum,
		MinNS: h.min,
		MaxNS: h.max,
		P50NS: h.quantileLocked(0.50),
		P95NS: h.quantileLocked(0.95),
		P99NS: h.quantileLocked(0.99),
	}
	s.buckets = h.buckets
	return s
}
