package main

import (
	"sort"
	"time"
)

// percentile returns the nearest-rank percentile of vals, the definition
// core.InferSweep and `dlbench -mode infer` use: the value at rank
// round(p/100·n) (1-based), clamped to [1, n]. It returns 0 for no
// samples. vals is not modified.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	rank := int(p/100*float64(len(sorted))+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// median is the nearest-rank 50th percentile.
func median(vals []float64) float64 { return percentile(vals, 50) }

// opPercentile is the percentile of a run's operation times that the
// op_ms metrics report. Contention from other tenants of the host comes
// in bursts of seconds to minutes that slow every operation by 10–50%.
// A run's median moves with the share of the run a burst covers, so two
// runs of the same code can differ by a third; the 10th percentile stays
// with the uncontended speed unless a burst covers ~90% of the run.
const opPercentile = 10

// tailSupported reports whether the p-th percentile of n samples has at
// least ten samples beyond it, the least a printed tail may rest on.
func tailSupported(n int, p float64) bool {
	rank := int(p/100*float64(n) + 0.5) // the nearest rank, 1-based
	return n-rank >= 10
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// durMS converts durations to milliseconds.
func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
