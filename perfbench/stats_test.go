package main

import "testing"

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, tc := range []struct {
		vals []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 99, 7},
		{ten, 0, 1},
		{ten, 50, 5},
		{ten, 90, 9},
		{ten, 99, 10},
		{ten, 100, 10},
		{[]float64{1, 2, 3, 4}, 50, 2},
		{[]float64{1, 2, 3}, 50, 2},
	} {
		if got := percentile(tc.vals, tc.p); got != tc.want {
			t.Errorf("percentile(%v, %g) = %g, want %g", tc.vals, tc.p, got, tc.want)
		}
	}
	if ten[0] != 10 {
		t.Error("percentile reordered its input")
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		want bool
	}{
		{1000, 99, true},
		{999, 99, true}, // nearest rank 989 leaves 10 beyond
		{950, 99, false},
		{100, 90, true},
		{94, 90, false},
		{20, 50, true},
	} {
		if got := tailSupported(tc.n, tc.p); got != tc.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", tc.n, tc.p, got, tc.want)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op.tf")
	child := tr.begin("engine.step_ms.tf")
	grand := tr.begin("nn.fwd_ms.conv.tf")
	tr.end(grand)
	tr.end(child)
	tr.end(root)
	// Fix the durations so the arithmetic is exact.
	tr.spans[root].Dur, tr.spans[child].Dur, tr.spans[grand].Dur = 100, 60, 25
	got := tr.selfTimes()
	for key, want := range map[string]int64{"op.tf": 40, "engine.step_ms.tf": 35, "nn.fwd_ms.conv.tf": 25} {
		if len(got[key]) != 1 || int64(got[key][0]) != want {
			t.Errorf("self time of %s = %v, want [%d]", key, got[key], want)
		}
	}
}
