package metrics

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestAccuracy(t *testing.T) {
	tests := []struct {
		name    string
		preds   []int
		labels  []int
		want    float64
		wantErr bool
	}{
		{name: "all correct", preds: []int{1, 2, 3}, labels: []int{1, 2, 3}, want: 100},
		{name: "half", preds: []int{1, 0}, labels: []int{1, 1}, want: 50},
		{name: "none", preds: []int{0}, labels: []int{1}, want: 0},
		{name: "mismatch", preds: []int{1}, labels: []int{1, 2}, wantErr: true},
		{name: "empty", preds: nil, labels: nil, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := Accuracy(tt.preds, tt.labels)
			if (err != nil) != tt.wantErr {
				t.Fatalf("err = %v", err)
			}
			if err == nil && math.Abs(got-tt.want) > 1e-12 {
				t.Fatalf("Accuracy = %v, want %v", got, tt.want)
			}
		})
	}
	if _, err := Accuracy([]int{1}, []int{1, 2}); !errors.Is(err, ErrInput) {
		t.Fatal("mismatch must wrap ErrInput")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// 1..40 in reverse order: the input must not need sorting by the caller.
	forty := make([]float64, 40)
	for i := range forty {
		forty[i] = float64(40 - i)
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	tests := []struct {
		name string
		vals []float64
		p    float64
		want float64
	}{
		{"empty", nil, 50, 0},
		{"single", []float64{7}, 99, 7},
		{"n40 p50 is rank 20", forty, 50, 20},
		{"n40 p95 is rank 38", forty, 95, 38},
		{"n40 p99 is rank 40", forty, 99, 40},
		{"n10 p25 rounds 2.5 up to rank 3", ten, 25, 3},
		{"n10 p90 is rank 9", ten, 90, 9},
		{"p0 clamps to the minimum", ten, 0, 1},
		{"p100 is the maximum", ten, 100, 10},
		{"ties", []float64{2, 2, 1, 2}, 50, 2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			before := slices.Clone(tt.vals)
			if got := Percentile(tt.vals, tt.p); got != tt.want {
				t.Errorf("Percentile(p=%v) = %v, want %v", tt.p, got, tt.want)
			}
			if !slices.Equal(tt.vals, before) {
				t.Errorf("Percentile reordered its input: %v -> %v", before, tt.vals)
			}
		})
	}
	durs := []time.Duration{3 * time.Millisecond, time.Millisecond, 2 * time.Millisecond}
	if got := Percentile(durs, 50); got != 2*time.Millisecond {
		t.Errorf("duration p50 = %v, want 2ms", got)
	}
}

func TestConfusion(t *testing.T) {
	c, err := NewConfusion(3)
	if err != nil {
		t.Fatal(err)
	}
	obs := [][2]int{{0, 0}, {0, 1}, {1, 1}, {2, 2}, {2, 2}}
	for _, o := range obs {
		if err := c.Add(o[0], o[1]); err != nil {
			t.Fatal(err)
		}
	}
	if c.Total() != 5 {
		t.Fatalf("Total = %d", c.Total())
	}
	if got := c.Accuracy(); math.Abs(got-80) > 1e-12 {
		t.Fatalf("Accuracy = %v, want 80", got)
	}
	if got := c.Rate(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("Rate(0,1) = %v, want 0.5", got)
	}
	if got := c.Rate(1, 1); got != 1 {
		t.Fatalf("Rate(1,1) = %v", got)
	}
	if got := c.Count(2, 2); got != 2 {
		t.Fatalf("Count(2,2) = %d", got)
	}
	if err := c.Add(3, 0); !errors.Is(err, ErrInput) {
		t.Fatalf("out-of-range add err = %v", err)
	}
	if _, err := NewConfusion(0); !errors.Is(err, ErrInput) {
		t.Fatal("zero classes must error")
	}
}

func TestConfusionEmptyRates(t *testing.T) {
	c, err := NewConfusion(2)
	if err != nil {
		t.Fatal(err)
	}
	if c.Accuracy() != 0 || c.Rate(0, 0) != 0 {
		t.Fatal("empty confusion must report zeros")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Framework", "Accuracy (%)")
	tbl.AddRow("TF", "99.22")
	tbl.AddRow("Caffe") // short row padded
	out := tbl.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("table has %d lines:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[0], "Framework") || !strings.Contains(lines[0], "Accuracy") {
		t.Fatalf("header missing: %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Fatalf("separator missing: %q", lines[1])
	}
	if !strings.Contains(lines[2], "99.22") {
		t.Fatalf("row missing: %q", lines[2])
	}
	// Columns aligned: all lines equal length.
	if len(lines[0]) != len(lines[2]) {
		t.Fatalf("misaligned table:\n%s", out)
	}
}

func TestFormatters(t *testing.T) {
	if FormatSeconds(68.514) != "68.51" {
		t.Fatal("FormatSeconds")
	}
	if FormatPct(99.218) != "99.22" {
		t.Fatal("FormatPct")
	}
}
