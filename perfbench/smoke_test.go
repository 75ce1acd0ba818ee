package main

import (
	"context"
	"os"
	"testing"
)

// TestSmokeEveryWorkloadPrintsEveryMetric runs each workload at smoke
// size, untraced and traced, and checks that the run is correct and
// prints every metric BENCHMARK.json declares for its mode.
func TestSmokeEveryWorkloadPrintsEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models; skipped in -short mode")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.Chdir(dir); err != nil { // runs write under ./.bench_build
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
	out, err := os.Create(dir + "/report.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()

	for _, wi := range workloads {
		for _, traced := range []bool{false, true} {
			opt := options{workload: wi.Name, seed: 3, seconds: 0.2, trace: traced, tiny: true}
			res, err := run(context.Background(), opt, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", wi.Name, traced, err)
			}
			declared := endToEnd()
			if traced {
				declared = perLayer()
			}
			if len(res.Metrics) != len(declared) {
				t.Errorf("%s traced=%v: %d metrics, want %d", wi.Name, traced, len(res.Metrics), len(declared))
			}
			for _, m := range declared {
				v, ok := res.Metrics[m.Name]
				if !ok || v.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or in the wrong unit (%+v)", wi.Name, traced, m.Name, v)
				}
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d (report in %s)",
					wi.Name, traced, res.Correct, res.Attempted, res.Failed, out.Name())
			}
		}
	}
}
