package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesCatalog keeps the repository root's
// BENCHMARK.json identical to what the catalog renders:
//
//	go run . --catalog > ../BENCHMARK.json
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	want, err := benchmarkJSON(benchRunSeconds)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("BENCHMARK.json differs from the catalog; regenerate it with `go run . --catalog > ../BENCHMARK.json`")
	}
}

type benchDoc struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestMetricNamesAndLayerMap(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	workloadNames := map[string]bool{}
	for _, w := range doc.Workloads {
		workloadNames[w.Name] = true
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %q: bad name or why", w.Name)
		}
	}
	seen := map[string]bool{}
	checkName := func(name, unit, better string) {
		if !nameRE.MatchString(name) {
			t.Errorf("metric name %q is not valid", name)
		}
		if seen[name] {
			t.Errorf("metric name %q is used twice", name)
		}
		seen[name] = true
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q is not valid", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better %q", name, better)
		}
	}
	e2e := map[string]bool{}
	maxBound := 0.0
	for _, m := range doc.EndToEnd {
		checkName(m.Name, m.Unit, m.Better)
		e2e[m.Name] = true
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range doc.EndToEnd {
		if m.Name == "setup_s" && (m.Unit != "s" || m.Better != "lower" || m.Bound != maxBound) {
			t.Errorf("setup_s must be in s, lower is better, with the largest bound")
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, m := range doc.PerLayer {
		checkName(m.Name, m.Unit, m.Better)
	}
	if len(doc.EndToEnd) != len(endToEnd()) || len(doc.PerLayer) != 115 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want %d and 115", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd()))
	}

	// Every per-layer metric names the end-to-end metrics it should move
	// and the workload that measures it.
	for _, m := range perLayer() {
		if m.On != onAll && !workloadNames[m.On] {
			t.Errorf("%s: measured on unknown workload %q", m.Name, m.On)
		}
		if len(m.Moves) == 0 && m.Name != "trace.overhead_pct" {
			t.Errorf("%s: names no end-to-end metric it should move", m.Name)
		}
		for _, e := range m.Moves {
			if !e2e[e] {
				t.Errorf("%s: should move %q, which is not an end-to-end metric", m.Name, e)
			}
		}
	}
}
