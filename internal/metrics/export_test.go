package metrics

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func sampleResults() []RunResult {
	return []RunResult{
		{
			Framework: "TF", Settings: "TF MNIST", Dataset: "MNIST", Device: "GPU",
			Train:       TimeRecord{ModelSeconds: 68.51, WallSeconds: 120.5},
			Test:        TimeRecord{ModelSeconds: 0.26, WallSeconds: 1.2},
			AccuracyPct: 99.22, FinalLoss: 0.02, Converged: true, Epochs: 8,
			LossHistory: []LossPoint{{Iteration: 0, Loss: 2.3}, {Iteration: 10, Loss: 0.5}},
		},
		{
			Framework: "Caffe", Settings: "Caffe CIFAR-10", Dataset: "CIFAR-10", Device: "CPU",
			Train:       TimeRecord{ModelSeconds: 1730.89},
			AccuracyPct: 75.39, Converged: true, Epochs: 3,
		},
	}
}

func TestJSONRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := sampleResults()
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	var out []RunResult
	if err := json.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost rows: %d", len(out))
	}
	if out[0].AccuracyPct != in[0].AccuracyPct || out[0].Framework != "TF" {
		t.Fatalf("row 0 mismatch: %+v", out[0])
	}
	if len(out[0].LossHistory) != 2 || out[0].LossHistory[1].Loss != 0.5 {
		t.Fatal("loss history not preserved")
	}
}

func TestCSVExport(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleResults()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 { // header + 2 rows
		t.Fatalf("lines = %d", len(lines))
	}
	if !strings.HasPrefix(lines[0], "framework,settings,") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "99.2200") || !strings.Contains(lines[1], "true") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.Contains(lines[2], "Caffe CIFAR-10") {
		t.Fatalf("row 2 = %q", lines[2])
	}
}
