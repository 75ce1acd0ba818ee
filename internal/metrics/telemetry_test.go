package metrics

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func sampleSnapshot() *obs.Snapshot {
	tr := obs.New()
	sp := tr.Span("suite.iter", "suite")
	time.Sleep(200 * time.Microsecond)
	sp.End()
	tr.Counter("engine.graph.dispatch.train").Add(21)
	tr.Gauge("suite.loss").Set(0.42)
	return tr.Snapshot()
}

func TestTelemetryReportRendersAllSections(t *testing.T) {
	report := TelemetryReport(sampleSnapshot())
	for _, want := range []string{
		"Durations", "suite.iter", "P95",
		"Counters", "engine.graph.dispatch.train", "21",
		"Gauges", "suite.loss", "0.42",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if TelemetryReport(nil) != "" {
		t.Fatal("nil snapshot must render empty")
	}
}

func TestFormatDurUnits(t *testing.T) {
	cases := map[int64]string{
		12:          "12ns",
		4_500:       "4.5µs",
		3_200_000:   "3.20ms",
		2_000000000: "2.00s",
	}
	for ns, want := range cases {
		if got := FormatDur(ns); got != want {
			t.Errorf("FormatDur(%d) = %q, want %q", ns, got, want)
		}
	}
}

// TestRunResultTelemetryRoundTrip: an attached snapshot must survive the
// existing JSON export/import path.
func TestRunResultTelemetryRoundTrip(t *testing.T) {
	in := sampleResults()
	in[0].Telemetry = sampleSnapshot()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, in); err != nil {
		t.Fatal(err)
	}
	// The second row has no telemetry: the field must be omitted, not
	// serialized as null-noise.
	if strings.Count(buf.String(), "\"Telemetry\"") != 1 {
		t.Fatalf("Telemetry must appear exactly once:\n%s", buf.String())
	}
	out, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	tel := out[0].Telemetry
	if tel == nil {
		t.Fatal("telemetry lost in round trip")
	}
	if tel.Counters["engine.graph.dispatch.train"] != 21 {
		t.Fatalf("counters = %v", tel.Counters)
	}
	if tel.Durations["suite.iter"].Count != 1 || tel.Durations["suite.iter"].P50NS == 0 {
		t.Fatalf("durations = %+v", tel.Durations["suite.iter"])
	}
	if out[1].Telemetry != nil {
		t.Fatal("absent telemetry must stay nil")
	}
}

func TestWriteLossCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteLossCSV(&buf, sampleResults()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Header + two loss points from the first run; the second run has no
	// history and contributes no rows.
	if len(lines) != 3 {
		t.Fatalf("lines = %d: %q", len(lines), lines)
	}
	if lines[0] != "framework,settings,dataset,device,iteration,loss" {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "TF,TF MNIST,MNIST,GPU,0,2.3") {
		t.Fatalf("row 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "TF,TF MNIST,MNIST,GPU,10,0.5") {
		t.Fatalf("row 2 = %q", lines[2])
	}
}
