package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
)

// TestTraceFlagWritesValidChromeTrace is the end-to-end acceptance check:
// `dlbench -scale test -trace out.json fig1` must produce a file that
// parses as Chrome trace_event JSON with the expected span population.
// The same run exercises -losscsv (checked in TestLossCSVFlag's helper).
func TestTraceFlagWritesValidChromeTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("trains fig1 at test scale")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "out.json")
	loss := filepath.Join(dir, "loss.csv")
	if err := run([]string{"-scale", "test", "-quiet", "-trace", trace, "-losscsv", loss, "fig1"}); err != nil {
		t.Fatal(err)
	}
	checkLossCSV(t, loss)
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid trace_event JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace contains no events")
	}
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
		}
		if ev.Dur < 0 || ev.TS < 0 {
			t.Fatalf("event %q has negative time: ts=%v dur=%v", ev.Name, ev.TS, ev.Dur)
		}
		seen[ev.Name] = true
	}
	// A fig1 run must contain suite phases, executor phases from every
	// style, and dataset generation.
	for _, want := range []string{
		"suite.run", "suite.train", "suite.epoch", "suite.iter", "suite.update", "suite.eval",
		"graph.build", "graph.forward", "graph.backward",
		"layerwise.forward", "layerwise.backward",
		"module.forward", "module.backward",
		"data.generate.synth-mnist-train",
	} {
		if !seen[want] {
			t.Errorf("trace missing span %q", want)
		}
	}
}

// TestQuietSinkSilencesEverything: with -quiet every progress and status
// line is routed into the one sink and dropped there.
func TestQuietSinkSilencesEverything(t *testing.T) {
	var buf bytes.Buffer
	s := &progressSink{w: &buf, quiet: true}
	s.printf("should not appear %d", 1)
	if buf.Len() != 0 {
		t.Fatalf("quiet sink wrote %q", buf.String())
	}
	s.quiet = false
	s.printf("visible %s", "line")
	if got := buf.String(); got != "visible line\n" {
		t.Fatalf("sink wrote %q", got)
	}
}

// checkLossCSV asserts the -losscsv output holds per-iteration loss rows.
func checkLossCSV(t *testing.T, loss string) {
	t.Helper()
	raw, err := os.ReadFile(loss)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) < 2 {
		t.Fatalf("loss csv has %d lines, want header plus rows", len(lines))
	}
	if lines[0] != "framework,settings,dataset,device,iteration,loss" {
		t.Fatalf("header = %q", lines[0])
	}
}

// TestProfileAndEventsFlags is the profiling acceptance check: one fig1
// run at test scale (all three executor styles) with -profile,
// -profile-fold and -events must attribute at least 95% of the run wall
// time, contain per-op rows for every style, emit parseable folded
// stacks, and log typed run-boundary events.
func TestProfileAndEventsFlags(t *testing.T) {
	if testing.Short() {
		t.Skip("trains fig1 at test scale")
	}
	if raceEnabled {
		t.Skip("profiling-mode training is ~10x slower under the race detector; run without -race")
	}
	dir := t.TempDir()
	prof := filepath.Join(dir, "profile.txt")
	fold := filepath.Join(dir, "profile.folded")
	events := filepath.Join(dir, "events.jsonl")
	if err := run([]string{"-scale", "test", "-quiet",
		"-profile", prof, "-profile-fold", fold, "-events", events, "fig1"}); err != nil {
		t.Fatal(err)
	}

	raw, err := os.ReadFile(prof)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	m := regexp.MustCompile(`\((\d+(?:\.\d+)?)% coverage\)`).FindStringSubmatch(text)
	if m == nil {
		t.Fatalf("profile has no coverage header:\n%s", text)
	}
	coverage, err := strconv.ParseFloat(m[1], 64)
	if err != nil {
		t.Fatal(err)
	}
	if coverage < 95 {
		t.Errorf("profile attributes %.1f%% of wall time, want >= 95%%", coverage)
	}
	// Every executor style must contribute per-op attribution rows.
	for _, want := range []string{"graph.op.", "layerwise.op.", "module.op.", "suite.iter", "suite.eval"} {
		if !strings.Contains(text, want) {
			t.Errorf("profile missing %q rows:\n%s", want, text)
		}
	}

	foldRaw, err := os.ReadFile(fold)
	if err != nil {
		t.Fatal(err)
	}
	foldLines := strings.Split(strings.TrimSpace(string(foldRaw)), "\n")
	if len(foldLines) == 0 {
		t.Fatal("folded output is empty")
	}
	sawNested := false
	for _, line := range foldLines {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("folded line %q has no value", line)
		}
		if _, err := strconv.ParseInt(line[i+1:], 10, 64); err != nil {
			t.Fatalf("folded line %q: bad value: %v", line, err)
		}
		if strings.Contains(line[:i], ";") {
			sawNested = true
		}
	}
	if !sawNested {
		t.Error("folded output has no nested stack (no ';' path)")
	}

	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	types := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("event line %q: %v", sc.Text(), err)
		}
		typ, _ := ev["type"].(string)
		if typ == "" {
			t.Fatalf("event line %q has no type", sc.Text())
		}
		if _, ok := ev["ts_ns"].(float64); !ok {
			t.Fatalf("event line %q has no ts_ns", sc.Text())
		}
		types[typ]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	// fig1 trains 3 models (CPU/GPU rows share computations).
	for _, want := range []string{"run.start", "run.end"} {
		if types[want] != 3 {
			t.Errorf("event log has %d %q events, want 3 (types: %v)", types[want], want, types)
		}
	}
}

// TestStatusAndMetricsEndpoints drives the live exposition endpoints the
// -pprof listener serves: /metrics must return Prometheus text exposition
// of the tracer's instruments, /status the JSON progress document.
func TestStatusAndMetricsEndpoints(t *testing.T) {
	tr := obs.New()
	tr.Counter("suite.iterations").Add(7)
	tr.Gauge("suite.loss").Set(0.5)
	tr.Gauge("suite.iter").Set(41)
	tr.Gauge("suite.epoch_idx").Set(3)
	tr.Info("suite.cell").Set("TF TF mnist on mnist @GPU")
	sm := monitor.New(monitor.Config{Tracer: tr})
	sm.SampleOnce()
	addr, err := startPprof("127.0.0.1:0", tr, sm)
	if err != nil {
		t.Fatal(err)
	}
	client := &http.Client{Timeout: 5 * time.Second}

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	body, ctype := get("/metrics")
	if !strings.HasPrefix(ctype, "text/plain") {
		t.Errorf("/metrics content type = %q", ctype)
	}
	for _, want := range []string{
		"# TYPE dlbench_suite_iterations_total counter",
		"dlbench_suite_iterations_total 7",
		"dlbench_suite_loss 0.5",
		`dlbench_suite_cell_info{value="TF TF mnist on mnist @GPU"} 1`,
		// The sampler publishes its readings as live monitor.* gauges.
		"dlbench_monitor_heap_inuse_bytes",
		"dlbench_monitor_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, body)
		}
	}

	body, ctype = get("/status")
	if !strings.HasPrefix(ctype, "application/json") {
		t.Errorf("/status content type = %q", ctype)
	}
	var st status
	if err := json.Unmarshal([]byte(body), &st); err != nil {
		t.Fatalf("/status is not JSON: %v\n%s", err, body)
	}
	if st.Cell != "TF TF mnist on mnist @GPU" || st.Iteration != 41 || st.Epoch != 3 || st.Loss != 0.5 {
		t.Errorf("/status = %+v", st)
	}
	if st.Counters["suite.iterations"] != 7 {
		t.Errorf("/status counters = %v", st.Counters)
	}
	if st.Monitor == nil {
		t.Fatalf("/status has no monitor sample: %s", body)
	}
	if st.Monitor.HeapInuseBytes == 0 || st.Monitor.Goroutines == 0 {
		t.Errorf("/status monitor sample is empty: %+v", st.Monitor)
	}
}
