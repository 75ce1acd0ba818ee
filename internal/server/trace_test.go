package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// sleepRun is a stub runner with a measurable execution time, so stage
// and e2e latencies are dominated by a known quantity.
func sleepRun(d time.Duration) RunFunc {
	return func(ctx context.Context, _ int, j *Job) (*metrics.RunResult, error) {
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(d):
		}
		return &metrics.RunResult{Framework: j.Spec.Framework, Dataset: j.Spec.Dataset, AccuracyPct: 90}, nil
	}
}

// chromeDoc mirrors the trace_event JSON shape the /trace endpoint
// serves (a subset of obs.ChromeTrace, decoded independently so the test
// checks the wire format, not the Go types).
type chromeDoc struct {
	TraceEvents []struct {
		Name string  `json:"name"`
		Cat  string  `json:"cat"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
	} `json:"traceEvents"`
	Metadata map[string]any `json:"otherData"`
}

func getBody(t *testing.T, url string) (int, http.Header, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, resp.Header, b
}

// TestJobTraceCoversE2E is the acceptance gate of the observability PR:
// a completed job's /trace span tree must attribute >=95% of its
// measured end-to-end latency to queue-wait + execution spans.
func TestJobTraceCoversE2E(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, Run: sleepRun(40 * time.Millisecond)})
	// Two jobs on one worker: the second measurably queues behind the
	// first, so the coverage claim is exercised with real queue wait.
	_, first := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "c")
	_, second := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "c")
	waitState(t, s, first.ID, StateCompleted)
	j := waitState(t, s, second.ID, StateCompleted)
	e2e := j.View().E2ESeconds
	if e2e <= 0 {
		t.Fatalf("finished job has no e2e latency: %+v", j.View())
	}

	code, _, body := getBody(t, ts.URL+"/jobs/"+second.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace: status %d", code)
	}
	var doc chromeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if got := doc.Metadata["scopeID"]; got != second.ID {
		t.Fatalf("trace scopeID = %v, want %s", got, second.ID)
	}

	var attributedUS float64
	seen := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		seen[ev.Name] = true
		switch ev.Name {
		case SpanQueueWait, SpanExec:
			attributedUS += ev.Dur
		}
	}
	for _, want := range []string{SpanAdmission, SpanJournalSync, SpanQueueWait, SpanExec, SpanReport} {
		if !seen[want] {
			t.Fatalf("trace is missing lifecycle span %s (saw %v)", want, seen)
		}
	}
	coverage := 100 * (attributedUS / 1e6) / e2e
	t.Logf("e2e %.1fms, queue+exec %.1fms, coverage %.2f%%", e2e*1e3, attributedUS/1e3, coverage)
	if coverage < 95 {
		t.Fatalf("queue-wait + exec spans cover %.2f%% of e2e latency, want >= 95%%", coverage)
	}
	if coverage > 101 { // tolerance for clock rounding
		t.Fatalf("span coverage %.2f%% exceeds e2e — spans overlap or e2e is under-measured", coverage)
	}
}

func TestJobProfileEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{Run: sleepRun(10 * time.Millisecond)})
	_, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	waitState(t, s, reply.ID, StateCompleted)

	code, hdr, body := getBody(t, ts.URL+"/jobs/"+reply.ID+"/profile")
	if code != http.StatusOK {
		t.Fatalf("GET /profile: status %d", code)
	}
	if ct := hdr.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("profile content type %q", ct)
	}
	for _, want := range []string{"Attribution profile", SpanExec, SpanQueueWait} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("profile table missing %q:\n%s", want, body)
		}
	}

	code, hdr, body = getBody(t, ts.URL+"/jobs/"+reply.ID+"/profile?format=csv")
	if code != http.StatusOK || !strings.HasPrefix(hdr.Get("Content-Type"), "text/csv") {
		t.Fatalf("csv profile: status %d type %q", code, hdr.Get("Content-Type"))
	}
	if !strings.HasPrefix(string(body), "span,cat,count,") {
		t.Fatalf("csv profile header wrong:\n%s", body)
	}

	code, _, body = getBody(t, ts.URL+"/jobs/"+reply.ID+"/profile?format=folded")
	if code != http.StatusOK || !strings.Contains(string(body), SpanExec) {
		t.Fatalf("folded profile: status %d body:\n%s", code, body)
	}

	code, _, _ = getBody(t, ts.URL+"/jobs/"+reply.ID+"/profile?format=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d, want 400", code)
	}

	code, _, _ = getBody(t, ts.URL+"/jobs/nope/profile")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job profile: status %d, want 404", code)
	}
	code, _, _ = getBody(t, ts.URL+"/jobs/nope/trace")
	if code != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", code)
	}
}

// TestServerStageMetricsExposition locks the new dlbench_server_* stage
// families in the Prometheus exposition: the three stage summaries with
// their quantile/sum/count series and the worker-occupancy gauge.
func TestServerStageMetricsExposition(t *testing.T) {
	s, ts := newTestServer(t, Config{Run: sleepRun(10 * time.Millisecond)})
	_, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	waitState(t, s, reply.ID, StateCompleted)

	var sb strings.Builder
	if err := metrics.WritePrometheus(&sb, s.tracer.Snapshot()); err != nil {
		t.Fatal(err)
	}
	expo := sb.String()
	for _, fam := range []string{
		"dlbench_server_queue_wait_seconds",
		"dlbench_server_exec_seconds",
		"dlbench_server_e2e_seconds",
	} {
		for _, line := range []string{
			"# TYPE " + fam + " summary",
			fam + `{quantile="0.5"} `,
			fam + `{quantile="0.95"} `,
			fam + `{quantile="0.99"} `,
			fam + "_sum ",
			fam + "_count 1",
		} {
			if !strings.Contains(expo, line) {
				t.Fatalf("exposition missing %q:\n%s", line, expo)
			}
		}
	}
	// /status renders the same histograms: one observation per stage.
	stages := s.Status().Stages
	for _, stage := range []string{"queue_wait", "exec", "e2e"} {
		if got := stages[stage].Count; got != 1 {
			t.Fatalf("Status().Stages[%q].Count = %d, want 1 like the exposition's _count", stage, got)
		}
	}
	if !strings.Contains(expo, "# TYPE dlbench_server_worker_occupancy gauge") ||
		!strings.Contains(expo, "\ndlbench_server_worker_occupancy 0\n") {
		t.Fatalf("exposition missing worker occupancy gauge:\n%s", expo)
	}
	// The exec summary's recorded latency must reflect the stub sleep.
	var sum float64
	for _, line := range strings.Split(expo, "\n") {
		if v, ok := strings.CutPrefix(line, "dlbench_server_exec_seconds_sum "); ok {
			if _, err := fmt.Sscanf(v, "%g", &sum); err != nil {
				t.Fatalf("parse exec sum %q: %v", v, err)
			}
		}
	}
	if sum < 0.010 {
		t.Fatalf("exec summary sum %.4fs, want >= stub sleep 10ms", sum)
	}
}

// TestJobViewStageDurations is the satellite fix: a finished job's
// record reports total queue-wait, execution and e2e durations, and GET
// /jobs/{id} carries the server-attributed split as response headers.
func TestJobViewStageDurations(t *testing.T) {
	s, ts := newTestServer(t, Config{Run: sleepRun(20 * time.Millisecond)})
	_, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	waitState(t, s, reply.ID, StateCompleted)

	code, hdr, body := getBody(t, ts.URL+"/jobs/"+reply.ID)
	if code != http.StatusOK {
		t.Fatalf("GET job: status %d", code)
	}
	var v JobView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.ExecSeconds < 0.020 {
		t.Fatalf("exec_seconds = %v, want >= stub sleep 20ms", v.ExecSeconds)
	}
	if v.E2ESeconds < v.ExecSeconds {
		t.Fatalf("e2e_seconds %v < exec_seconds %v", v.E2ESeconds, v.ExecSeconds)
	}
	if v.QueueSeconds <= 0 {
		t.Fatalf("queue_seconds = %v, want measured residency > 0", v.QueueSeconds)
	}
	// Headers render with 6 decimal places (microsecond resolution);
	// compare within that quantum.
	const tol = 1e-6
	qh, err := strconv.ParseFloat(hdr.Get("X-DLBench-Queue-Seconds"), 64)
	if err != nil || qh < v.QueueSeconds-tol || qh > v.QueueSeconds+tol {
		t.Fatalf("X-DLBench-Queue-Seconds = %q (err %v), want ~%v", hdr.Get("X-DLBench-Queue-Seconds"), err, v.QueueSeconds)
	}
	eh, err := strconv.ParseFloat(hdr.Get("X-DLBench-Exec-Seconds"), 64)
	if err != nil || eh < v.ExecSeconds-tol || eh > v.ExecSeconds+tol {
		t.Fatalf("X-DLBench-Exec-Seconds = %q (err %v), want ~%v", hdr.Get("X-DLBench-Exec-Seconds"), err, v.ExecSeconds)
	}

	// One clock per fact: the record's stage durations are the summed
	// job.queue_wait and job.exec spans its /trace shows, not a second
	// measurement of the same interval.
	code, _, body = getBody(t, ts.URL+"/jobs/"+reply.ID+"/trace")
	if code != http.StatusOK {
		t.Fatalf("GET /trace: status %d", code)
	}
	var doc chromeDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	spanSeconds := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spanSeconds[ev.Name] += ev.Dur / 1e6
		}
	}
	const rounding = 1e-8
	for _, c := range []struct {
		field string
		got   float64
		span  string
	}{
		{"queue_seconds", v.QueueSeconds, SpanQueueWait},
		{"exec_seconds", v.ExecSeconds, SpanExec},
	} {
		if d := c.got - spanSeconds[c.span]; d < -rounding || d > rounding {
			t.Fatalf("%s = %.9f, but its %s spans sum to %.9f", c.field, c.got, c.span, spanSeconds[c.span])
		}
	}
}

// TestStatusShowsActiveJobsWithSpans drives one worker into a long job
// with a second queued behind it and asserts the live status view names
// both, each at its correct lifecycle span.
func TestStatusShowsActiveJobsWithSpans(t *testing.T) {
	release := make(chan struct{})
	running := make(chan struct{}, 1)
	blockRun := func(ctx context.Context, _ int, j *Job) (*metrics.RunResult, error) {
		running <- struct{}{}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-release:
		}
		return &metrics.RunResult{Framework: j.Spec.Framework, Dataset: j.Spec.Dataset}, nil
	}
	s, ts := newTestServer(t, Config{Workers: 1, Run: blockRun})
	defer close(release)

	_, blocked := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "c")
	<-running
	_, queued := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "c")

	sv := s.Status()
	if sv.Workers != 1 || sv.Inflight != 1 {
		t.Fatalf("status workers/inflight = %d/%d, want 1/1", sv.Workers, sv.Inflight)
	}
	if len(sv.QueueDepths) != 1 || sv.QueueDepths[0] != 1 {
		t.Fatalf("queue depths = %v, want [1]", sv.QueueDepths)
	}
	spans := map[string]string{}
	for _, aj := range sv.ActiveJobs {
		spans[aj.ID] = aj.Span
	}
	if spans[blocked.ID] != SpanExec {
		t.Fatalf("running job span = %q, want %s (status %+v)", spans[blocked.ID], SpanExec, sv)
	}
	if spans[queued.ID] != SpanQueueWait {
		t.Fatalf("queued job span = %q, want %s (status %+v)", spans[queued.ID], SpanQueueWait, sv)
	}
	if got := s.tracer.Gauge(GaugeWorkerOccupancy).Value(); got != 1 {
		t.Fatalf("worker occupancy = %v, want 1 with the single worker busy", got)
	}
}

// TestEventsStreamSeqContiguous asserts the streamed JSONL event lines
// carry a gap-free monotonic seq starting at 1 — the contract loadgen's
// gap detector relies on.
func TestEventsStreamSeqContiguous(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	waitState(t, s, reply.ID, StateCompleted)

	resp, err := http.Get(ts.URL + "/jobs/" + reply.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	var prev int64
	lines := 0
	for sc.Scan() {
		var line struct {
			Seq  int64  `json:"seq"`
			Type string `json:"type"`
		}
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if line.Seq != prev+1 {
			t.Fatalf("seq gap: %d after %d (line %q)", line.Seq, prev, sc.Text())
		}
		prev = line.Seq
		lines++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if lines < 2 {
		t.Fatalf("streamed %d events, want at least job.start + job.done", lines)
	}
}

// TestTraceScopeReleasedOnEviction: evicting a terminal job from the
// retention table drops its tracer with its record, so /trace 404s
// instead of the daemon pinning every tracer it ever made.
func TestTraceScopeReleasedOnEviction(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxJobsRetained: 1})
	_, first := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	waitState(t, s, first.ID, StateCompleted)
	_, second := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	waitState(t, s, second.ID, StateCompleted)

	if code, _, _ := getBody(t, ts.URL+"/jobs/"+first.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("evicted job trace: status %d, want 404", code)
	}
	if code, _, _ := getBody(t, ts.URL+"/jobs/"+second.ID+"/trace"); code != http.StatusOK {
		t.Fatalf("retained job trace: status %d, want 200", code)
	}
}
