package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/resilience"
)

// newSampledMonitor returns a sampler with one synchronous sample taken,
// so Latest() has something for the shed watermarks to consult.
func newSampledMonitor(t *testing.T) *monitor.Sampler {
	t.Helper()
	s := monitor.New(monitor.Config{})
	s.SampleOnce()
	return s
}

// okRun is a stub runner that completes instantly.
func okRun(_ context.Context, _ int, j *Job) (*metrics.RunResult, error) {
	return &metrics.RunResult{Framework: j.Spec.Framework, Dataset: j.Spec.Dataset, AccuracyPct: 90}, nil
}

// newTestServer builds a server on a stub runner plus an HTTP front end.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Run == nil {
		cfg.Run = okRun
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	})
	return s, ts
}

// submit POSTs a job and returns the HTTP status and decoded reply.
func submit(t *testing.T, ts *httptest.Server, spec string, client string) (int, submitReply) {
	t.Helper()
	req, err := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(spec))
	if err != nil {
		t.Fatalf("NewRequest: %v", err)
	}
	if client != "" {
		req.Header.Set("X-DLBench-Client", client)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	defer resp.Body.Close()
	var reply submitReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decode reply: %v", err)
	}
	return resp.StatusCode, reply
}

// waitState polls until the job reaches state want. The deadline only
// bounds failure reporting — jobs that do complete return immediately —
// so it is sized for the slowest case: a real inference job under the
// race detector on a loaded host.
func waitState(t *testing.T, s *Server, id string, want State) *Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Job(id)
		if ok && j.State() == want {
			return j
		}
		time.Sleep(5 * time.Millisecond)
	}
	j, _ := s.Job(id)
	t.Fatalf("job %s never reached %s (now %v)", id, want, j.State())
	return nil
}

func TestSubmitRunsToCompletion(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	code, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202 (%+v)", code, reply)
	}
	j := waitState(t, s, reply.ID, StateCompleted)
	v := j.View()
	if v.Result == nil || v.Result.AccuracyPct != 90 {
		t.Fatalf("completed job carries no result: %+v", v)
	}
	if v.Attempts != 1 {
		t.Fatalf("attempts = %d, want 1", v.Attempts)
	}
	// The job is visible in the listing and via GET /jobs/{id}.
	resp, err := http.Get(ts.URL + "/jobs/" + reply.ID)
	if err != nil {
		t.Fatalf("GET job: %v", err)
	}
	defer resp.Body.Close()
	var got JobView
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatalf("decode job view: %v", err)
	}
	if got.State != StateCompleted || got.ID != reply.ID {
		t.Fatalf("GET /jobs/%s = %+v", reply.ID, got)
	}
}

func TestBadSpecRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, bad := range []string{
		`{`,
		`{"framework":"mxnet","dataset":"mnist"}`,
		`{"framework":"tf","dataset":"svhn"}`,
		`{"framework":"tf","dataset":"mnist","faults":"explode@1"}`,
		`{"framework":"tf","dataset":"mnist","scale":"galactic"}`,
		// Anything after the spec object rejects the whole body.
		`{"framework":"tf","dataset":"mnist"} not json at all`,
		`{"framework":"tf","dataset":"mnist"}{"framework":"caffe","dataset":"mnist"}`,
		`{"framework":"tf","dataset":"mnist"} 7`,
	} {
		code, reply := submit(t, ts, bad, "")
		if code != http.StatusBadRequest || reply.Status != "invalid" {
			t.Errorf("submit(%s): got %d %q, want 400 invalid", bad, code, reply.Status)
		}
	}
}

// TestTrailingWhiteSpaceAccepted: white space after the spec object is
// not data, so a body ending in a newline still runs.
func TestTrailingWhiteSpaceAccepted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if code, reply := submit(t, ts, "{\"framework\":\"tf\",\"dataset\":\"mnist\"}\n \t", ""); code != http.StatusAccepted {
		t.Fatalf("spec with trailing white space: got %d %+v, want 202", code, reply)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/jobs/j-999", "/jobs/j-999/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestQueueFullRejectsWith429 fills the single shard past capacity while
// the one worker is blocked, and checks the overflow submission is
// rejected with 429 + Retry-After rather than queued or blocked.
func TestQueueFullRejectsWith429(t *testing.T) {
	release := make(chan struct{})
	blockRun := func(ctx context.Context, _ int, _ *Job) (*metrics.RunResult, error) {
		select {
		case <-release:
			return &metrics.RunResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2, Run: blockRun})
	defer close(release)

	// First job occupies the worker. Wait for it to leave the queue, then
	// fill the queue exactly to capacity — every job shares one (scale,
	// seed), so they all land on the single shard.
	code, first := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d, want 202", code)
	}
	waitState(t, s, first.ID, StateRunning)
	for i := 0; i < 2; i++ {
		if code, _ := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, ""); code != http.StatusAccepted {
			t.Fatalf("fill submit %d: status %d, want 202", i, code)
		}
	}

	req, _ := http.NewRequest("POST", ts.URL+"/jobs", strings.NewReader(`{"framework":"tf","dataset":"mnist"}`))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("overflow submit: %v", err)
	}
	defer resp.Body.Close()
	var reply submitReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusTooManyRequests || reply.Status != "queue_full" {
		t.Fatalf("overflow: got %d %q, want 429 queue_full", resp.StatusCode, reply.Status)
	}
	if resp.Header.Get("Retry-After") == "" || reply.RetryAfterSeconds < 1 {
		t.Fatalf("429 without a Retry-After hint: header %q, body %+v", resp.Header.Get("Retry-After"), reply)
	}
	if got := s.cQueueFull.Value(); got != 1 {
		t.Fatalf("queue_full counter = %d, want 1", got)
	}
}

func TestRateLimitPerClient(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.001, Burst: 1})
	spec := `{"framework":"tf","dataset":"mnist"}`
	if code, _ := submit(t, ts, spec, "alice"); code != http.StatusAccepted {
		t.Fatalf("first alice submit: %d, want 202", code)
	}
	code, reply := submit(t, ts, spec, "alice")
	if code != http.StatusTooManyRequests || reply.Status != "ratelimited" {
		t.Fatalf("second alice submit: %d %q, want 429 ratelimited", code, reply.Status)
	}
	if reply.RetryAfterSeconds < 1 {
		t.Fatalf("ratelimited reply without Retry-After: %+v", reply)
	}
	// A different client has its own bucket.
	if code, _ := submit(t, ts, spec, "bob"); code != http.StatusAccepted {
		t.Fatalf("bob submit: %d, want 202", code)
	}
}

// TestCrashFaultFailsOnlyThatJob is the fault-isolation contract: a job
// whose run dies with an injected crash fails alone; the daemon accepts
// and completes the next job.
func TestCrashFaultFailsOnlyThatJob(t *testing.T) {
	crashRun := func(ctx context.Context, shard int, j *Job) (*metrics.RunResult, error) {
		if j.Spec.Faults != "" {
			return nil, fmt.Errorf("%w: at iteration 1", resilience.ErrInjectedCrash)
		}
		return okRun(ctx, shard, j)
	}
	s, ts := newTestServer(t, Config{Run: crashRun})
	_, crash := submit(t, ts, `{"framework":"tf","dataset":"mnist","faults":"crash@1"}`, "")
	j := waitState(t, s, crash.ID, StateFailed)
	if v := j.View(); !strings.Contains(v.Error, "injected crash") || v.Attempts != 1 {
		t.Fatalf("crash job: %+v (crash must not be retried)", v)
	}
	_, healthy := submit(t, ts, `{"framework":"caffe","dataset":"cifar10"}`, "")
	waitState(t, s, healthy.ID, StateCompleted)
}

// TestPanicContainment: a panicking runner fails its own job with an
// ErrPanic-wrapped error after the retry budget, and the worker survives.
func TestPanicContainment(t *testing.T) {
	var calls atomic.Int64
	panicRun := func(ctx context.Context, shard int, j *Job) (*metrics.RunResult, error) {
		if j.Spec.Framework == "torch" {
			calls.Add(1)
			panic("executor blew up")
		}
		return okRun(ctx, shard, j)
	}
	s, ts := newTestServer(t, Config{Workers: 1, JobRetries: 1, Run: panicRun})
	_, bad := submit(t, ts, `{"framework":"torch","dataset":"mnist"}`, "")
	j := waitState(t, s, bad.ID, StateFailed)
	if v := j.View(); !strings.Contains(v.Error, "recovered panic") {
		t.Fatalf("panic job error = %q, want recovered panic", v.Error)
	}
	// Panics are transient-classified: the budget of 1+JobRetries=2
	// attempts was spent before failing.
	if got := calls.Load(); got != 2 {
		t.Fatalf("panic runner called %d times, want 2 (retry budget)", got)
	}
	if got := s.cPanics.Value(); got != 2 {
		t.Fatalf("panics counter = %d, want 2", got)
	}
	_, ok := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	waitState(t, s, ok.ID, StateCompleted)
}

// TestTransientFailureRetriesWithBackoff: one injected-fault failure, then
// success — the job completes on attempt 2.
func TestTransientFailureRetriesWithBackoff(t *testing.T) {
	var calls atomic.Int64
	flaky := func(ctx context.Context, shard int, j *Job) (*metrics.RunResult, error) {
		if calls.Add(1) == 1 {
			return nil, fmt.Errorf("%w: op error", resilience.ErrInjected)
		}
		return okRun(ctx, shard, j)
	}
	s, ts := newTestServer(t, Config{JobRetries: 2, Run: flaky})
	_, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	j := waitState(t, s, reply.ID, StateCompleted)
	if v := j.View(); v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2", v.Attempts)
	}
	if got := s.cRetries.Value(); got != 1 {
		t.Fatalf("retries counter = %d, want 1", got)
	}
}

// TestDeadlineFailsJob: a runner that outlives the per-job timeout fails
// with DeadlineExceeded and is not retried.
func TestDeadlineFailsJob(t *testing.T) {
	slow := func(ctx context.Context, _ int, _ *Job) (*metrics.RunResult, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
	s, ts := newTestServer(t, Config{JobTimeout: 30 * time.Millisecond, JobRetries: 3, Run: slow})
	_, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	j := waitState(t, s, reply.ID, StateFailed)
	if v := j.View(); v.Attempts != 1 || !strings.Contains(v.Error, "deadline") {
		t.Fatalf("deadline job: %+v, want 1 attempt and a deadline error", v)
	}
}

// TestHugeTimeoutClampedToMax: a timeout_ms whose Duration would
// overflow int64 nanoseconds runs under MaxJobTimeout, not under an
// already expired deadline.
func TestHugeTimeoutClampedToMax(t *testing.T) {
	var left atomic.Int64
	run := func(ctx context.Context, shard int, j *Job) (*metrics.RunResult, error) {
		d, _ := ctx.Deadline()
		left.Store(int64(time.Until(d)))
		return okRun(ctx, shard, j)
	}
	s, ts := newTestServer(t, Config{MaxJobTimeout: time.Minute, Run: run})
	_, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist","timeout_ms":9300000000000}`, "")
	waitState(t, s, reply.ID, StateCompleted)
	if d := time.Duration(left.Load()); d <= 0 || d > time.Minute {
		t.Fatalf("job ran with %v left before its deadline, want (0s, 1m0s]", d)
	}
}

// TestEventsStreamJSONL: the events endpoint replays the job's event log
// in the -events file format, ending when the job completes.
func TestEventsStreamJSONL(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	waitState(t, s, reply.ID, StateCompleted)
	resp, err := http.Get(ts.URL + "/jobs/" + reply.ID + "/events")
	if err != nil {
		t.Fatalf("GET events: %v", err)
	}
	defer resp.Body.Close()
	var types []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var line map[string]any
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("non-JSONL line %q: %v", sc.Text(), err)
		}
		if _, ok := line["ts_ns"]; !ok {
			t.Fatalf("event line missing ts_ns: %q", sc.Text())
		}
		types = append(types, line["type"].(string))
	}
	joined := strings.Join(types, ",")
	if !strings.Contains(joined, "job.start") || !strings.Contains(joined, "job.done") {
		t.Fatalf("stream missing lifecycle events: %v", types)
	}
}

// TestShedUnderMemoryPressure: with a monitor sample above the heap
// watermark, submissions are shed with 503 and an explicit status.
func TestShedUnderMemoryPressure(t *testing.T) {
	sampler := newSampledMonitor(t)
	_, ts := newTestServer(t, Config{Sampler: sampler, ShedHeapBytes: 1}) // any live heap exceeds 1 byte
	code, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	if code != http.StatusServiceUnavailable || reply.Status != "shed" {
		t.Fatalf("submit under pressure: %d %q, want 503 shed", code, reply.Status)
	}
	if reply.RetryAfterSeconds < 1 || !strings.Contains(reply.Reason, "watermark") {
		t.Fatalf("shed reply lacks hint/reason: %+v", reply)
	}
}

// TestNoShedBelowWatermark: a generous watermark lets jobs through.
func TestNoShedBelowWatermark(t *testing.T) {
	sampler := newSampledMonitor(t)
	_, ts := newTestServer(t, Config{Sampler: sampler, ShedHeapBytes: 1 << 40})
	if code, _ := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, ""); code != http.StatusAccepted {
		t.Fatalf("submit below watermark: %d, want 202", code)
	}
}

// TestDrainingRejectsSubmissions: after BeginDrain, POST /jobs gets 503.
func TestDrainingRejectsSubmissions(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	s.BeginDrain()
	code, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
	if code != http.StatusServiceUnavailable || reply.Status != "draining" {
		t.Fatalf("submit while draining: %d %q, want 503 draining", code, reply.Status)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz while draining: %d, want 503", resp.StatusCode)
	}
}

// TestRetryAfterGrowsWithBacklog: the hint scales with queue depth.
func TestRetryAfterGrowsWithBacklog(t *testing.T) {
	release := make(chan struct{})
	blockRun := func(ctx context.Context, _ int, _ *Job) (*metrics.RunResult, error) {
		select {
		case <-release:
			return &metrics.RunResult{}, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, Run: blockRun})
	defer close(release)
	s.hExec.Observe(2 * time.Second) // pretend jobs take ~2s
	for i := 0; i < 5; i++ {
		if code, _ := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, ""); code != http.StatusAccepted {
			t.Fatalf("submit %d rejected", i)
		}
	}
	if secs := s.retryAfterSeconds(); secs < 8 {
		t.Fatalf("retryAfterSeconds = %d with 5-deep backlog of 2s jobs, want >= 8", secs)
	}
}

func TestJobListOrder(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	var ids []string
	for i := 0; i < 3; i++ {
		_, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
		ids = append(ids, reply.ID)
	}
	for _, id := range ids {
		waitState(t, s, id, StateCompleted)
	}
	resp, err := http.Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatalf("GET /jobs: %v", err)
	}
	defer resp.Body.Close()
	var listing struct {
		Jobs []JobView `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatalf("decode listing: %v", err)
	}
	if len(listing.Jobs) != 3 {
		t.Fatalf("listing has %d jobs, want 3", len(listing.Jobs))
	}
	for i, v := range listing.Jobs {
		if v.ID != ids[i] {
			t.Fatalf("listing order: got %s at %d, want %s", v.ID, i, ids[i])
		}
	}
}

// TestAccountingNoJobSilentlyLost is the in-process version of the
// loadgen invariant: under a burst far past capacity, every submission is
// either accepted (and reaches a terminal state) or rejected with an
// explicit verdict — accepted + rejected == submitted.
func TestAccountingNoJobSilentlyLost(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 2, QueueCap: 2})
	const n = 64
	var accepted []string
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		code, reply := submit(t, ts, `{"framework":"tf","dataset":"mnist"}`, "")
		counts[reply.Status]++
		if code == http.StatusAccepted {
			accepted = append(accepted, reply.ID)
		} else if code != http.StatusTooManyRequests {
			t.Fatalf("submission %d: unexpected status %d %q", i, code, reply.Status)
		}
	}
	for _, id := range accepted {
		waitState(t, s, id, StateCompleted)
	}
	if counts["queued"]+counts["queue_full"] != n {
		t.Fatalf("accounting leak: %v does not sum to %d", counts, n)
	}
	if got := s.cAccepted.Value() + s.cQueueFull.Value(); got != n {
		t.Fatalf("counter accounting: accepted+queue_full = %d, want %d", got, n)
	}
}

// TestSubmitReplyShape guards the submit-reply wire format the loadgen
// client depends on.
func TestSubmitReplyShape(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(`{"framework":"tf","dataset":"mnist"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read: %v", err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if m["status"] != "queued" || m["id"] == "" {
		t.Fatalf("submit reply = %s", buf.String())
	}
}
