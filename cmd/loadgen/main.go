// Command loadgen hammers a running `dlbench serve` daemon with many
// concurrent clients and reports what the admission-control machinery did
// with the load: how many jobs were accepted, completed, failed,
// rate-limited, rejected at the queue, or shed under resource pressure —
// plus submit and end-to-end tail latencies (p50/p95/p99). Terminal
// responses carry the server's own latency attribution headers
// (X-DLBench-Queue-Seconds, X-DLBench-Exec-Seconds), so the report shows
// client-observed end-to-end next to server-attributed queue/exec and the
// attribution gap between them. -stream-every N replays every Nth
// terminal job's /events JSONL and verifies event seq contiguity —
// silently lost events fail the run.
//
// Its core invariant check is accounting: every submission must end as
// either a terminal job (completed/failed) or an explicit rejection. A
// job that was accepted but never reaches a terminal state before the
// deadline is reported as lost, and loadgen exits non-zero — a daemon
// under overload may refuse work, but it must never lose accepted work
// silently.
//
//	dlbench serve -addr localhost:8080 -workers 2 &
//	loadgen -addr localhost:8080 -clients 32 -jobs 4
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// submitReply mirrors the daemon's POST /jobs response body.
type submitReply struct {
	ID                string `json:"id"`
	Status            string `json:"status"`
	Reason            string `json:"reason"`
	RetryAfterSeconds int    `json:"retry_after_seconds"`
}

// jobView mirrors the fields of GET /jobs/{id} loadgen cares about.
type jobView struct {
	ID    string `json:"id"`
	State string `json:"state"`
	Error string `json:"error"`
}

// tally accumulates per-outcome counts and latencies across clients.
type tally struct {
	mu          sync.Mutex
	counts      map[string]int
	submitLat   []time.Duration // all submissions (accepted or rejected)
	endToEndLat []time.Duration // accepted jobs that reached a terminal state
	queueLat    []time.Duration // server-attributed queue wait (response header)
	execLat     []time.Duration // server-attributed execution time (response header)
	gapLat      []time.Duration // attribution gap: client e2e minus server queue+exec
	lost        []string        // accepted but never terminal before the deadline
	errors      []string        // transport/protocol errors (per-submission accounting)
	streamErrs  []string        // event-stream errors (seq gaps); outside accounting
}

func newTally() *tally { return &tally{counts: map[string]int{}} }

func (t *tally) count(key string) { t.mu.Lock(); t.counts[key]++; t.mu.Unlock() }
func (t *tally) submit(d time.Duration) {
	t.mu.Lock()
	t.submitLat = append(t.submitLat, d)
	t.mu.Unlock()
}

// endToEnd records a terminal job's client-observed latency next to the
// server's own attribution of it. The gap between the two — client e2e
// minus server queue+exec — is submit/poll overhead plus any lifecycle
// time the server's spans failed to attribute.
func (t *tally) endToEnd(d time.Duration, queueS, execS float64) {
	t.mu.Lock()
	t.endToEndLat = append(t.endToEndLat, d)
	if queueS > 0 || execS > 0 {
		queue := time.Duration(queueS * float64(time.Second))
		exec := time.Duration(execS * float64(time.Second))
		t.queueLat = append(t.queueLat, queue)
		t.execLat = append(t.execLat, exec)
		if gap := d - queue - exec; gap > 0 {
			t.gapLat = append(t.gapLat, gap)
		} else {
			t.gapLat = append(t.gapLat, 0)
		}
	}
	t.mu.Unlock()
}
func (t *tally) lose(id string) { t.mu.Lock(); t.lost = append(t.lost, id); t.mu.Unlock() }
func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.errors = append(t.errors, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// streamFail records an event-stream defect. It fails the run but stays
// out of the per-submission accounting identity: a stream is a spectator
// of a job that already has exactly one accounted outcome.
func (t *tally) streamFail(format string, args ...any) {
	t.mu.Lock()
	t.streamErrs = append(t.streamErrs, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

func latencyLine(name string, lats []time.Duration) string {
	if len(lats) == 0 {
		return fmt.Sprintf("%-12s n=0", name)
	}
	return fmt.Sprintf("%-12s n=%-5d p50=%-10v p95=%-10v p99=%-10v max=%v",
		name, len(lats), metrics.Percentile(lats, 50), metrics.Percentile(lats, 95), metrics.Percentile(lats, 99), slices.Max(lats))
}

// client runs one synthetic client: submit jobs jobs, poll each accepted
// one to a terminal state, and record every outcome. When both variants
// land on the same job index, the inference variant wins (an inference
// job cannot carry a fault plan).
func client(base string, name string, jobs int, body, crashBody, inferBody string, crashEvery, inferEvery, streamEvery int, poll, deadline time.Duration, t *tally) {
	hc := &http.Client{Timeout: 30 * time.Second}
	for n := 1; n <= jobs; n++ {
		spec := body
		if crashEvery > 0 && n%crashEvery == 0 {
			spec = crashBody
		}
		if inferEvery > 0 && n%inferEvery == 0 {
			spec = inferBody
		}
		start := time.Now()
		req, err := http.NewRequest("POST", base+"/jobs", strings.NewReader(spec))
		if err != nil {
			t.fail("%s: build request: %v", name, err)
			continue
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("X-DLBench-Client", name)
		resp, err := hc.Do(req)
		if err != nil {
			t.fail("%s: submit: %v", name, err)
			continue
		}
		var reply submitReply
		err = json.NewDecoder(resp.Body).Decode(&reply)
		resp.Body.Close()
		t.submit(time.Since(start))
		if err != nil {
			t.fail("%s: decode submit reply: %v", name, err)
			continue
		}
		if resp.StatusCode != http.StatusAccepted {
			// An explicit rejection is a legitimate overload outcome;
			// anything unnamed is a protocol error.
			switch reply.Status {
			case "ratelimited", "queue_full", "shed", "draining":
				t.count(reply.Status)
			default:
				t.fail("%s: submit rejected %d with unexpected status %q (%s)", name, resp.StatusCode, reply.Status, reply.Reason)
			}
			continue
		}
		t.count("accepted")
		if state, queueS, execS := pollTerminal(hc, base, reply.ID, poll, deadline); state == "" {
			t.lose(reply.ID)
		} else {
			t.count(state)
			t.endToEnd(time.Since(start), queueS, execS)
			if streamEvery > 0 && n%streamEvery == 0 {
				streamEvents(hc, base, reply.ID, t)
			}
		}
	}
}

// pollTerminal polls the job until completed/failed, returning its final
// state ("" when the deadline passes first) plus the server-attributed
// queue-wait and execution seconds from the terminal response's
// X-DLBench-Queue-Seconds / X-DLBench-Exec-Seconds headers.
func pollTerminal(hc *http.Client, base, id string, poll, deadline time.Duration) (string, float64, float64) {
	limit := time.Now().Add(deadline)
	for time.Now().Before(limit) {
		resp, err := hc.Get(base + "/jobs/" + id)
		if err == nil {
			var v jobView
			err = json.NewDecoder(resp.Body).Decode(&v)
			queueS, _ := strconv.ParseFloat(resp.Header.Get("X-DLBench-Queue-Seconds"), 64)
			execS, _ := strconv.ParseFloat(resp.Header.Get("X-DLBench-Exec-Seconds"), 64)
			resp.Body.Close()
			if err == nil && (v.State == "completed" || v.State == "failed") {
				return v.State, queueS, execS
			}
		}
		time.Sleep(poll)
	}
	return "", 0, 0
}

// streamEvents replays a terminal job's /events JSONL and verifies the
// seq contract: event sequence numbers are assigned before any buffer
// drop, so the retained log must be contiguous from 1 — any gap means
// the daemon lost events without saying so via its explicit
// events.dropped terminal line. Gaps and malformed lines fail the run.
func streamEvents(hc *http.Client, base, id string, t *tally) {
	resp, err := hc.Get(base + "/jobs/" + id + "/events")
	if err != nil {
		t.streamFail("%s: events stream: %v", id, err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.streamFail("%s: events stream status %d", id, resp.StatusCode)
		return
	}
	var prev int64
	lines := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		lines++
		var ev struct {
			Type  string `json:"type"`
			Seq   int64  `json:"seq"`
			Count int64  `json:"count"`
		}
		if err := json.Unmarshal(line, &ev); err != nil {
			t.streamFail("%s: events line %d not JSON: %v", id, lines, err)
			return
		}
		if ev.Type == "events.dropped" {
			// The daemon's explicit loss marker: a seq gap is expected
			// before it, and it carries no seq of its own.
			t.count("events_dropped")
			continue
		}
		if ev.Seq == 0 {
			continue // seqless line (foreign producer); nothing to check
		}
		if prev == 0 && ev.Seq != 1 {
			t.streamFail("%s: event stream starts at seq %d, want 1", id, ev.Seq)
			return
		}
		if prev > 0 && ev.Seq != prev+1 {
			t.streamFail("%s: event seq gap: %d -> %d (%d event(s) lost)", id, prev, ev.Seq, ev.Seq-prev-1)
			return
		}
		prev = ev.Seq
	}
	if err := sc.Err(); err != nil {
		t.streamFail("%s: events stream read: %v", id, err)
		return
	}
	if lines == 0 {
		t.streamFail("%s: events stream empty for a terminal job", id)
		return
	}
	t.count("streamed")
}

// serverCounters scrapes /metrics for the daemon-side dlbench_server_*
// family, so the report shows both sides of the ledger.
func serverCounters(base string) []string {
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return []string{fmt.Sprintf("(metrics unavailable: %v)", err)}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		return []string{fmt.Sprintf("(metrics unreadable: %v)", err)}
	}
	var out []string
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "dlbench_server_") {
			out = append(out, line)
		}
	}
	return out
}

func run() int {
	addr := flag.String("addr", "localhost:8080", "daemon address (host:port)")
	clients := flag.Int("clients", 32, "concurrent clients")
	jobs := flag.Int("jobs", 4, "jobs per client")
	body := flag.String("body", `{"framework":"tf","dataset":"mnist","scale":"test"}`, "job spec JSON")
	crashEvery := flag.Int("crash-every", 0, "inject a crash fault into every Nth job per client (0 disables)")
	inferEvery := flag.Int("infer-every", 0, "submit every Nth job per client as a batch-1 inference job (0 disables)")
	streamEvery := flag.Int("stream-every", 0, "replay the /events stream of every Nth terminal job per client, verifying seq contiguity (0 disables)")
	poll := flag.Duration("poll", 200*time.Millisecond, "job status poll interval")
	deadline := flag.Duration("deadline", 5*time.Minute, "per-job wait deadline before declaring it lost")
	flag.Parse()

	base := "http://" + *addr
	crashBody := crashSpec(*body)
	inferBody := inferSpec(*body)
	t := newTally()
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			client(base, fmt.Sprintf("loadgen-%d", i), *jobs, *body, crashBody, inferBody, *crashEvery, *inferEvery, *streamEvery, *poll, *deadline, t)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	t.mu.Lock()
	defer t.mu.Unlock()
	submitted := *clients * *jobs
	accounted := t.counts["completed"] + t.counts["failed"] +
		t.counts["ratelimited"] + t.counts["queue_full"] + t.counts["shed"] + t.counts["draining"]

	fmt.Printf("loadgen: %d clients x %d jobs against %s in %v\n", *clients, *jobs, base, elapsed.Round(time.Millisecond))
	fmt.Printf("  submitted   %d\n", submitted)
	for _, k := range []string{"accepted", "completed", "failed", "ratelimited", "queue_full", "shed", "draining"} {
		fmt.Printf("  %-11s %d\n", k, t.counts[k])
	}
	if *streamEvery > 0 {
		fmt.Printf("  %-11s %d\n", "streamed", t.counts["streamed"])
	}
	fmt.Printf("  lost        %d\n", len(t.lost))
	fmt.Printf("  errors      %d\n", len(t.errors)+len(t.streamErrs))
	fmt.Println("  " + latencyLine("submit", t.submitLat))
	fmt.Println("  " + latencyLine("end-to-end", t.endToEndLat))
	// The server attributes each terminal job's latency to queue wait and
	// execution (response headers off its span tree); the gap line is what
	// the client observed beyond that attribution — polling granularity
	// plus any unattributed lifecycle time.
	if len(t.queueLat) > 0 {
		fmt.Println("  " + latencyLine("srv-queue", t.queueLat))
		fmt.Println("  " + latencyLine("srv-exec", t.execLat))
		fmt.Println("  " + latencyLine("attrib-gap", t.gapLat))
	}
	fmt.Println("daemon-side counters (/metrics):")
	for _, line := range serverCounters(base) {
		fmt.Println("  " + line)
	}

	ok := true
	if len(t.lost) > 0 {
		ok = false
		fmt.Printf("FAIL: %d accepted job(s) never reached a terminal state: %v\n", len(t.lost), t.lost)
	}
	for _, e := range t.errors {
		ok = false
		fmt.Println("ERROR: " + e)
	}
	// Stream errors fail the run but stay out of the accounting identity:
	// each streamed job already has exactly one accounted outcome.
	for _, e := range t.streamErrs {
		ok = false
		fmt.Println("STREAM ERROR: " + e)
	}
	if accounted+len(t.lost)+len(t.errors) != submitted {
		ok = false
		fmt.Printf("FAIL: accounting mismatch: %d outcomes for %d submissions\n", accounted+len(t.lost)+len(t.errors), submitted)
	}
	if ok {
		fmt.Println("OK: every submission completed, failed, or was explicitly rejected — none lost")
		return 0
	}
	return 1
}

// crashSpec derives the crash-injected variant of the job body.
func crashSpec(body string) string {
	var spec map[string]any
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		return body
	}
	spec["faults"] = "crash@1"
	b, err := json.Marshal(spec)
	if err != nil {
		return body
	}
	return string(b)
}

// inferSpec derives the batch-1 inference variant of the job body: mode
// switches to infer and the training-only faults field is dropped (the
// server rejects inference jobs that carry a fault plan).
func inferSpec(body string) string {
	var spec map[string]any
	if err := json.Unmarshal([]byte(body), &spec); err != nil {
		return body
	}
	spec["mode"] = "infer"
	spec["batch"] = 1
	spec["requests"] = 10
	delete(spec, "faults")
	b, err := json.Marshal(spec)
	if err != nil {
		return body
	}
	return string(b)
}

func main() { os.Exit(run()) }
