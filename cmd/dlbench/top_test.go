package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// cannedTopServer serves a fixed /status document shaped exactly like a
// live daemon's, so the dashboard render is asserted end to end without
// running jobs.
func cannedTopServer(t *testing.T) *httptest.Server {
	t.Helper()
	statusBody := `{
		"uptime_seconds": 12.25,
		"monitor": {
			"ts_ns": 1, "heap_inuse_bytes": 5242880, "heap_live_bytes": 3145728,
			"goroutines": 14, "cpu_pct": 37.5,
			"gc_count": 2, "gc_pause_p50_ns": 120000, "gc_pause_p99_ns": 450000
		},
		"server": {
			"draining": false, "workers": 2, "inflight": 1,
			"queue_depths": [3, 0],
			"active_jobs": [
				{"id": "j-1", "state": "running", "span": "job.exec", "attempts": 1, "cell": "tf/mnist"},
				{"id": "j-2", "state": "queued", "span": "job.queue_wait", "attempts": 0, "cell": "torch/mnist"}
			],
			"stages": {
				"queue_wait": {"count": 7, "sum_ns": 100000000, "p50_ns": 2000000, "p95_ns": 40000000},
				"exec": {"count": 7, "p50_ns": 500000000, "p95_ns": 1250000000},
				"e2e": {"count": 7, "p50_ns": 510000000, "p95_ns": 1500000000}
			}
		}
	}`
	mux := http.NewServeMux()
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(statusBody))
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func TestRunTopRendersDashboard(t *testing.T) {
	srv := cannedTopServer(t)
	addr := strings.TrimPrefix(srv.URL, "http://")
	var out bytes.Buffer
	err := runTop(context.Background(), []string{"-addr", addr, "-interval", "1ms", "-n", "2"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"dlbench top",
		"uptime 12s",
		"workers 2  inflight 1  occupancy 50%",
		"queue depth 3  per shard [3 0]",
		"queue_wait", "2ms", "40ms",
		"exec", "500ms", "1.25s",
		"e2e", "510ms", "1.5s",
		"heap 5.0 MiB", "goroutines 14", "cpu 37.5%",
		"gc 2 (p50 120µs p99 450µs)",
		"j-1", "running", "job.exec", "tf/mnist",
		"j-2", "queued", "job.queue_wait", "torch/mnist",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("dashboard output missing %q:\n%s", want, got)
		}
	}
	// -n 2 with a non-terminal writer renders two sequential frames, no
	// ANSI repaint sequences.
	if n := strings.Count(got, "dlbench top"); n != 2 {
		t.Errorf("rendered %d frames, want 2", n)
	}
	if strings.Contains(got, "\x1b[") {
		t.Error("piped output contains ANSI escape sequences")
	}
	// The stage table's count column comes from each stage's count.
	if !strings.Contains(got, "       7\n") && !strings.Contains(got, "       7 ") {
		t.Errorf("stage table missing count column value 7:\n%s", got)
	}
}

func TestRunTopRejectsPositionalArgs(t *testing.T) {
	var out bytes.Buffer
	if err := runTop(context.Background(), []string{"bogus"}, &out); err == nil {
		t.Fatal("positional argument accepted")
	}
}
