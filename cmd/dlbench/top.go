package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"repro/internal/server"
)

// runTop implements `dlbench top`: a polling terminal dashboard over a
// running daemon's /status endpoint. Each frame shows the queue depth,
// every in-flight job with the lifecycle span it is currently inside,
// p50/p95 per stage (queue wait, execution, end-to-end — the histograms
// /metrics exports, so bucketed estimates), and the resource monitor's
// heap/CPU/GC columns. It needs nothing from the daemon beyond
// that one endpoint, so it works against any reachable instance.
func runTop(ctx context.Context, args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dlbench top", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "daemon address (host:port)")
	interval := fs.Duration("interval", 2*time.Second, "refresh interval")
	frames := fs.Int("n", 0, "render this many frames then exit (0 runs until interrupted)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("top takes no positional arguments, got %q", fs.Args())
	}
	base := "http://" + *addr
	hc := &http.Client{Timeout: 10 * time.Second}
	clear := isTerminalWriter(out)
	for n := 0; *frames == 0 || n < *frames; n++ {
		if n > 0 {
			select {
			case <-ctx.Done():
				return nil
			case <-time.After(*interval):
			}
		}
		st, err := scrapeTop(hc, base)
		if err != nil {
			return fmt.Errorf("top: %w", err)
		}
		if clear {
			fmt.Fprint(out, "\x1b[H\x1b[2J")
		}
		renderTopFrame(out, base, st)
	}
	return nil
}

// scrapeTop fetches one dashboard frame's worth of state: the /status
// document.
func scrapeTop(hc *http.Client, base string) (*status, error) {
	resp, err := hc.Get(base + "/status")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var st status
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("decode /status: %w", err)
	}
	return &st, nil
}

// renderTopFrame writes one dashboard frame.
func renderTopFrame(out io.Writer, base string, st *status) {
	header := fmt.Sprintf("dlbench top — %s  uptime %s", base, time.Duration(st.UptimeSeconds*float64(time.Second)).Round(time.Second))
	sv := st.Server
	if sv != nil && sv.Draining {
		header += "  [DRAINING]"
	}
	fmt.Fprintln(out, header)
	if sv != nil {
		occ := 0.0
		if sv.Workers > 0 {
			occ = float64(sv.Inflight) / float64(sv.Workers)
		}
		fmt.Fprintf(out, "workers %d  inflight %d  occupancy %.0f%%\n", sv.Workers, sv.Inflight, occ*100)
		fmt.Fprintf(out, "queue depth %d\n", sv.QueueDepth)

		fmt.Fprintf(out, "\n%-12s %12s %12s %8s  (quantiles are bucketed estimates)\n", "stage", "p50", "p95", "count")
		for _, stage := range []string{"queue_wait", "exec", "e2e"} {
			d := sv.Stages[stage]
			fmt.Fprintf(out, "%-12s %12s %12s %8d\n",
				stage, topDuration(d.P50NS), topDuration(d.P95NS), d.Count)
		}
	}

	if smp := st.Monitor; smp != nil {
		fmt.Fprintf(out, "\nmonitor: heap %s  live %s  goroutines %d  cpu %.1f%%  gc %d (p50 %s p99 %s) bucketed estimates\n",
			topBytes(smp.HeapInuseBytes), topBytes(smp.HeapLiveBytes), smp.Goroutines, smp.CPUPct,
			smp.GCCount, topDuration(smp.GCPauseP50NS), topDuration(smp.GCPauseP99NS))
	}

	if sv != nil {
		fmt.Fprintf(out, "\n%-8s %-10s %-18s %s\n", "job", "state", "span", "cell")
		jobs := append([]server.ActiveJob(nil), sv.ActiveJobs...)
		sort.Slice(jobs, func(i, j int) bool { return jobs[i].ID < jobs[j].ID })
		if len(jobs) == 0 {
			fmt.Fprintln(out, "(idle — no active jobs)")
		}
		for _, j := range jobs {
			span := j.Span
			if span == "" {
				span = "-"
			}
			fmt.Fprintf(out, "%-8s %-10s %-18s %s\n", j.ID, j.State, span, j.Cell)
		}
	}
}

// topDuration renders a nanosecond duration with a sensible unit.
func topDuration(ns int64) string {
	if ns <= 0 {
		return "-"
	}
	return time.Duration(ns).Round(time.Microsecond).String()
}

// topBytes renders a byte count in MiB.
func topBytes(b uint64) string {
	return fmt.Sprintf("%.1f MiB", float64(b)/(1<<20))
}

// isTerminalWriter reports whether out is an interactive terminal, in
// which case frames repaint in place via ANSI clear; piped output gets
// plain sequential frames.
func isTerminalWriter(out io.Writer) bool {
	f, ok := out.(*os.File)
	if !ok {
		return false
	}
	info, err := f.Stat()
	if err != nil {
		return false
	}
	return info.Mode()&os.ModeCharDevice != 0
}
