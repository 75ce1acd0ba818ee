package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/server"
)

// runServe implements `dlbench serve`: the benchmark-as-a-service daemon.
// It composes the internal/server core with the existing observability
// surface — the server's own gauges/counters and the resource monitor
// export on /metrics, /status reports daemon health, and pprof stays
// available for live diagnosis. ctx cancellation (SIGINT, SIGTERM)
// triggers the drain: admission stops, in-flight jobs finish, queued jobs
// stay journaled, and a hard-stop deadline bounds the exit.
func runServe(ctx context.Context, args []string, sink *progressSink) error {
	fs := flag.NewFlagSet("dlbench serve", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8080", "listen address (port 0 picks a free port)")
	workers := fs.Int("workers", 2, "worker count (also the queue shard count)")
	queueCap := fs.Int("queue-cap", 16, "per-shard queue capacity (admission control bound)")
	rate := fs.Float64("rate", 0, "per-client token-bucket rate in jobs/sec (0 disables rate limiting)")
	burst := fs.Int("burst", 8, "per-client token-bucket burst")
	shedHeapMB := fs.Int("shed-heap-mb", 0, "shed new work when heap in-use exceeds this many MiB (0 disables)")
	shedCPU := fs.Float64("shed-cpu-pct", 0, "shed new work when process CPU%% exceeds this watermark (0 disables)")
	jobTimeout := fs.Duration("job-timeout", 2*time.Minute, "default per-job execution deadline")
	maxJobTimeout := fs.Duration("max-job-timeout", 10*time.Minute, "cap on client-requested job timeouts")
	jobRetries := fs.Int("job-retries", 1, "job-level retry attempts for transient failures")
	journalPath := fs.String("journal", "", "crash-safe job journal path (empty disables recovery)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "graceful-drain budget before the hard stop cancels in-flight jobs")
	monitorInterval := fs.Duration("monitor-interval", monitor.DefaultInterval, "resource-monitor sampling interval")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("serve takes no positional arguments, got %q", fs.Args())
	}

	// One tracer carries the whole daemon's instruments; the monitor
	// feeds it so /metrics exports dlbench_monitor_* next to the
	// dlbench_server_* family.
	tracer := obs.New()
	sampler := monitor.New(monitor.Config{Interval: *monitorInterval, Tracer: tracer})
	sampler.Start()
	defer sampler.Stop()

	srv, err := server.New(server.Config{
		Workers:       *workers,
		QueueCap:      *queueCap,
		RatePerSec:    *rate,
		Burst:         *burst,
		ShedHeapBytes: uint64(*shedHeapMB) << 20,
		ShedCPUPct:    *shedCPU,
		JobTimeout:    *jobTimeout,
		MaxJobTimeout: *maxJobTimeout,
		JobRetries:    *jobRetries,
		JournalPath:   *journalPath,
		Tracer:        tracer,
		Sampler:       sampler,
		Logf:          sink.printf,
	})
	if err != nil {
		return err
	}

	mux := http.NewServeMux()
	mux.Handle("/jobs", srv.Handler())
	mux.Handle("/jobs/", srv.Handler())
	mux.Handle("/healthz", srv.Handler())
	// /status carries both layers: the generic process view (uptime,
	// counters, latest monitor sample) plus the job core's live view
	// (queue depths per shard, in-flight jobs with their current span,
	// stage latency summaries) — everything `dlbench top` renders.
	mountIntrospection(mux, tracer, sampler, srv)

	ln, err := newListener(*addr)
	if err != nil {
		return fmt.Errorf("serve listen %s: %w", *addr, err)
	}
	httpSrv := &http.Server{Handler: mux}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	// The address line is the daemon's contract with automation (the
	// smoke test parses it to learn a port-0 binding), so it prints
	// before any job traffic is possible.
	sink.printf("dlbench serve listening on http://%s (POST /jobs; /metrics /status /healthz)", ln.Addr())
	if n := srv.Recovered(); n > 0 {
		sink.printf("recovered %d journaled job(s) from %s", n, *journalPath)
	}

	select {
	case err := <-serveErr:
		return fmt.Errorf("serve: %w", err)
	case <-ctx.Done():
	}
	sink.printf("drain: stopping admission, waiting up to %s for in-flight jobs", *drainTimeout)

	// Order matters: BeginDrain first, so open event streams and new
	// submissions terminate; then the HTTP shutdown closes the listener
	// (pending accepts unblock immediately) and waits for handlers; then
	// the job core drains under the hard-stop deadline.
	srv.BeginDrain()
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		sink.printf("http shutdown: %v", err)
	}
	pending, err := srv.Shutdown(shutCtx)
	if err != nil {
		sink.printf("drain: %v", err)
	}
	if pending > 0 {
		sink.printf("drain: %d queued job(s) left journaled for recovery", pending)
	}
	sink.printf("dlbench serve: drained")
	return nil
}
