// Command dlbench runs the DLBench reproduction suite: every figure and
// table of "Benchmarking Deep Learning Frameworks: Design Considerations,
// Metrics and Beyond" (ICDCS 2018), regenerated over this repository's
// pure-Go substrate.
//
// Usage:
//
//	dlbench [-scale test|small|full] [-seed N] [-quiet]
//	        [-json FILE] [-csv FILE] [-losscsv FILE]
//	        [-trace FILE] [-telemetry] [-pprof ADDR]
//	        [-profile FILE] [-profile-fold FILE] [-events FILE]
//	        [-monitor] [-monitor-interval D]
//	        [-timeout D] [-checkpoint-dir DIR] [-resume]
//	        [-max-retries N] [-faults PLAN] <experiment>...
//	dlbench serve [-addr A] [-workers N] [-queue-cap N] ...
//	dlbench top [-addr A] [-interval D] [-n FRAMES]
//	dlbench -mode infer [-infer-dataset DS] [-infer-network default|resnet]
//	        [-infer-batches 1,8,32] [-infer-requests N] [-infer-warmup N]
//
// Experiments: table1 table2 table3 table4 table5 fig1 fig2 fig3 fig4
// fig5 fig6 fig7 fig8 fig9 table6 table7 table8 table9, or "all".
//
// Observability: -trace records every execution span (suite, executor,
// data phases) and writes a Chrome trace_event JSON loadable in
// chrome://tracing or Perfetto; -telemetry prints per-phase duration,
// counter and gauge tables after the reports; -pprof serves
// net/http/pprof plus /metrics (Prometheus text exposition of every
// instrument and the run-progress gauges) and /status (a JSON progress
// document) on the given address. -profile enables per-op profiling mode
// and writes the attribution profile (self/cumulative time per op, a
// ".csv" path selects CSV); -profile-fold writes the same population in
// folded-stack format for flamegraph.pl or speedscope. -events writes a
// structured JSONL event log (run/epoch boundaries, resilience events,
// periodic monitor samples). -monitor starts the internal/monitor
// resource sampler (heap in-use, goroutines, process CPU%, GC pause
// quantiles) at -monitor-interval; its samples surface as live
// monitor.* gauges on /metrics, the latest sample on /status, counter
// tracks in the Chrome trace, and monitor.sample lines in the event
// log. All are off by default, and the instrumented hot paths are
// no-ops when off.
//
// The repository's own speed is measured by the separate perfbench
// module (perfbench/README.md).
//
// Inference: `dlbench -mode infer` measures serving latency instead of
// training throughput. Every serving column — the three framework
// executor styles plus the int8 quantized column — answers timed
// Predict requests at each -infer-batches size; the printed table
// carries per-request latency p50/p95/p99 and samples/sec per (column,
// batch) cell. The sweep runs untraced unless -profile, -monitor or
// another observability flag asks otherwise. -infer-network resnet
// serves one shared trained residual network from all columns,
// isolating executor scheduling overhead.
//
// Robustness: -timeout bounds the whole invocation and SIGINT cancels
// it; both produce a well-formed partial report (completed rows, JSON/CSV
// exports, telemetry, trace). -checkpoint-dir persists periodic training
// checkpoints, -resume continues a killed sweep from them, -max-retries
// bounds in-process divergence/fault recovery (0 disables the resilience
// layer), and -faults injects deterministic faults for harness testing
// (e.g. "nan@3;operr@5:site=graph.forward,cell=TF").
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/resilience"
	"repro/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "dlbench:", err)
		os.Exit(1)
	}
}

// progressSink is the single funnel for all non-result output (per-run
// progress, status notes). -quiet silences the whole sink, so nothing
// reaches stderr except errors; experiment reports still go to stdout.
type progressSink struct {
	w     io.Writer
	quiet bool
}

func (p *progressSink) printf(format string, args ...any) {
	if p.quiet {
		return
	}
	fmt.Fprintf(p.w, format+"\n", args...)
}

func run(args []string) error {
	fs := flag.NewFlagSet("dlbench", flag.ContinueOnError)
	scaleName := fs.String("scale", "small", "experiment scale: test, small or full")
	seed := fs.Uint64("seed", 42, "master seed; every result is deterministic in it")
	quiet := fs.Bool("quiet", false, "suppress all progress/status output on stderr")
	jsonPath := fs.String("json", "", "also write all run results as JSON to this file")
	csvPath := fs.String("csv", "", "also write all run results as CSV to this file")
	lossCSVPath := fs.String("losscsv", "", "also write per-iteration loss histories as CSV to this file")
	tracePath := fs.String("trace", "", "record execution spans and write a Chrome trace_event JSON to this file")
	telemetry := fs.Bool("telemetry", false, "print runtime telemetry tables (durations, counters, gauges) after the reports")
	pprofAddr := fs.String("pprof", "", "serve net/http/pprof, /metrics and /status on this address (e.g. localhost:6060) while running")
	profilePath := fs.String("profile", "", "enable per-op profiling and write the attribution profile to this file (a .csv extension selects CSV)")
	profileFoldPath := fs.String("profile-fold", "", "enable per-op profiling and write folded stacks (flamegraph.pl format) to this file")
	eventsPath := fs.String("events", "", "write the structured JSONL event log (run/epoch boundaries, resilience events) to this file")
	monitorFlag := fs.Bool("monitor", false, "sample resource utilization (heap, goroutines, CPU%, GC pauses) while running")
	monitorInterval := fs.Duration("monitor-interval", monitor.DefaultInterval, "resource-monitor sampling interval")
	timeout := fs.Duration("timeout", 0, "cancel the whole invocation after this duration, emitting a partial report (0 disables)")
	checkpointDir := fs.String("checkpoint-dir", "", "persist periodic training checkpoints to this directory")
	resume := fs.Bool("resume", false, "resume training runs from checkpoints in -checkpoint-dir")
	maxRetries := fs.Int("max-retries", 2, "in-process recovery attempts per training run for divergence and injected faults (0 disables the resilience layer)")
	faultSpec := fs.String("faults", "", "deterministic fault plan, e.g. \"nan@3;operr@5:site=graph.forward,cell=TF\" (kinds: nan inf operr slow corrupt crash)")
	modeFlag := fs.String("mode", "train", "workload mode: train (experiments) or infer (inference latency sweep)")
	inferDataset := fs.String("infer-dataset", "mnist", "infer mode: dataset to serve (mnist or cifar10)")
	inferNetwork := fs.String("infer-network", "default", "infer mode: served model plan (default: each framework's paper net; resnet: one shared residual net)")
	inferBatches := fs.String("infer-batches", "1,8,32", "infer mode: comma-separated request batch sizes")
	inferRequests := fs.Int("infer-requests", 40, "infer mode: timed requests per (framework, batch) point")
	inferWarmup := fs.Int("infer-warmup", 5, "infer mode: untimed warmup requests per point")
	if err := fs.Parse(args); err != nil {
		return err
	}
	targets := fs.Args()
	inferMode := false
	switch *modeFlag {
	case "", "train":
	case "infer":
		inferMode = true
	default:
		return fmt.Errorf("unknown -mode %q (want train or infer)", *modeFlag)
	}
	if inferMode && len(targets) > 0 {
		return fmt.Errorf("-mode infer takes no experiment targets (got %q)", strings.Join(targets, " "))
	}
	if len(targets) == 0 && !inferMode {
		return fmt.Errorf("no experiments given; try: dlbench fig1, or dlbench all\nknown: %s", strings.Join(knownExperiments(), " "))
	}
	// The serve daemon dispatches before any suite construction: it
	// builds suites per job, owns its own flags (everything after
	// "serve"), and drains on SIGINT/SIGTERM.
	if len(targets) > 0 && targets[0] == "serve" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runServe(ctx, targets[1:], &progressSink{w: os.Stderr, quiet: *quiet})
	}
	// The live dashboard only talks HTTP to a daemon, so it too skips
	// suite construction entirely.
	if len(targets) > 0 && targets[0] == "top" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		return runTop(ctx, targets[1:], os.Stdout)
	}
	scale, err := core.ScaleByName(*scaleName)
	if err != nil {
		return err
	}
	suite, err := core.NewSuite(scale, *seed)
	if err != nil {
		return err
	}
	sink := &progressSink{w: os.Stderr, quiet: *quiet}
	suite.Progress = sink.printf

	// Cancellation: SIGINT, SIGTERM and -timeout share one context;
	// everything below observes it at iteration/batch granularity and the
	// partial outputs are still written on the way out. SIGTERM matters
	// beyond the terminal: it is what container runtimes and process
	// supervisors send first, and the serve daemon's drain hangs off it.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	suite.Resilience = resilience.Policy{MaxRetries: *maxRetries}
	if *resume && *checkpointDir == "" {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	if *checkpointDir != "" {
		store, err := resilience.NewStore(*checkpointDir)
		if err != nil {
			return err
		}
		suite.Checkpoints = store
		suite.Resume = *resume
	}
	plan, err := resilience.ParsePlan(*faultSpec)
	if err != nil {
		return err
	}
	suite.Faults = plan

	profiling := *profilePath != "" || *profileFoldPath != ""

	// The tracer exists only when some consumer asked for it; otherwise
	// every instrumented path stays on the documented no-op branch. The
	// live endpoints (-pprof serves /metrics and /status), the event
	// log and the resource monitor are consumers too.
	var tracer *obs.Tracer
	if *tracePath != "" || *telemetry || *pprofAddr != "" || *eventsPath != "" || profiling || *monitorFlag {
		tracer = obs.New()
		suite.Obs = tracer
	}
	if profiling {
		tracer.EnableProfiling()
	}
	// The sampler runs for the whole invocation. A nil sampler keeps
	// every monitor-aware path on its no-op branch.
	var sampler *monitor.Sampler
	if *monitorFlag {
		sampler = monitor.New(monitor.Config{Interval: *monitorInterval, Tracer: tracer})
		sampler.Start()
		defer sampler.Stop()
	}
	// Open every output file before training so an unwritable path fails
	// in milliseconds, not after a multi-minute sweep.
	var traceFile *os.File
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			return fmt.Errorf("create %s: %w", *tracePath, err)
		}
		traceFile = f
		defer traceFile.Close()
	}
	outFiles := make(map[string]*os.File)
	for _, path := range []string{*profilePath, *profileFoldPath, *eventsPath} {
		if path == "" || outFiles[path] != nil {
			continue
		}
		f, err := os.Create(path)
		if err != nil {
			return fmt.Errorf("create %s: %w", path, err)
		}
		outFiles[path] = f
		defer f.Close()
	}
	if *pprofAddr != "" {
		ln, err := startPprof(*pprofAddr, tracer, sampler)
		if err != nil {
			return err
		}
		sink.printf("pprof listening on http://%s/debug/pprof/ (also /metrics, /status)", ln)
	}

	if len(targets) == 1 && targets[0] == "all" {
		targets = knownExperiments()
	}
	var collected []metrics.RunResult
	interrupted := false
	// inferErr carries a failed or cancelled sweep past the export
	// section below, so every requested artifact is still written before
	// the process exits non-zero.
	var inferErr error
	if inferMode {
		inferErr = runInferMode(ctx, os.Stdout, suite, inferCmdConfig{
			dataset:  *inferDataset,
			network:  *inferNetwork,
			batches:  *inferBatches,
			requests: *inferRequests,
			warmup:   *inferWarmup,
		})
		if ctx.Err() != nil {
			interrupted = true
		}
	} else {
		for _, t := range targets {
			text, rows, err := runExperiment(ctx, suite, t)
			collected = append(collected, rows...)
			if text != "" {
				fmt.Println(text)
			}
			if err != nil {
				if ctx.Err() != nil {
					// Cancellation is not a failure: stop sweeping, keep the
					// rows completed so far, and fall through to the exports
					// so the partial report is well-formed.
					sink.printf("interrupted during %s (%v); writing partial report", t, ctx.Err())
					interrupted = true
					break
				}
				return fmt.Errorf("%s: %w", t, err)
			}
		}
	}
	if *jsonPath != "" {
		if err := writeResults(*jsonPath, collected, metrics.WriteJSON); err != nil {
			return err
		}
		sink.printf("wrote %d run results to %s", len(collected), *jsonPath)
	}
	if *csvPath != "" {
		if err := writeResults(*csvPath, collected, metrics.WriteCSV); err != nil {
			return err
		}
		sink.printf("wrote %d run results to %s", len(collected), *csvPath)
	}
	if *lossCSVPath != "" {
		if err := writeResults(*lossCSVPath, collected, metrics.WriteLossCSV); err != nil {
			return err
		}
		sink.printf("wrote loss histories to %s", *lossCSVPath)
	}
	if *telemetry {
		if report := metrics.TelemetryReport(tracer.Snapshot()); report != "" {
			fmt.Println(report)
		}
	}
	if traceFile != nil {
		if err := writeTrace(traceFile, tracer); err != nil {
			return err
		}
		sink.printf("wrote %d spans to %s (open in chrome://tracing or https://ui.perfetto.dev)",
			tracer.SpanCount(), *tracePath)
		if n := tracer.Dropped(); n > 0 {
			sink.printf("warning: %d spans dropped after the %d-span buffer filled", n, tracer.SpanCount())
		}
	}
	if *profilePath != "" || *profileFoldPath != "" {
		prof := profile.Build(tracer.Spans())
		if f := outFiles[*profilePath]; f != nil {
			write := prof.WriteTable
			if strings.HasSuffix(*profilePath, ".csv") {
				write = prof.WriteCSV
			}
			if err := write(f); err != nil {
				return err
			}
			sink.printf("wrote attribution profile (%d span names, %.1f%% coverage) to %s",
				len(prof.Entries), prof.CoveragePct(), *profilePath)
		}
		if f := outFiles[*profileFoldPath]; f != nil {
			if err := prof.WriteFolded(f); err != nil {
				return err
			}
			sink.printf("wrote folded stacks to %s (flamegraph.pl or https://speedscope.app)", *profileFoldPath)
		}
	}
	if f := outFiles[*eventsPath]; f != nil {
		if err := obs.WriteEventsJSONL(f, tracer); err != nil {
			return err
		}
		sink.printf("wrote %d events to %s", len(tracer.Events()), *eventsPath)
		if n := tracer.EventsDropped(); n > 0 {
			sink.printf("warning: %d events dropped after the event buffer filled", n)
		}
	}
	if interrupted {
		sink.printf("partial report: %d run results completed before cancellation", len(collected))
	}
	return inferErr
}

// startPprof serves the live exposition endpoints (see
// mountIntrospection) on addr in the background, returning the bound
// address. A fresh mux per call keeps repeated starts (tests) from
// double-registering paths.
func startPprof(addr string, tr *obs.Tracer, sm *monitor.Sampler) (string, error) {
	mux := http.NewServeMux()
	mountIntrospection(mux, tr, sm, nil)
	srv := &http.Server{Addr: addr, Handler: mux}
	ln, err := newListener(addr)
	if err != nil {
		return "", fmt.Errorf("pprof listen %s: %w", addr, err)
	}
	go srv.Serve(ln) //nolint:errcheck // best-effort debug endpoint
	return ln.Addr().String(), nil
}

// mountIntrospection registers the live exposition endpoints on mux:
// net/http/pprof (via the default mux its import registered on),
// /metrics (Prometheus text exposition of the tracer's instruments) and
// /status (the JSON status document, with the latest resource-monitor
// sample when sm is live and the job core's view when srv is non-nil).
// Both the -pprof listener and `dlbench serve` use it.
func mountIntrospection(mux *http.ServeMux, tr *obs.Tracer, sm *monitor.Sampler, srv *server.Server) {
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := metrics.WritePrometheus(w, tr.Snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	start := time.Now()
	mux.HandleFunc("/status", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		st := statusView(tr, sm, time.Since(start))
		if srv != nil {
			sv := srv.Status()
			st.Server = &sv
		}
		if err := json.NewEncoder(w).Encode(st); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
}

// status is the JSON document served at /status: where the sweep is right
// now (cell, epoch, iteration, loss) plus the counter totals and, when
// the monitor is on, the latest resource sample. Under `dlbench serve`
// it also carries the job core's live view, which `dlbench top` renders.
type status struct {
	UptimeSeconds float64            `json:"uptime_seconds"`
	Cell          string             `json:"cell,omitempty"`
	Scale         string             `json:"scale,omitempty"`
	Epoch         int64              `json:"epoch"`
	Iteration     int64              `json:"iteration"`
	Loss          float64            `json:"loss"`
	AccuracyPct   float64            `json:"accuracy_pct"`
	Monitor       *monitor.Sample    `json:"monitor,omitempty"`
	Counters      map[string]int64   `json:"counters,omitempty"`
	Infos         map[string]string  `json:"infos,omitempty"`
	Server        *server.StatusView `json:"server,omitempty"`
}

// statusView assembles the /status document from a snapshot. NaN losses
// (diverged runs) are zeroed: encoding/json cannot represent them.
func statusView(tr *obs.Tracer, sm *monitor.Sampler, uptime time.Duration) status {
	s := tr.Snapshot()
	st := status{UptimeSeconds: uptime.Seconds()}
	if latest, ok := sm.Latest(); ok {
		st.Monitor = &latest
	}
	if s == nil {
		return st
	}
	st.Cell = s.Infos["suite.cell"]
	st.Scale = s.Infos["suite.scale"]
	st.Epoch = int64(s.Gauges["suite.epoch_idx"].Last)
	st.Iteration = int64(s.Gauges["suite.iter"].Last)
	st.AccuracyPct = s.Gauges["suite.accuracy_pct"].Last
	if l := s.Gauges["suite.loss"].Last; !math.IsNaN(l) && !math.IsInf(l, 0) {
		st.Loss = l
	}
	st.Counters = s.Counters
	st.Infos = s.Infos
	return st
}

// writeResults writes collected run rows with the given encoder.
func writeResults(path string, rows []metrics.RunResult, write func(io.Writer, []metrics.RunResult) error) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	if err := write(f, rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeTrace writes the Chrome trace_event export to the already-open
// trace file (created up front so bad paths fail before training).
func writeTrace(f *os.File, tr *obs.Tracer) error {
	if err := obs.WriteChromeTrace(f, tr); err != nil {
		return err
	}
	return f.Close()
}

func knownExperiments() []string {
	return []string{
		"table1", "table2", "table3", "table4", "table5",
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"table6", "table7",
		"fig8", "fig9", "table8", "table9",
		"noise", "shapes",
	}
}

func runExperiment(ctx context.Context, s *core.Suite, name string) (string, []metrics.RunResult, error) {
	switch name {
	case "table1":
		return tableI(), nil, nil
	case "table2":
		out, err := defaultsTable(framework.MNIST)
		return out, nil, err
	case "table3":
		out, err := defaultsTable(framework.CIFAR10)
		return out, nil, err
	case "table4":
		out, err := networksTable(framework.MNIST)
		return out, nil, err
	case "table5":
		out, err := networksTable(framework.CIFAR10)
		return out, nil, err
	case "fig1":
		r, err := s.Baseline(ctx, framework.MNIST)
		return r.Text, r.Rows, err
	case "fig2":
		r, err := s.Baseline(ctx, framework.CIFAR10)
		return r.Text, r.Rows, err
	case "fig3":
		r, err := s.DatasetDependent(ctx, framework.MNIST)
		return r.Text, r.Rows, err
	case "fig4":
		r, err := s.DatasetDependent(ctx, framework.CIFAR10)
		return r.Text, r.Rows, err
	case "fig5":
		r, err := s.CaffeConvergence(ctx)
		return r.Text, nil, err
	case "fig6":
		r, err := s.FrameworkDependent(ctx, framework.MNIST)
		return r.Text, r.Rows, err
	case "fig7":
		r, err := s.FrameworkDependent(ctx, framework.CIFAR10)
		return r.Text, r.Rows, err
	case "table6":
		out, err := s.SummaryTable(ctx, framework.MNIST)
		return out, nil, err
	case "table7":
		out, err := s.SummaryTable(ctx, framework.CIFAR10)
		return out, nil, err
	case "fig8":
		r, err := s.UntargetedRobustness(ctx)
		return r.Text, nil, err
	case "fig9", "table8", "table9":
		r, err := s.TargetedRobustness(ctx, 1)
		return r.Text, nil, err
	case "noise":
		r, err := s.NoiseSensitivity(ctx, nil)
		return r.Text, nil, err
	case "shapes":
		r, err := s.CheckShapes()
		return r.Text, nil, err
	default:
		return "", nil, fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(knownExperiments(), " "))
	}
}

// tableI renders the paper's Table I from the framework metadata.
func tableI() string {
	tbl := metrics.NewTable("Frameworks", "Version", "Hash Tag", "Library", "Interface", "LoC", "License", "Website")
	for _, fw := range framework.All {
		m := fw.Meta()
		tbl.AddRow(m.Name, m.Version, m.HashTag, m.Library, m.Interface, fmt.Sprintf("%d", m.LoC), m.License, m.Website)
	}
	return "Table I: Deep Learning Software Frameworks and Basic Properties\n\n" + tbl.String()
}

// defaultsTable renders Table II (MNIST) or III (CIFAR-10).
func defaultsTable(ds framework.DatasetID) (string, error) {
	tbl := metrics.NewTable("Framework", "Algorithm", "Base Learning Rate", "Batch Size", "#Max Iterations", "#Epochs")
	for _, fw := range framework.All {
		d, err := framework.Defaults(fw, ds)
		if err != nil {
			return "", err
		}
		lr := fmt.Sprintf("%g", d.BaseLR)
		if d.SecondLR != 0 {
			lr = fmt.Sprintf("%g -> %g", d.BaseLR, d.SecondLR)
		}
		tbl.AddRow(fw.String(), strings.ToUpper(d.Algorithm), lr,
			fmt.Sprintf("%d", d.BatchSize), fmt.Sprintf("%d", d.MaxIters), fmt.Sprintf("%g", d.Epochs))
	}
	n := "II"
	if ds == framework.CIFAR10 {
		n = "III"
	}
	return fmt.Sprintf("Table %s: Default training parameters on %s\n\n%s", n, ds, tbl.String()), nil
}

// networksTable renders Table IV (MNIST) or V (CIFAR-10) via the built
// network summaries.
func networksTable(ds framework.DatasetID) (string, error) {
	in, err := framework.InputFor(ds)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	n := "IV"
	if ds == framework.CIFAR10 {
		n = "V"
	}
	fmt.Fprintf(&b, "Table %s: Primary Default Neural Network Parameters on %s\n\n", n, ds)
	for _, fw := range framework.All {
		net, err := framework.BuildNetwork(fw, ds, in, framework.NetworkOptions{Device: device.GPU, DropoutRate: -1})
		if err != nil {
			return "", err
		}
		b.WriteString(net.Summary())
		b.WriteString("\n")
	}
	return b.String(), nil
}
