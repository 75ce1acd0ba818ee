package server

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// RunFunc executes one job on the given worker and returns its result.
// The production implementation trains the job's cell over the existing
// executors; tests substitute stubs to exercise the robustness machinery
// without training.
type RunFunc func(ctx context.Context, worker int, j *Job) (*metrics.RunResult, error)

// worker is one service loop: it takes the oldest queued job, runs it,
// and exits once drain starts (after finishing the job in hand — that is
// the graceful half of the drain contract).
func (s *Server) worker(w int) {
	defer s.wg.Done()
	for {
		j := s.q.pop()
		if j == nil {
			return
		}
		s.gQueueDepth.Set(float64(s.q.depth()))
		s.runJob(w, j)
	}
}

// runJob runs one job once, under its deadline and panic containment,
// and journals it as completed or failed. The job is not run again on
// failure: results are deterministic in the spec, so a second run would
// replay the same error, and the training loop's checkpoint rollback
// (the spec's max_retries) is the one retry layer. A job interrupted by
// the hard-stop deadline is left non-terminal so the journal recovers it
// on the next start.
func (s *Server) runJob(w int, j *Job) {
	inflight := s.inflight.Add(1)
	s.setOccupancy()
	defer func() {
		s.inflight.Add(-1)
		s.setOccupancy()
	}()

	// The worker has the job: close its queue-wait span (opened by the
	// admission handler or the recovery loop) and feed its duration to
	// the stage histogram behind dlbench_server_queue_wait_seconds.
	if wait, ok := j.endQueueWait(); ok {
		s.hQueueWait.Observe(wait)
	}

	timeout := s.cfg.JobTimeout
	if ms := j.Spec.TimeoutMS; ms > 0 {
		// Clamp in milliseconds: past ~9.2e12 ms the Duration product
		// would overflow into a negative, already expired deadline.
		timeout = s.cfg.MaxJobTimeout
		if ms <= timeout.Milliseconds() {
			timeout = time.Duration(ms) * time.Millisecond
		}
	}
	if timeout > s.cfg.MaxJobTimeout {
		timeout = s.cfg.MaxJobTimeout
	}

	j.start()
	// inflight counts the jobs executing as this one starts, itself
	// included: concurrent jobs share the CPUs, so it qualifies the
	// job's measured times.
	j.tracer.Emit("job.start", map[string]any{
		"id": j.ID, "inflight": inflight, "worker": w, "cell": j.Spec.Framework + "/" + j.Spec.Dataset,
	})
	exec := j.tracer.Span(SpanExec, "server")
	ctx, cancel := context.WithTimeout(s.hardCtx, timeout)
	res, err := s.runContained(ctx, w, j)
	cancel()
	d := exec.End()
	j.setExec(d)
	s.hExec.Observe(d)
	switch {
	case err == nil:
		s.reportJob(j, res, nil, StateCompleted)
		s.cCompleted.Inc()
	case s.hardCtx.Err() != nil:
		// Hard stop during drain: the process is going away. Leave the job
		// non-terminal (its journal submit has no matching state record),
		// so restart recovery re-runs it — accepted work is never lost.
		s.logf("job %s interrupted by hard stop; left journaled for recovery", j.ID)
		j.requeue()
	default:
		s.reportJob(j, nil, err, StateFailed)
		s.cFailed.Inc()
	}
}

// reportJob is the terminal stage: the job.done event, the in-memory
// finish, the journaled state transition, and the e2e latency
// observation — bracketed by the job.report span so the trace's root
// timeline extends to (essentially) the job's terminal timestamp. The
// daemon's retry counter adds the rollback retries the job's training
// loop made.
func (s *Server) reportJob(j *Job, res *metrics.RunResult, err error, st State) {
	report := j.tracer.Span(SpanReport, "server")
	s.cRetries.Add(j.tracer.Counter(resilience.CounterRetries).Value())
	fields := map[string]any{"id": j.ID, "state": string(st)}
	if err != nil {
		fields["error"] = err.Error()
	}
	j.tracer.Emit("job.done", fields)
	j.finish(res, err)
	s.journalState(j.ID, st)
	report.End()
	if v := j.View(); v.E2ESeconds > 0 {
		s.hE2E.Observe(time.Duration(v.E2ESeconds * float64(time.Second)))
	}
}

// setOccupancy publishes in-flight jobs as a fraction of the worker pool.
func (s *Server) setOccupancy() {
	n := float64(s.inflight.Load())
	s.gInflight.Set(n)
	s.gOccupancy.Set(n / float64(s.cfg.Workers))
}

// runContained runs the job under panic containment: a panic anywhere
// in the run path (suite construction, data synthesis, executor dispatch
// beyond the engine's own recovery) fails this job alone and the worker
// keeps serving.
func (s *Server) runContained(ctx context.Context, w int, j *Job) (res *metrics.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			n := runtime.Stack(buf, false)
			s.cPanics.Inc()
			s.logf("job %s: contained panic: %v\n%s", j.ID, r, buf[:n])
			err = fmt.Errorf("%w: job runner: %v", engine.ErrPanic, r)
		}
	}()
	return s.run(ctx, w, j)
}

// suiteRunner is the production RunFunc. Each worker keeps its own suite
// cache keyed by (scale, seed), so its jobs reuse datasets and trained
// models, while a failure or memory pressure evicts the cache — fault
// isolation beats cache warmth.
type suiteRunner struct {
	caches []map[string]*core.Suite // one per worker
	server *Server
}

// maxSuitesPerWorker bounds each worker's suite cache; beyond it the
// whole cache is dropped (suites pin datasets and trained models, and a
// worker fed many distinct seeds must not accumulate them).
const maxSuitesPerWorker = 4

func newSuiteRunner(s *Server, workers int) *suiteRunner {
	r := &suiteRunner{caches: make([]map[string]*core.Suite, workers), server: s}
	for i := range r.caches {
		r.caches[i] = make(map[string]*core.Suite)
	}
	return r
}

// run executes the job on worker w's suite for its (scale, seed). Only
// worker w touches r.caches[w], so the cache needs no lock.
func (r *suiteRunner) run(ctx context.Context, w int, j *Job) (*metrics.RunResult, error) {
	key := j.Spec.suiteKey()
	suite := r.caches[w][key]
	if suite == nil {
		scale, err := core.ScaleByName(j.Spec.Scale)
		if err != nil {
			return nil, err
		}
		if suite, err = core.NewSuite(scale, j.Spec.Seed); err != nil {
			return nil, err
		}
		if len(r.caches[w]) >= maxSuitesPerWorker {
			r.caches[w] = make(map[string]*core.Suite)
		}
		r.caches[w][key] = suite
	}
	// Per-job wiring: the job's own tracer observes this run (streamed on
	// /jobs/{id}/events) and receives its progress lines. Every field a
	// job sets is reset when it ends, so a job runs the same on any
	// worker, whatever ran there before.
	suite.Obs = j.tracer
	suite.Progress = func(format string, args ...any) {
		j.tracer.Emit("job.progress", map[string]any{"id": j.ID, "line": fmt.Sprintf(format, args...)})
	}
	completed := false
	defer func() {
		suite.Obs, suite.Progress, suite.Faults, suite.Resilience = nil, nil, nil, resilience.Policy{}
		if !completed {
			// The failed run may have left the suite mid-state (a
			// contained panic especially); drop it so the worker's next
			// job starts clean. Fault isolation at the cost of one cold
			// cache.
			delete(r.caches[w], key)
		}
	}()
	var row *metrics.RunResult
	var err error
	if j.Spec.Mode == "infer" {
		row, err = r.runInfer(ctx, suite, j)
	} else {
		row, err = r.runTrain(ctx, suite, j)
	}
	if err != nil {
		return nil, err
	}
	completed = true
	if r.server.underMemoryPressure() {
		// Degrade before the monitor watermark starts shedding: dropping
		// dormant models trades warm-cache latency for headroom.
		suite.ReleaseModels()
		r.caches[w] = map[string]*core.Suite{}
		runtime.GC()
		r.server.cCacheDrops.Inc()
	}
	return row, nil
}

// runTrain executes one training job on the worker's suite.
func (r *suiteRunner) runTrain(ctx context.Context, suite *core.Suite, j *Job) (*metrics.RunResult, error) {
	spec, err := j.Spec.RunSpec()
	if err != nil {
		return nil, err
	}
	// Each job measures fresh: drop the cell's memoized model so training
	// re-executes (a cache hit would return stale metrics and skip the
	// job's fault plan entirely). Datasets and suite state stay warm.
	suite.ReleaseModel(spec)
	// The job's fault plan arms the harness, and the in-process
	// resilience budget comes from the spec.
	maxRetries := 2
	if j.Spec.MaxRetries != nil {
		maxRetries = *j.Spec.MaxRetries
	}
	suite.Resilience = resilience.Policy{MaxRetries: maxRetries}
	suite.Faults, _ = resilience.ParsePlan(j.Spec.Faults) // validated at admission
	row, err := suite.RunContext(ctx, spec)
	if err != nil {
		return nil, err
	}
	return &row, nil
}

// runInfer executes one inference job: a single-column, single-batch
// sweep on the worker's suite. Unlike training jobs, the memoized model
// is NOT released first — cache warmth is the point of a serving
// measurement, so repeated inference jobs on one worker pay training once
// and then measure pure serving latency. The event stream terminates with
// an "infer.summary" event carrying the latency distribution.
func (r *suiteRunner) runInfer(ctx context.Context, suite *core.Suite, j *Job) (*metrics.RunResult, error) {
	cfg, err := j.Spec.InferConfig()
	if err != nil {
		return nil, err
	}
	rep, err := suite.InferSweep(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if len(rep.Cells) != 1 {
		return nil, fmt.Errorf("inference sweep returned %d cells, want 1", len(rep.Cells))
	}
	cell := rep.Cells[0]
	j.tracer.Emit("infer.summary", map[string]any{
		"id": j.ID, "framework": cell.Framework, "network": cell.Network,
		"dataset": cell.Dataset, "batch": cell.Batch, "requests": cell.Requests,
		"latency_p50_ms": cell.LatencyP50MS, "latency_p95_ms": cell.LatencyP95MS,
		"latency_p99_ms": cell.LatencyP99MS, "throughput_sps": cell.ThroughputSPS,
		"accuracy_pct": cell.AccuracyPct,
	})
	// Shape the serving measurement into the job-result row: Test carries
	// the timed serving wall clock, Settings names the served model plan.
	return &metrics.RunResult{
		Framework:   cell.Framework,
		Settings:    "infer " + cell.Network + " b" + fmt.Sprint(cell.Batch),
		Dataset:     cell.Dataset,
		Device:      cfg.Device.String(),
		Test:        metrics.TimeRecord{WallSeconds: cell.WallSeconds},
		AccuracyPct: cell.AccuracyPct,
		Converged:   true,
	}, nil
}
