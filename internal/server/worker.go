package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/resilience"
)

// RunFunc executes one job attempt and returns its result. The production
// implementation trains the job's cell over the existing executors; tests
// substitute stubs to exercise the robustness machinery without training.
type RunFunc func(ctx context.Context, shard int, j *Job) (*metrics.RunResult, error)

// worker is one shard's service loop: it drains its shard FIFO, sleeping
// on the shard's wake channel when empty, and exits when drain starts
// (after finishing the job in hand — that is the graceful half of the
// drain contract).
func (s *Server) worker(shard int) {
	defer s.wg.Done()
	for {
		select {
		case <-s.draining:
			return
		default:
		}
		j := s.q.pop(shard)
		if j == nil {
			select {
			case <-s.draining:
				return
			case <-s.q.wake[shard]:
				continue
			}
		}
		s.gQueueDepth.Set(float64(s.q.depth()))
		s.runJob(shard, j)
		select {
		case <-s.draining:
			return
		default:
		}
	}
}

// runJob drives one job through its attempt loop: per-attempt deadline,
// panic containment, jittered-backoff retries for failures the platform
// understands as transient, and journaled terminal transitions. A job
// interrupted by the hard-stop deadline is left non-terminal so the
// journal recovers it on the next start.
func (s *Server) runJob(shard int, j *Job) {
	s.inflight.Add(1)
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
	if j.Spec.TimeoutMS > 0 {
		timeout = time.Duration(j.Spec.TimeoutMS) * time.Millisecond
	}
	if timeout > s.cfg.MaxJobTimeout {
		timeout = s.cfg.MaxJobTimeout
	}

	for {
		j.start()
		j.tracer.Emit("job.start", map[string]any{
			"id": j.ID, "attempt": j.attempt(), "shard": shard, "cell": j.Spec.Framework + "/" + j.Spec.Dataset,
		})
		exec := j.tracer.Span(SpanExec, "server")
		ctx, cancel := context.WithTimeout(s.hardCtx, timeout)
		res, err := s.runAttempt(ctx, shard, j)
		cancel()
		attemptDur := exec.End()
		j.addExec(attemptDur)
		s.hExec.Observe(attemptDur)
		if err == nil {
			s.reportJob(j, res, nil, StateCompleted)
			s.cCompleted.Inc()
			return
		}
		// Hard stop during drain: the process is going away. Leave the job
		// non-terminal (its journal submit has no matching state record),
		// so restart recovery re-runs it — accepted work is never lost.
		if s.hardCtx.Err() != nil {
			s.logf("job %s interrupted by hard stop; left journaled for recovery", j.ID)
			j.requeue()
			return
		}
		if s.retryable(err) && j.attempt() < 1+s.cfg.JobRetries {
			s.cRetries.Inc()
			delay := resilience.JitteredBackoff(j.attempt()-1, retryBase, retryMax)
			j.tracer.Emit("job.retry", map[string]any{"id": j.ID, "attempt": j.attempt(), "delay_ms": delay.Milliseconds(), "error": err.Error()})
			j.requeue()
			backoff := j.tracer.Span(SpanBackoff, "server")
			serr := resilience.Sleep(s.hardCtx, delay)
			backoff.End()
			if serr != nil {
				return
			}
			continue
		}
		s.reportJob(j, nil, err, StateFailed)
		s.cFailed.Inc()
		return
	}
}

// reportJob is the terminal stage: the job.done event, the in-memory
// finish, the journaled state transition, and the e2e latency
// observation — bracketed by the job.report span so the trace's root
// timeline extends to (essentially) the job's terminal timestamp.
func (s *Server) reportJob(j *Job, res *metrics.RunResult, err error, st State) {
	report := j.tracer.Span(SpanReport, "server")
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

// runAttempt executes one attempt under panic containment: a panic
// anywhere in the run path (suite construction, data synthesis, executor
// dispatch beyond the engine's own recovery) fails this job alone and the
// shard keeps serving.
func (s *Server) runAttempt(ctx context.Context, shard int, j *Job) (res *metrics.RunResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			buf := make([]byte, 4096)
			n := runtime.Stack(buf, false)
			s.cPanics.Inc()
			s.logf("job %s: contained panic: %v\n%s", j.ID, r, buf[:n])
			err = fmt.Errorf("%w: job runner: %v", engine.ErrPanic, r)
		}
	}()
	return s.run(ctx, shard, j)
}

// retryable classifies failures worth a fresh attempt on a clean suite:
// transient injected faults, divergence, contained panics, and exhausted
// in-process retry budgets (a new attempt restarts that budget). Crashes
// (simulated process kills), cancellation/deadline and configuration
// errors are job-fatal.
func (s *Server) retryable(err error) bool {
	if errors.Is(err, resilience.ErrInjectedCrash) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return errors.Is(err, resilience.ErrInjected) ||
		errors.Is(err, resilience.ErrDiverged) ||
		errors.Is(err, resilience.ErrRetriesExhausted) ||
		errors.Is(err, engine.ErrPanic)
}

// suiteRunner is the production RunFunc: it trains the job's cell on a
// per-shard suite cache so jobs sharing (scale, seed) reuse datasets and
// trained models, while a failure or memory pressure evicts the cache —
// fault isolation beats cache warmth.
type suiteRunner struct {
	shards []map[string]*core.Suite
	server *Server
}

// maxSuitesPerShard bounds each shard's suite cache; beyond it the whole
// cache is dropped (suites pin datasets and trained models, and a shard
// hammered with distinct seeds must not accumulate them).
const maxSuitesPerShard = 4

func newSuiteRunner(s *Server, shards int) *suiteRunner {
	r := &suiteRunner{shards: make([]map[string]*core.Suite, shards), server: s}
	for i := range r.shards {
		r.shards[i] = make(map[string]*core.Suite)
	}
	return r
}

// run executes one attempt. Only the owning shard's worker touches
// r.shards[shard], so the cache needs no lock.
func (r *suiteRunner) run(ctx context.Context, shard int, j *Job) (*metrics.RunResult, error) {
	key := j.Spec.shardKey()
	suite := r.shards[shard][key]
	if suite == nil {
		scale, err := core.ScaleByName(j.Spec.Scale)
		if err != nil {
			return nil, err
		}
		if suite, err = core.NewSuite(scale, j.Spec.Seed); err != nil {
			return nil, err
		}
		if len(r.shards[shard]) >= maxSuitesPerShard {
			r.shards[shard] = make(map[string]*core.Suite)
		}
		r.shards[shard][key] = suite
	}
	var row *metrics.RunResult
	var err error
	if j.Spec.Mode == "infer" {
		row, err = r.runInfer(ctx, suite, j)
	} else {
		row, err = r.runTrain(ctx, suite, j)
	}
	if err != nil {
		// The failed run may have left the cached suite mid-state (a
		// contained panic especially); drop it so the next attempt starts
		// clean. Fault isolation at the cost of one cold cache.
		delete(r.shards[shard], key)
		return nil, err
	}
	if r.server.underMemoryPressure() {
		// Degrade before the monitor watermark starts shedding: dropping
		// dormant models trades warm-cache latency for headroom.
		suite.ReleaseModels()
		r.shards[shard] = map[string]*core.Suite{}
		runtime.GC()
		r.server.cCacheDrops.Inc()
	}
	return row, nil
}

// runTrain executes one training attempt on the shard's suite.
func (r *suiteRunner) runTrain(ctx context.Context, suite *core.Suite, j *Job) (*metrics.RunResult, error) {
	spec, err := j.Spec.RunSpec()
	if err != nil {
		return nil, err
	}
	// Each job measures fresh: drop the cell's memoized model so training
	// re-executes (a cache hit would return stale metrics and skip the
	// job's fault plan entirely). Datasets and suite state stay warm.
	suite.ReleaseModel(spec)
	// Per-job wiring: the job's own tracer observes this run (streamed on
	// /jobs/{id}/events), the job's fault plan arms the harness, and the
	// in-process resilience budget comes from the spec.
	maxRetries := 2
	if j.Spec.MaxRetries != nil {
		maxRetries = *j.Spec.MaxRetries
	}
	suite.Obs = j.tracer
	suite.Resilience = resilience.Policy{MaxRetries: maxRetries}
	suite.Faults, _ = resilience.ParsePlan(j.Spec.Faults) // validated at admission
	suite.Progress = func(format string, args ...any) {
		j.tracer.Emit("job.progress", map[string]any{"id": j.ID, "line": fmt.Sprintf(format, args...)})
	}
	row, err := suite.RunContext(ctx, spec)
	suite.Obs, suite.Faults, suite.Progress = nil, nil, nil
	if err != nil {
		return nil, err
	}
	return &row, nil
}

// runInfer executes one inference attempt: a single-column, single-batch
// sweep on the shard's suite. Unlike training jobs, the memoized model is
// NOT released first — cache warmth is the point of a serving measurement,
// so repeated inference jobs against one shard pay training once and then
// measure pure serving latency. The event stream terminates with an
// "infer.summary" event carrying the latency distribution.
func (r *suiteRunner) runInfer(ctx context.Context, suite *core.Suite, j *Job) (*metrics.RunResult, error) {
	cfg, err := j.Spec.InferConfig()
	if err != nil {
		return nil, err
	}
	suite.Obs = j.tracer
	suite.Progress = func(format string, args ...any) {
		j.tracer.Emit("job.progress", map[string]any{"id": j.ID, "line": fmt.Sprintf(format, args...)})
	}
	rep, err := suite.InferSweep(ctx, cfg)
	suite.Obs, suite.Progress = nil, nil
	if err != nil {
		return nil, err
	}
	if len(rep.Cells) != 1 {
		return nil, fmt.Errorf("inference sweep returned %d cells, want 1", len(rep.Cells))
	}
	cell := rep.Cells[0]
	dev := j.Spec.Device
	if dev == "" {
		dev = "gpu"
	}
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
		Device:      dev,
		Test:        metrics.TimeRecord{WallSeconds: cell.WallSeconds},
		AccuracyPct: cell.AccuracyPct,
		Converged:   true,
	}, nil
}
