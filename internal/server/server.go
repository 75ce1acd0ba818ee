// Package server turns the benchmark suite into a long-running,
// fault-isolated benchmark-as-a-service daemon — the `dlbench serve`
// backend. The paper frames benchmarking as a repeatable, service-style
// activity (fixed configs, comparable metrics, trajectories over time);
// this package supplies the robustness layer such a service needs when
// many clients submit many (framework, dataset, workload) jobs:
//
//   - Admission control: a bounded, sharded job queue. A full shard
//     rejects with 429 + Retry-After instead of queueing unboundedly;
//     per-client token buckets stop any one client from starving the
//     rest; and a monitor-driven watermark sheds new work with 503 when
//     heap or CPU pressure says the daemon should degrade rather than
//     OOM.
//   - Fault isolation: each job runs on a sharded worker pool with a
//     per-job deadline, panic containment and jittered-backoff retries
//     (reusing internal/resilience), so a diverging, crashing or
//     panicking job fails alone while the daemon keeps serving.
//   - Crash safety: accepted jobs are journaled (fsync before the 202);
//     a daemon killed hard replays the journal on restart and re-runs
//     everything that was accepted but never finished. SIGTERM drains:
//     in-flight jobs complete, queued jobs stay journaled for the next
//     process, and a hard-stop deadline bounds the wait.
//
// Observability rides the existing surfaces: server gauges and counters
// live on an obs.Tracer (exported by /metrics via the Prometheus
// exposition), and each job's execution streams as the standard JSONL
// event-log format on /jobs/{id}/events.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/monitor"
	"repro/internal/obs"
	"repro/internal/profile"
)

// Server instrument names (exported on /metrics as dlbench_server_*).
const (
	GaugeQueueDepth    = "server.queue_depth"
	GaugeInflight      = "server.inflight_jobs"
	CounterAccepted    = "server.jobs.accepted"
	CounterCompleted   = "server.jobs.completed"
	CounterFailed      = "server.jobs.failed"
	CounterShed        = "server.jobs.shed"
	CounterRateLimited = "server.jobs.ratelimited"
	CounterQueueFull   = "server.jobs.queue_full"
	CounterRecovered   = "server.jobs.recovered"
	CounterRetries     = "server.jobs.retries"
	CounterPanics      = "server.jobs.panics"
	CounterCacheDrops  = "server.suite_cache_drops"

	// Per-stage latency histograms (exported as the
	// dlbench_server_*_seconds summary families) and the worker-occupancy
	// gauge (in-flight jobs as a fraction of workers, 0..1).
	HistQueueWait        = "server.queue_wait"
	HistExec             = "server.exec"
	HistE2E              = "server.e2e"
	GaugeWorkerOccupancy = "server.worker_occupancy"
)

// Lifecycle span names recorded on each job's tracer: admission
// (with the journal fsync as a child), queue residency, per-attempt
// execution, retry backoff, and terminal reporting. Sequential and
// non-overlapping, so /jobs/{id}/trace shows one root-level timeline
// tiling the job's e2e latency and /jobs/{id}/profile attributes it.
const (
	SpanAdmission   = "job.admission"
	SpanJournalSync = "job.journal_fsync"
	SpanQueueWait   = "job.queue_wait"
	SpanExec        = "job.exec"
	SpanBackoff     = "job.backoff"
	SpanReport      = "job.report"
)

// Config parameterizes New. The zero value is usable for tests: 2
// workers, a small queue, no rate limit, no shedding, no journal.
type Config struct {
	// Workers is the worker (and queue shard) count; default 2.
	Workers int
	// QueueCap is the per-shard queue capacity; default 16.
	QueueCap int
	// RatePerSec and Burst parameterize the per-client token bucket;
	// RatePerSec <= 0 disables rate limiting.
	RatePerSec float64
	Burst      int
	// ShedHeapBytes and ShedCPUPct are the load-shedding watermarks:
	// when the monitor's latest sample shows heap in-use or CPU% above
	// either, new submissions are shed with 503. Zero disables that
	// watermark; shedding also requires a Sampler.
	ShedHeapBytes uint64
	ShedCPUPct    float64
	// JobTimeout is the default per-job execution deadline; MaxJobTimeout
	// caps client-requested timeouts. Defaults: 2m and 10m.
	JobTimeout    time.Duration
	MaxJobTimeout time.Duration
	// JobRetries is the number of job-level retry attempts for transient
	// failures (beyond the training loop's own in-process resilience
	// retries); default 1. Attempts are separated by a jittered backoff
	// between retryBase and retryMax.
	JobRetries int
	// JournalPath enables the crash-safe job journal; empty disables it
	// (accepted jobs then die with the process).
	JournalPath string
	// MaxJobsRetained bounds the in-memory job table; beyond it the
	// oldest terminal jobs are evicted. Default 16384.
	MaxJobsRetained int
	// Tracer receives the server's gauges and counters (a fresh private
	// tracer when nil — instruments always work). Each job records its
	// own spans and events on a tracer of its own (see Job).
	Tracer *obs.Tracer
	// Sampler, when non-nil, drives load shedding and memory-pressure
	// cache drops from its latest resource sample.
	Sampler *monitor.Sampler
	// Run overrides the production suite-backed runner (tests).
	Run RunFunc
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// The jittered backoff between job-level attempts grows from retryBase
// and is capped at retryMax.
const (
	retryBase = 100 * time.Millisecond
	retryMax  = 5 * time.Second
)

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 16
	}
	if c.Burst <= 0 {
		c.Burst = 8
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 2 * time.Minute
	}
	if c.MaxJobTimeout <= 0 {
		c.MaxJobTimeout = 10 * time.Minute
	}
	if c.JobRetries < 0 {
		c.JobRetries = 0
	}
	if c.MaxJobsRetained <= 0 {
		c.MaxJobsRetained = 16384
	}
	return c
}

// Server is the benchmark-as-a-service daemon core: admission, queueing,
// execution and recovery. HTTP transport is the caller's (Handler plugs
// into any mux/listener); lifecycle is New -> serve traffic -> Shutdown.
type Server struct {
	cfg     Config
	q       *queue
	lim     *limiter
	journal *journal
	tracer  *obs.Tracer
	run     RunFunc

	// draining closes when Shutdown begins: admission stops and workers
	// exit after their current job. hardCtx cancels at the hard-stop
	// deadline, interrupting in-flight jobs.
	draining  chan struct{}
	drainOnce sync.Once
	hardCtx   context.Context
	hardStop  context.CancelFunc

	wg       sync.WaitGroup
	inflight atomic.Int64
	seq      atomic.Int64

	jobsMu sync.Mutex
	jobs   map[string]*Job
	jobIDs []string // insertion order, for listing and eviction

	gQueueDepth, gInflight, gOccupancy             *obs.Gauge
	cAccepted, cCompleted, cFailed, cShed          *obs.Counter
	cRateLimited, cQueueFull, cRecovered, cRetries *obs.Counter
	cPanics, cCacheDrops                           *obs.Counter
	hQueueWait, hExec, hE2E                        *obs.Histogram
}

// New builds the server, replays the journal (re-enqueueing every job
// that was accepted but never finished by a previous process), and starts
// the worker pool.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	tr := cfg.Tracer
	if tr == nil {
		tr = obs.New()
	}
	hardCtx, hardStop := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		q:        newQueue(cfg.Workers, cfg.QueueCap),
		lim:      newLimiter(cfg.RatePerSec, cfg.Burst),
		tracer:   tr,
		draining: make(chan struct{}),
		hardCtx:  hardCtx,
		hardStop: hardStop,
		jobs:     make(map[string]*Job),
	}
	s.gQueueDepth = tr.Gauge(GaugeQueueDepth)
	s.gInflight = tr.Gauge(GaugeInflight)
	s.gOccupancy = tr.Gauge(GaugeWorkerOccupancy)
	s.hQueueWait = tr.Histogram(HistQueueWait)
	s.hExec = tr.Histogram(HistExec)
	s.hE2E = tr.Histogram(HistE2E)
	s.cAccepted = tr.Counter(CounterAccepted)
	s.cCompleted = tr.Counter(CounterCompleted)
	s.cFailed = tr.Counter(CounterFailed)
	s.cShed = tr.Counter(CounterShed)
	s.cRateLimited = tr.Counter(CounterRateLimited)
	s.cQueueFull = tr.Counter(CounterQueueFull)
	s.cRecovered = tr.Counter(CounterRecovered)
	s.cRetries = tr.Counter(CounterRetries)
	s.cPanics = tr.Counter(CounterPanics)
	s.cCacheDrops = tr.Counter(CounterCacheDrops)
	s.gQueueDepth.Set(0)
	s.gInflight.Set(0)
	s.gOccupancy.Set(0)

	s.run = cfg.Run
	if s.run == nil {
		runner := newSuiteRunner(s, cfg.Workers)
		s.run = runner.run
	}

	var recovered []pendingJob
	if cfg.JournalPath != "" {
		jl, pending, maxSeq, warnings, err := openJournal(cfg.JournalPath)
		if err != nil {
			hardStop()
			return nil, err
		}
		for _, w := range warnings {
			s.logf("journal: %s", w)
		}
		s.journal = jl
		s.seq.Store(maxSeq)
		recovered = pending
	}

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker(i)
	}

	// Recovered jobs re-enter through the normal queue. The queue was
	// sized for admission control, not recovery bursts; jobs that do not
	// fit stay journaled (their submit records were preserved by
	// compaction) and will be recovered by a later, emptier start.
	for _, p := range recovered {
		j := newJob(p.ID, p.Spec, p.Client, true)
		j.beginQueueWait()
		if !s.q.push(j) {
			j.endQueueWait()
			s.logf("recovery: queue full, job %s left journaled for next start", p.ID)
			continue
		}
		s.remember(j)
		s.cRecovered.Inc()
		s.logf("recovered job %s (%s on %s) from journal", p.ID, p.Spec.Framework, p.Spec.Dataset)
		s.gQueueDepth.Set(float64(s.q.depth()))
	}
	return s, nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// Recovered returns how many journaled jobs this process resurrected.
func (s *Server) Recovered() int64 { return s.cRecovered.Value() }

// journalState records a terminal transition, logging (not failing the
// job) on journal errors — the result is already in memory.
func (s *Server) journalState(id string, st State) {
	if err := s.journal.state(id, st); err != nil {
		s.logf("journal: %v", err)
	}
}

// remember inserts j into the job table, evicting the oldest terminal
// jobs past the retention bound. An evicted job's tracer goes with its
// record, so its /trace and /profile 404 from then on.
func (s *Server) remember(j *Job) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	s.jobs[j.ID] = j
	s.jobIDs = append(s.jobIDs, j.ID)
	if len(s.jobIDs) <= s.cfg.MaxJobsRetained {
		return
	}
	kept := s.jobIDs[:0]
	evicted := 0
	for _, id := range s.jobIDs {
		if evicted < len(s.jobIDs)-s.cfg.MaxJobsRetained && terminal(s.jobs[id].State()) {
			delete(s.jobs, id)
			evicted++
			continue
		}
		kept = append(kept, id)
	}
	s.jobIDs = kept
}

// Job returns the job with the given ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// retained snapshots the job table in submission order.
func (s *Server) retained() []*Job {
	s.jobsMu.Lock()
	defer s.jobsMu.Unlock()
	jobs := make([]*Job, 0, len(s.jobIDs))
	for _, id := range s.jobIDs {
		jobs = append(jobs, s.jobs[id])
	}
	return jobs
}

// JobViews snapshots every retained job in submission order.
func (s *Server) JobViews() []JobView {
	jobs := s.retained()
	out := make([]JobView, 0, len(jobs))
	for _, j := range jobs {
		out = append(out, j.View())
	}
	return out
}

// StatusView is the daemon's live-introspection snapshot, served as the
// "server" object of the /status JSON and rendered by `dlbench top`.
type StatusView struct {
	Draining bool  `json:"draining"`
	Workers  int   `json:"workers"`
	Inflight int64 `json:"inflight"`
	// QueueDepths is per shard (index = shard = worker).
	QueueDepths []int `json:"queue_depths"`
	// ActiveJobs lists every non-terminal job with its current lifecycle
	// span — what each worker (and the queue) is doing right now.
	ActiveJobs []ActiveJob `json:"active_jobs,omitempty"`
	// Stages summarizes queue wait, execution (one observation per
	// attempt) and e2e latency over all jobs so far, keyed queue_wait,
	// exec and e2e. They are the histograms /metrics exports as the
	// dlbench_server_*_seconds summaries, so the quantiles are bucketed
	// estimates.
	Stages map[string]obs.DurStats `json:"stages"`
}

// ActiveJob is one non-terminal job in the status view.
type ActiveJob struct {
	ID    string `json:"id"`
	State State  `json:"state"`
	// Span is the innermost open span on the job's tracer
	// ("job.queue_wait" for queued jobs; "graph.forward" etc. mid-run).
	Span     string `json:"span,omitempty"`
	Attempts int    `json:"attempts"`
	Cell     string `json:"cell"`
}

// Status snapshots the daemon for live introspection.
func (s *Server) Status() StatusView {
	sv := StatusView{
		Draining:    s.Draining(),
		Workers:     s.cfg.Workers,
		Inflight:    s.inflight.Load(),
		QueueDepths: s.q.depths(),
		Stages: map[string]obs.DurStats{
			"queue_wait": s.hQueueWait.Stats(),
			"exec":       s.hExec.Stats(),
			"e2e":        s.hE2E.Stats(),
		},
	}
	for _, j := range s.retained() {
		st := j.State()
		if terminal(st) {
			continue
		}
		sv.ActiveJobs = append(sv.ActiveJobs, ActiveJob{
			ID:       j.ID,
			State:    st,
			Span:     j.tracer.CurrentSpan(),
			Attempts: j.attempt(),
			Cell:     j.Spec.Framework + "/" + j.Spec.Dataset,
		})
	}
	return sv
}

// retryAfterSeconds estimates when a rejected submission is worth
// retrying: the current backlog divided across workers, in mean
// job-attempt durations (one second before any attempt ran), floored at
// one second.
func (s *Server) retryAfterSeconds() int {
	mean := time.Duration(s.hExec.Stats().MeanNS())
	if mean <= 0 {
		mean = time.Second
	}
	backlog := float64(s.q.depth()+int(s.inflight.Load())) / float64(s.cfg.Workers)
	secs := int(math.Ceil(backlog * mean.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// underMemoryPressure reports heap in-use above half the shed watermark —
// the point where the runner starts dropping caches to stay below it.
func (s *Server) underMemoryPressure() bool {
	if s.cfg.Sampler == nil || s.cfg.ShedHeapBytes == 0 {
		return false
	}
	smp, ok := s.cfg.Sampler.Latest()
	return ok && smp.HeapInuseBytes > s.cfg.ShedHeapBytes/2
}

// shedVerdict consults the monitor watermarks: a non-empty reason means
// new work is shed.
func (s *Server) shedVerdict() string {
	if s.cfg.Sampler == nil {
		return ""
	}
	smp, ok := s.cfg.Sampler.Latest()
	if !ok {
		return ""
	}
	if s.cfg.ShedHeapBytes > 0 && smp.HeapInuseBytes > s.cfg.ShedHeapBytes {
		return fmt.Sprintf("heap in-use %d bytes above watermark %d", smp.HeapInuseBytes, s.cfg.ShedHeapBytes)
	}
	if s.cfg.ShedCPUPct > 0 && smp.CPUPct > s.cfg.ShedCPUPct {
		return fmt.Sprintf("cpu %.0f%% above watermark %.0f%%", smp.CPUPct, s.cfg.ShedCPUPct)
	}
	return ""
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// BeginDrain stops admission (submissions get 503 "draining", queued-job
// event streams terminate) without waiting for workers. Idempotent; part
// of Shutdown, exposed separately so a transport can end its own
// long-lived requests before blocking on the job drain.
func (s *Server) BeginDrain() {
	s.drainOnce.Do(func() { close(s.draining) })
	s.q.close()
}

// Shutdown drains the server: admission stops immediately, workers finish
// their in-flight jobs, and queued jobs stay journaled for the next
// process. When ctx expires first, the hard stop cancels in-flight jobs
// (they too stay journaled, since they never reached a terminal state).
// Returns the number of jobs left pending for recovery.
func (s *Server) Shutdown(ctx context.Context) (pending int, err error) {
	s.BeginDrain()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		s.hardStop()
		<-done
		err = fmt.Errorf("server: hard stop: drain deadline exceeded with %d job(s) in flight", s.inflight.Load())
	}
	s.hardStop()
	left := s.q.drainPending()
	s.gQueueDepth.Set(0)
	if jerr := s.journal.close(); jerr != nil && err == nil {
		err = jerr
	}
	return len(left), err
}

// --- HTTP transport ---

// Handler returns the daemon's HTTP API:
//
//	POST /jobs            submit a job (202, or 400/429/503)
//	GET  /jobs            list retained jobs
//	GET  /jobs/{id}       one job's state and result
//	GET  /jobs/{id}/events  stream the job's JSONL event log
//	GET  /jobs/{id}/trace   the job's Chrome trace_event span tree
//	GET  /jobs/{id}/profile the job's attribution profile
//	GET  /healthz         200 serving / 503 draining
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs", s.handleList)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// submitReply is the POST /jobs response body — both the 202 acceptance
// and every explicit rejection carry one, so a client always has a
// machine-readable verdict.
type submitReply struct {
	ID     string `json:"id,omitempty"`
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone is client's problem
}

// clientKey identifies the submitting client for rate limiting.
func clientKey(r *http.Request) string {
	if c := r.Header.Get("X-DLBench-Client"); c != "" {
		return c
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// decodeSpec reads a POST /jobs body: one JSON JobSpec within 1 MiB and
// nothing after it but white space. A non-nil w lets the server close the
// connection of a longer body.
func decodeSpec(w http.ResponseWriter, body io.ReadCloser) (JobSpec, error) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, body, 1<<20))
	if err := dec.Decode(&spec); err != nil {
		return spec, err
	}
	// Anything after the spec, even a second spec, rejects the whole
	// body: the daemon must not journal and run part of a request.
	if err := dec.Decode(&struct{}{}); err != io.EOF {
		return spec, errors.New("data after the job spec object")
	}
	return spec, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, submitReply{Status: "draining", Reason: "server is shutting down"})
		return
	}
	client := clientKey(r)
	if ok, retry := s.lim.allow(client, time.Now()); !ok {
		s.cRateLimited.Inc()
		secs := int(math.Ceil(retry.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, submitReply{
			Status: "ratelimited", Reason: fmt.Sprintf("client %q over %g jobs/s", client, s.cfg.RatePerSec),
			RetryAfterSeconds: secs,
		})
		return
	}
	if reason := s.shedVerdict(); reason != "" {
		s.cShed.Inc()
		secs := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusServiceUnavailable, submitReply{Status: "shed", Reason: reason, RetryAfterSeconds: secs})
		return
	}
	spec, err := decodeSpec(w, r.Body)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, submitReply{Status: "invalid", Reason: "bad JSON: " + err.Error()})
		return
	}
	if err := spec.Validate(); err != nil {
		writeJSON(w, http.StatusBadRequest, submitReply{Status: "invalid", Reason: err.Error()})
		return
	}
	id := fmt.Sprintf("j-%d", s.seq.Add(1))
	// The job's tracer starts here: admission is the first span of its
	// lifecycle trace, with the fsync isolated as a child so a slow disk
	// is visible in /jobs/{id}/trace as journal time, not queue time.
	j := newJob(id, spec, client, false)
	adm := j.tracer.Span(SpanAdmission, "server")
	// Durability before acknowledgement: the journal record lands (and
	// syncs) before the queue push and before the client sees the 202.
	sync := j.tracer.Span(SpanJournalSync, "server")
	err = s.journal.submit(j)
	sync.End()
	if err != nil {
		adm.End()
		s.logf("journal: %v", err)
		writeJSON(w, http.StatusInternalServerError, submitReply{Status: "error", Reason: "journal write failed"})
		return
	}
	adm.End()
	j.beginQueueWait()
	if !s.q.push(j) {
		// Rejected after journaling: record the rejection so restart
		// recovery does not resurrect a job the client was told to retry.
		j.endQueueWait()
		s.journalState(id, StateFailed)
		s.cQueueFull.Inc()
		secs := s.retryAfterSeconds()
		w.Header().Set("Retry-After", strconv.Itoa(secs))
		writeJSON(w, http.StatusTooManyRequests, submitReply{
			Status: "queue_full", Reason: "job queue at capacity", RetryAfterSeconds: secs,
		})
		return
	}
	s.remember(j)
	s.cAccepted.Inc()
	s.gQueueDepth.Set(float64(s.q.depth()))
	writeJSON(w, http.StatusAccepted, submitReply{ID: id, Status: string(StateQueued)})
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, struct {
		Jobs []JobView `json:"jobs"`
	}{Jobs: s.JobViews()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, submitReply{Status: "unknown", Reason: "no such job"})
		return
	}
	v := j.View()
	// Server-attributed latency as headers, so a client (cmd/loadgen)
	// can split its observed end-to-end latency into queue wait vs
	// execution without parsing the body.
	w.Header().Set("X-DLBench-Queue-Seconds", strconv.FormatFloat(v.QueueSeconds, 'f', 6, 64))
	w.Header().Set("X-DLBench-Exec-Seconds", strconv.FormatFloat(v.ExecSeconds, 'f', 6, 64))
	writeJSON(w, http.StatusOK, v)
}

// handleTrace serves the job's span tree as Chrome trace_event JSON —
// the same exporter as the CLI -trace flag, loadable in chrome://tracing
// or Perfetto. Available at any lifecycle stage; a completed job's trace
// tiles its whole e2e latency (admission → queue wait → exec → report).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, submitReply{Status: "unknown", Reason: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := obs.WriteChromeTrace(w, j.tracer); err != nil {
		s.logf("trace export: %v", err)
	}
}

// handleProfile serves the job's attribution profile (self/cum time per
// span name) built from the same spans as /trace. ?format=table (default)
// | csv | folded.
func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, submitReply{Status: "unknown", Reason: "no such job"})
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "table", "folded":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	case "csv":
		w.Header().Set("Content-Type", "text/csv")
	default:
		writeJSON(w, http.StatusBadRequest, submitReply{Status: "invalid", Reason: fmt.Sprintf("unknown format %q (want table, csv or folded)", format)})
		return
	}
	if err := profile.Build(j.tracer.Spans()).Write(w, format); err != nil {
		s.logf("profile export: %v", err)
	}
}

// handleEvents streams the job's event log as JSONL: everything recorded
// so far immediately, then new events as they appear, until the job
// reaches a terminal state (or the client goes away, or drain ends the
// stream). The wire format is exactly the -events file export.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.Job(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, submitReply{Status: "unknown", Reason: "no such job"})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	flusher, _ := w.(http.Flusher)
	// Commit the response immediately: a queued job may have no events
	// yet, and a streaming client must see headers (and start reading)
	// before the first event lands, not after.
	w.WriteHeader(http.StatusOK)
	if flusher != nil {
		flusher.Flush()
	}
	offset := 0
	ticker := time.NewTicker(100 * time.Millisecond)
	defer ticker.Stop()
	for {
		evs := j.tracer.Events()
		for _, ev := range evs[offset:] {
			b, err := obs.EventLine(ev)
			if err != nil {
				return
			}
			if _, err := w.Write(b); err != nil {
				return
			}
		}
		if len(evs) > offset && flusher != nil {
			flusher.Flush()
		}
		offset = len(evs)
		if terminal(j.State()) && offset == len(j.tracer.Events()) {
			// Satellite of the seq contract: when the tracer overflowed and
			// dropped events, say so explicitly at stream end instead of
			// leaving the client to infer it from the seq gap alone.
			if n := j.tracer.EventsDropped(); n > 0 {
				if b, err := obs.EventLine(obs.Event{Type: "events.dropped", Fields: map[string]any{"count": n}}); err == nil {
					w.Write(b) //nolint:errcheck // terminal line, client gone is fine
				}
			}
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-s.draining:
			// Drain ends open streams: a queued job may never run in this
			// process, and graceful shutdown must not wait on spectators.
			return
		case <-j.Done():
			// Loop once more to flush the terminal events.
		case <-ticker.C:
		}
	}
}

func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}
