package server

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/device"
	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// State is a job's lifecycle position. Transitions are strictly forward:
//
//	queued -> running -> completed | failed
//	queued -> requeued (drain or crash) -> queued (after recovery)
//
// Admission rejections (rate limit, queue full, shed) never create a job
// at all — the client gets the verdict synchronously in the HTTP status.
type State string

// Job states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateCompleted State = "completed"
	StateFailed    State = "failed"
)

// JobSpec is the client-facing description of one benchmark/training job
// — the POST /jobs request body. Field semantics mirror the CLI: a job is
// one cell of the paper's configuration matrix at a chosen scale and
// seed, optionally under the deterministic fault-injection harness.
type JobSpec struct {
	// Framework executes the run ("tensorflow"/"tf", "caffe", "torch").
	Framework string `json:"framework"`
	// Dataset is the dataset trained and tested on ("mnist", "cifar10").
	Dataset string `json:"dataset"`
	// SettingsFramework and SettingsDataset name the default-setting
	// source for transfer cells; empty means the job's own framework and
	// dataset (a baseline run).
	SettingsFramework string `json:"settings_framework,omitempty"`
	SettingsDataset   string `json:"settings_dataset,omitempty"`
	// Device selects the modeled device ("cpu" or "gpu", default gpu).
	Device string `json:"device,omitempty"`
	// Scale is the experiment scale ("test", "small", "full"; default
	// "test" — a service should default to its cheapest workload).
	Scale string `json:"scale,omitempty"`
	// Seed is the master seed (default 42).
	Seed uint64 `json:"seed,omitempty"`
	// MaxRetries bounds in-process divergence/fault recovery inside the
	// training loop (default 2, the CLI default).
	MaxRetries *int `json:"max_retries,omitempty"`
	// Faults arms the deterministic fault-injection harness with the CLI
	// grammar (e.g. "crash@1", "nan@3;operr@5:site=graph.forward").
	Faults string `json:"faults,omitempty"`
	// TimeoutMS bounds the job's execution once started; 0 picks the
	// server default. The server clamps it to its configured maximum.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	// Mode selects the workload: "train" (default) runs one training cell;
	// "infer" measures serving latency for one (framework, batch) point.
	Mode string `json:"mode,omitempty"`
	// Network, Batch and Requests parameterize an inference job: the
	// served model plan ("default" or "resnet"), the request batch size
	// (default 1 — the interactive-serving case), and the number of timed
	// requests (default 20). Train jobs must leave them unset.
	Network  string `json:"network,omitempty"`
	Batch    int    `json:"batch,omitempty"`
	Requests int    `json:"requests,omitempty"`
}

// Validate resolves the spec against the framework/dataset registries and
// normalizes defaults in place, so a journaled spec replays identically.
func (js *JobSpec) Validate() error {
	if js.Framework == "" {
		return fmt.Errorf("missing framework")
	}
	fw, err := framework.ParseID(js.Framework)
	if err != nil {
		return err
	}
	switch js.Mode {
	case "":
		js.Mode = "train"
	case "train", "infer":
	default:
		return fmt.Errorf("unknown mode %q (want train or infer)", js.Mode)
	}
	if js.Mode == "train" {
		// The int8 column is inference-only (engine.ErrInferenceOnly at the
		// first TrainBatch); reject it at admission, not mid-run.
		if fw == framework.Int8 {
			return fmt.Errorf("framework %q cannot train (inference-only); submit with mode=infer", js.Framework)
		}
		if js.Network != "" || js.Batch != 0 || js.Requests != 0 {
			return fmt.Errorf("network/batch/requests are inference-job fields; set mode=infer")
		}
	} else {
		if js.Network == "" {
			js.Network = "default"
		}
		switch js.Network {
		case "default", "resnet":
		default:
			return fmt.Errorf("unknown network %q (want default or resnet)", js.Network)
		}
		if js.Batch == 0 {
			js.Batch = 1
		}
		if js.Batch < 1 || js.Batch > 256 {
			return fmt.Errorf("inference batch %d out of range [1,256]", js.Batch)
		}
		if js.Requests == 0 {
			js.Requests = 20
		}
		if js.Requests < 1 || js.Requests > 10000 {
			return fmt.Errorf("inference requests %d out of range [1,10000]", js.Requests)
		}
		if js.Faults != "" {
			return fmt.Errorf("fault injection targets the training loop; inference jobs cannot set faults")
		}
		if js.SettingsFramework != "" || js.SettingsDataset != "" {
			return fmt.Errorf("settings transfer applies to training cells; inference jobs cannot set it")
		}
	}
	if js.Dataset == "" {
		return fmt.Errorf("missing dataset")
	}
	if _, err := framework.ParseDataset(js.Dataset); err != nil {
		return err
	}
	if js.SettingsFramework != "" {
		if _, err := framework.ParseID(js.SettingsFramework); err != nil {
			return err
		}
	}
	if js.SettingsDataset != "" {
		if _, err := framework.ParseDataset(js.SettingsDataset); err != nil {
			return err
		}
	}
	switch js.Device {
	case "", "cpu", "CPU", "gpu", "GPU":
	default:
		return fmt.Errorf("unknown device %q (want cpu or gpu)", js.Device)
	}
	if js.Scale == "" {
		js.Scale = "test"
	}
	if _, err := core.ScaleByName(js.Scale); err != nil {
		return err
	}
	if js.Seed == 0 {
		js.Seed = 42
	}
	if js.MaxRetries != nil && *js.MaxRetries < 0 {
		return fmt.Errorf("negative max_retries")
	}
	if _, err := resilience.ParsePlan(js.Faults); err != nil {
		return err
	}
	if js.TimeoutMS < 0 {
		return fmt.Errorf("negative timeout_ms")
	}
	return nil
}

// RunSpec converts the validated spec to the suite's cell description.
func (js *JobSpec) RunSpec() (core.RunSpec, error) {
	fw, err := framework.ParseID(js.Framework)
	if err != nil {
		return core.RunSpec{}, err
	}
	ds, err := framework.ParseDataset(js.Dataset)
	if err != nil {
		return core.RunSpec{}, err
	}
	spec := core.RunSpec{Framework: fw, SettingsFW: fw, Data: ds, SettingsDS: ds, Device: device.GPU}
	if js.SettingsFramework != "" {
		if spec.SettingsFW, err = framework.ParseID(js.SettingsFramework); err != nil {
			return core.RunSpec{}, err
		}
	}
	if js.SettingsDataset != "" {
		if spec.SettingsDS, err = framework.ParseDataset(js.SettingsDataset); err != nil {
			return core.RunSpec{}, err
		}
	}
	if js.Device == "cpu" || js.Device == "CPU" {
		spec.Device = device.CPU
	}
	return spec, nil
}

// InferConfig converts a validated infer-mode spec to the suite's sweep
// configuration: one serving column, one batch size.
func (js *JobSpec) InferConfig() (core.InferConfig, error) {
	fw, err := framework.ParseID(js.Framework)
	if err != nil {
		return core.InferConfig{}, err
	}
	ds, err := framework.ParseDataset(js.Dataset)
	if err != nil {
		return core.InferConfig{}, err
	}
	cfg := core.InferConfig{
		Dataset:    ds,
		Device:     device.GPU,
		Network:    js.Network,
		BatchSizes: []int{js.Batch},
		Columns:    []framework.ID{fw},
		Requests:   js.Requests,
	}
	if js.Device == "cpu" || js.Device == "CPU" {
		cfg.Device = device.CPU
	}
	return cfg, nil
}

// suiteKey groups jobs that can share a warm suite (datasets, trained
// models): each worker caches one suite per (scale, seed).
func (js *JobSpec) suiteKey() string {
	return fmt.Sprintf("%s/%d", js.Scale, js.Seed)
}

// Job is one accepted job's full record: the spec, its lifecycle, and —
// once it ran — the result or error. All mutable fields are guarded by
// mu; View snapshots them for JSON rendering.
type Job struct {
	ID     string
	Spec   JobSpec
	Client string

	// tracer receives the job's lifecycle and execution spans and its
	// typed events. It lives and dies with the job record: /trace and
	// /profile render its spans, and the /jobs/{id}/events stream renders
	// its events incrementally as JSONL.
	tracer *obs.Tracer

	mu        sync.Mutex
	state     State
	err       string
	result    *metrics.RunResult
	submitted time.Time
	started   time.Time
	finished  time.Time
	recovered bool // resurrected from the journal after a restart
	done      chan struct{}

	// queueSpan is the open job.queue_wait span between the queue push
	// (handler or recovery goroutine) and the worker pop; queueNS and
	// execNS are the durations of the job's job.queue_wait and job.exec
	// spans, the server-attributed halves of its e2e latency.
	queueSpan     obs.Span
	queueSpanOpen bool
	queueNS       int64
	execNS        int64
}

// newJob constructs a queued job with a tracer of its own, which carries
// the job ID as its "scope.id" info so every export of it names the job.
func newJob(id string, spec JobSpec, client string, recovered bool) *Job {
	tr := obs.New()
	tr.Info("scope.id").Set(id)
	return &Job{
		ID:        id,
		Spec:      spec,
		Client:    client,
		tracer:    tr,
		state:     StateQueued,
		submitted: time.Now(),
		recovered: recovered,
		done:      make(chan struct{}),
	}
}

// beginQueueWait opens the job.queue_wait span. The handler (or recovery
// loop) opens it immediately before the queue push; the worker that pops
// the job closes it, so the span measures true queue residency.
func (j *Job) beginQueueWait() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.queueSpanOpen {
		return
	}
	j.queueSpan = j.tracer.Span(SpanQueueWait, "server")
	j.queueSpanOpen = true
}

// endQueueWait closes the queue-wait span, accumulates its duration and
// returns it (0, false when no span was open — direct-run tests).
func (j *Job) endQueueWait() (time.Duration, bool) {
	j.mu.Lock()
	open := j.queueSpanOpen
	span := j.queueSpan
	j.queueSpanOpen = false
	j.mu.Unlock()
	if !open {
		return 0, false
	}
	d := span.End()
	j.mu.Lock()
	j.queueNS += d.Nanoseconds()
	j.mu.Unlock()
	return d, true
}

// setExec records the job.exec span's duration.
func (j *Job) setExec(d time.Duration) {
	j.mu.Lock()
	j.execNS = d.Nanoseconds()
	j.mu.Unlock()
}

// Done returns a channel closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// State returns the current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// terminal reports whether s is an end state.
func terminal(s State) bool { return s == StateCompleted || s == StateFailed }

// start marks the job running.
func (j *Job) start() {
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
}

// finish records the terminal outcome and releases Done waiters.
func (j *Job) finish(res *metrics.RunResult, err error) {
	j.mu.Lock()
	j.finished = time.Now()
	if err != nil {
		j.state = StateFailed
		j.err = err.Error()
	} else {
		j.state = StateCompleted
		j.result = res
	}
	j.mu.Unlock()
	close(j.done)
}

// requeue returns a running job to the queued state: a hard stop
// interrupted it, and the journal recovers it on the next start.
func (j *Job) requeue() {
	j.mu.Lock()
	j.state = StateQueued
	j.mu.Unlock()
}

// JobView is the JSON rendering of a job served by GET /jobs/{id}.
type JobView struct {
	ID     string  `json:"id"`
	State  State   `json:"state"`
	Spec   JobSpec `json:"spec"`
	Client string  `json:"client,omitempty"`
	// Recovered marks a job resurrected from the journal by a restart.
	Recovered bool   `json:"recovered,omitempty"`
	Error     string `json:"error,omitempty"`
	// QueueSeconds and RunSeconds split the job's latency into time
	// spent waiting for a worker and time from its start to its end (or
	// to now, while it runs).
	QueueSeconds float64 `json:"queue_seconds"`
	RunSeconds   float64 `json:"run_seconds"`
	// ExecSeconds is the duration of the job's job.exec span and
	// E2ESeconds the total submission-to-terminal latency. Both are 0
	// until the stage (or the job) completes, so a finished job's record
	// carries its full server-attributed latency breakdown.
	ExecSeconds float64 `json:"exec_seconds,omitempty"`
	E2ESeconds  float64 `json:"e2e_seconds,omitempty"`
	// Result is the completed run's row (accuracy, wall/model times,
	// convergence), absent until completion.
	Result *metrics.RunResult `json:"result,omitempty"`
}

// View snapshots the job for rendering.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:          j.ID,
		State:       j.state,
		Spec:        j.Spec,
		Client:      j.Client,
		Recovered:   j.recovered,
		Error:       j.err,
		Result:      j.result,
		ExecSeconds: float64(j.execNS) / 1e9,
	}
	if j.queueNS > 0 {
		// The job.queue_wait spans' total, exact even for recovered jobs
		// whose submitted clock restarted.
		v.QueueSeconds = float64(j.queueNS) / 1e9
	} else if j.started.IsZero() {
		v.QueueSeconds = time.Since(j.submitted).Seconds()
	} else {
		v.QueueSeconds = j.started.Sub(j.submitted).Seconds()
	}
	if !j.started.IsZero() {
		end := j.finished
		if end.IsZero() {
			end = time.Now()
		}
		v.RunSeconds = end.Sub(j.started).Seconds()
	}
	if !j.finished.IsZero() {
		v.E2ESeconds = j.finished.Sub(j.submitted).Seconds()
	}
	return v
}
