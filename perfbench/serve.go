package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/server"
)

// serve: an in-process server.New with its journal on and one worker,
// serving one closed-loop client over one keep-alive loopback HTTP
// connection. The client submits MNIST mode=infer batch-1 jobs with the
// spec's default request count, rotating tf → caffe → torch → int8.
// A job cycle is POST /jobs, /jobs/{id}/events read to its end,
// GET /jobs/{id} and GET /jobs/{id}/profile. Set-up warms the server's
// model cache with one job per column.

// buildDir is the checkout's build directory, where the journal lives.
const buildDir = ".bench_build"

type serveBench struct {
	srv     *server.Server
	srvObs  *obs.Tracer
	httpSrv *http.Server
	served  chan error
	client  *http.Client
	base    string
	dir     string
	seed    uint64

	// accuracy is each column's job accuracy, from its warm-up job.
	accuracy map[string]float64
	// jobIssues collects jobs that did not complete cleanly or reported
	// an accuracy other than their column's.
	jobIssues []string
	jobs      int

	lastJob string

	// Traced only: a suite outside the server with the same models, for
	// core.InferSweep and the accuracy pass called directly.
	suite *core.Suite
	nets  map[string]*nn.Network
}

func newServeBench(ctx context.Context, opt options, tr *tracer) (bench, error) {
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(buildDir, "serve-")
	if err != nil {
		return nil, err
	}
	b := &serveBench{dir: dir, accuracy: make(map[string]float64), srvObs: obs.New()}
	ok := false
	defer func() {
		if !ok {
			b.close()
		}
	}()
	spec := jobSpec(colTF, opt.seed)
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	b.seed = spec.Seed

	sp := tr.begin("server.new_ms")
	b.srv, err = server.New(server.Config{
		Workers:     1,
		JournalPath: filepath.Join(dir, "journal.jsonl"),
		Tracer:      b.srvObs,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b.base = "http://" + ln.Addr().String()
	b.httpSrv = &http.Server{Handler: b.srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.httpSrv.Serve(ln) }()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1}}

	if tr != nil {
		b.suite, err = core.NewSuite(core.ScaleTest, b.seed)
		if err != nil {
			return nil, err
		}
		if b.nets, _, err = trainMNIST(ctx, b.suite, tr); err != nil {
			return nil, err
		}
	}
	// Warm-up: one job per column trains the server's models.
	for _, c := range allCols {
		sp := tr.begin("serve.warm_ms." + c)
		acc, err := b.cycle(ctx, c, nil)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("warm-up job %s: %w", c, err)
		}
		b.accuracy[c] = acc
	}
	ok = true
	return b, nil
}

// jobSpec is the job the client submits for a column.
func jobSpec(col string, seed uint64) server.JobSpec {
	return server.JobSpec{Framework: col, Dataset: "mnist", Mode: "infer", Seed: seed, Scale: "test"}
}

func (b *serveBench) columns() []column {
	cols := make([]column, len(allCols))
	for i, c := range allCols {
		c := c
		cols[i] = column{
			name: c, reps: 1,
			op: func(ctx context.Context, tr *tracer) error {
				acc, err := b.cycle(ctx, c, tr)
				if err != nil {
					return err
				}
				if want := b.accuracy[c]; acc != want {
					b.jobIssues = append(b.jobIssues, fmt.Sprintf("%s job reported accuracy %.4f%%, its column's jobs %.4f%%", c, acc, want))
				}
				return nil
			},
			probe: func(ctx context.Context, tr *tracer) error { return b.probe(ctx, c, tr) },
		}
	}
	return cols
}

// cycle runs one job cycle and returns the job's accuracy. A job that is
// rejected, fails, or ends without an infer.summary is an error.
func (b *serveBench) cycle(ctx context.Context, col string, tr *tracer) (float64, error) {
	start := time.Now()
	sp := tr.begin("server.submit_ms")
	id, err := b.submit(ctx, col)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("serve.events_ms")
	acc, lag, err := b.events(ctx, id)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("serve.record_ms")
	queueS, execS, err := b.record(ctx, id)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	sp = tr.begin("server.profile_ms")
	_, err = b.fetch(ctx, "/jobs/"+id+"/profile", io.Discard)
	tr.end(sp)
	if err != nil {
		return 0, err
	}
	cycle := time.Since(start)
	b.jobs++
	tr.value("server.stream_lag_ms", ms(lag))
	tr.value("server.queue_ms", queueS*1e3)
	tr.value("server.exec_ms."+col, execS*1e3)
	tr.value("server.overhead_ms."+col, ms(cycle)-execS*1e3)
	b.lastJob = id
	return acc, nil
}

func (b *serveBench) submit(ctx context.Context, col string) (string, error) {
	body, err := json.Marshal(jobSpec(col, b.seed))
	if err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+"/jobs", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := b.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var reply struct {
		ID     string `json:"id"`
		Status string `json:"status"`
		Reason string `json:"reason"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return "", fmt.Errorf("submit reply: %w", err)
	}
	if resp.StatusCode != http.StatusAccepted || reply.ID == "" {
		return "", fmt.Errorf("submit %s: %d %s %s", col, resp.StatusCode, reply.Status, reply.Reason)
	}
	return reply.ID, nil
}

// events reads the job's event stream to its end. It returns the
// accuracy from the infer.summary event and the time from receiving the
// terminal job.done event to the end of the stream.
func (b *serveBench) events(ctx context.Context, id string) (float64, time.Duration, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return 0, 0, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, 0, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	acc := math.NaN()
	state := ""
	var doneAt time.Time
	for sc.Scan() {
		var ev struct {
			Type     string   `json:"type"`
			State    string   `json:"state"`
			Accuracy *float64 `json:"accuracy_pct"`
			Error    string   `json:"error"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return 0, 0, fmt.Errorf("events %s: %w", id, err)
		}
		switch ev.Type {
		case "infer.summary":
			if ev.Accuracy != nil {
				acc = *ev.Accuracy
			}
		case "job.done":
			state, doneAt = ev.State, time.Now()
			if ev.Error != "" {
				return 0, 0, fmt.Errorf("job %s: %s", id, ev.Error)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, 0, fmt.Errorf("events %s: %w", id, err)
	}
	lag := time.Since(doneAt)
	if state != string(server.StateCompleted) {
		return 0, 0, fmt.Errorf("job %s ended %q, want completed", id, state)
	}
	if math.IsNaN(acc) {
		return 0, 0, fmt.Errorf("job %s: no infer.summary event", id)
	}
	return acc, lag, nil
}

// record fetches the job record and returns the server-attributed queue
// and execution seconds from its headers.
func (b *serveBench) record(ctx context.Context, id string) (queueS, execS float64, err error) {
	var view server.JobView
	var hdr http.Header
	err = b.getJSON(ctx, "/jobs/"+id, &view, &hdr)
	if err != nil {
		return 0, 0, err
	}
	if view.State != server.StateCompleted {
		return 0, 0, fmt.Errorf("job %s is %s, want completed", id, view.State)
	}
	if queueS, err = strconv.ParseFloat(hdr.Get("X-DLBench-Queue-Seconds"), 64); err != nil {
		return 0, 0, fmt.Errorf("queue header: %w", err)
	}
	if execS, err = strconv.ParseFloat(hdr.Get("X-DLBench-Exec-Seconds"), 64); err != nil {
		return 0, 0, fmt.Errorf("exec header: %w", err)
	}
	return queueS, execS, nil
}

func (b *serveBench) getJSON(ctx context.Context, path string, v any, hdr *http.Header) error {
	var buf bytes.Buffer
	h, err := b.fetch(ctx, path, &buf)
	if err != nil {
		return err
	}
	if hdr != nil {
		*hdr = h
	}
	return json.Unmarshal(buf.Bytes(), v)
}

func (b *serveBench) fetch(ctx context.Context, path string, w io.Writer) (http.Header, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, b.base+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := b.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(w, resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return resp.Header, nil
}

// probe is the traced-only follow-up of a job cycle: the job's
// job.journal_fsync span from /jobs/{id}/trace, and, outside the server,
// the column's executor build, accuracy pass and core.InferSweep with the
// job's exact config.
func (b *serveBench) probe(ctx context.Context, col string, tr *tracer) error {
	var trace struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := b.getJSON(ctx, "/jobs/"+b.lastJob+"/trace", &trace, nil); err != nil {
		return err
	}
	for _, ev := range trace.TraceEvents {
		if ev.Name == server.SpanJournalSync {
			tr.value("server.fsync_ms", ev.Dur/1e3)
		}
	}

	fw := frameworkOf[col]
	sp := tr.begin("engine.build_ms." + col)
	exec, err := framework.NewExecutor(fw, b.nets[col], evalBatch)
	tr.end(sp)
	if err != nil {
		return err
	}
	_, testSet, err := b.suite.Datasets(framework.MNIST)
	if err != nil {
		return err
	}
	prepFW := fw
	if fw == framework.Int8 {
		prepFW = framework.TensorFlow
	}
	sp = tr.begin("core.eval_ms." + col)
	acc, _, err := evalAccuracy(ctx, exec, testSet, framework.PreprocessingFor(prepFW, framework.MNIST))
	tr.end(sp)
	if err != nil {
		return err
	}
	if q, ok := exec.(*engine.QuantExecutor); ok {
		q.Quantized().ReleaseBuffers()
	}

	spec := jobSpec(col, b.seed)
	if err := spec.Validate(); err != nil {
		return err
	}
	cfg, err := spec.InferConfig()
	if err != nil {
		return err
	}
	sp = tr.begin("core.sweep_ms." + col)
	rep, err := b.suite.InferSweep(ctx, cfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(rep.Cells) != 1 || rep.Cells[0].AccuracyPct != acc || acc != b.accuracy[col] {
		b.jobIssues = append(b.jobIssues, fmt.Sprintf("%s: direct accuracy pass %.4f%% and sweep disagree with the server's jobs (%.4f%%)", col, acc, b.accuracy[col]))
	}
	return nil
}

func (b *serveBench) fingerprint() string {
	var fp []string
	for _, c := range allCols {
		fp = append(fp, fmt.Sprintf("%s:%x", c, math.Float64bits(b.accuracy[c])))
	}
	return strings.Join(fp, ",")
}

func (b *serveBench) check(chk *checks) {
	chk.expect(b.jobs > 0, "serve: at least one job completed")
	chk.expect(len(b.jobIssues) == 0, "serve: every job reports its column's accuracy: %s", strings.Join(b.jobIssues, "; "))
}

func (b *serveBench) layerMetrics(m map[string]float64) {
	snap := b.srvObs.Snapshot()
	c := snap.Counters
	accepted := float64(c[server.CounterAccepted])
	offered := accepted + float64(c[server.CounterRateLimited]+c[server.CounterQueueFull]+c[server.CounterShed])
	if offered > 0 {
		m["server.accept_ratio"] = accepted / offered
	}
	m["server.retries"] = float64(c[server.CounterRetries])
}

func (b *serveBench) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if b.httpSrv != nil {
		b.httpSrv.Shutdown(ctx) //nolint:errcheck // teardown; the serve loop's error is read below
		if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "perfbench: http server: %v\n", err)
		}
		b.httpSrv = nil
	}
	if b.client != nil {
		b.client.CloseIdleConnections()
	}
	if b.srv != nil {
		if _, err := b.srv.Shutdown(ctx); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: server shutdown: %v\n", err)
		}
		b.srv = nil
	}
	if b.suite != nil {
		b.suite.ReleaseModels()
		b.suite = nil
	}
	if b.dir != "" {
		os.RemoveAll(b.dir)
		b.dir = ""
	}
}
