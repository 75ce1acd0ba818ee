package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/resilience"
)

// TestInferSpecValidation pins the admission contract for inference jobs:
// the int8 column is inference-only, inference knobs are rejected on
// training jobs, and infer-mode defaults normalize in place.
func TestInferSpecValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec JobSpec
		ok   bool
	}{
		{"int8 train rejected", JobSpec{Framework: "int8", Dataset: "mnist"}, false},
		{"int8 infer accepted", JobSpec{Framework: "int8", Dataset: "mnist", Mode: "infer"}, true},
		{"tf infer accepted", JobSpec{Framework: "tf", Dataset: "mnist", Mode: "infer"}, true},
		{"resnet plan accepted", JobSpec{Framework: "torch", Dataset: "mnist", Mode: "infer", Network: "resnet"}, true},
		{"unknown mode", JobSpec{Framework: "tf", Dataset: "mnist", Mode: "serve"}, false},
		{"batch on train job", JobSpec{Framework: "tf", Dataset: "mnist", Batch: 4}, false},
		{"requests on train job", JobSpec{Framework: "tf", Dataset: "mnist", Requests: 10}, false},
		{"network on train job", JobSpec{Framework: "tf", Dataset: "mnist", Network: "resnet"}, false},
		{"unknown network", JobSpec{Framework: "tf", Dataset: "mnist", Mode: "infer", Network: "transformer"}, false},
		{"negative batch", JobSpec{Framework: "tf", Dataset: "mnist", Mode: "infer", Batch: -1}, false},
		{"oversized batch", JobSpec{Framework: "tf", Dataset: "mnist", Mode: "infer", Batch: 512}, false},
		{"oversized requests", JobSpec{Framework: "tf", Dataset: "mnist", Mode: "infer", Requests: 20000}, false},
		{"faults on infer job", JobSpec{Framework: "tf", Dataset: "mnist", Mode: "infer", Faults: "crash@1"}, false},
		{"settings on infer job", JobSpec{Framework: "tf", Dataset: "mnist", Mode: "infer", SettingsFramework: "caffe"}, false},
	} {
		err := tc.spec.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestInferSpecNormalizesForReplay: Validate fills infer defaults in
// place and is idempotent, so a journaled spec replays identically after
// a restart re-validates it.
func TestInferSpecNormalizesForReplay(t *testing.T) {
	spec := JobSpec{Framework: "int8", Dataset: "mnist", Mode: "infer"}
	if err := spec.Validate(); err != nil {
		t.Fatal(err)
	}
	if spec.Network != "default" || spec.Batch != 1 || spec.Requests != 20 {
		t.Fatalf("normalized spec = %+v", spec)
	}
	again := spec
	if err := again.Validate(); err != nil {
		t.Fatal(err)
	}
	if again != spec {
		t.Fatalf("Validate is not idempotent: %+v vs %+v", again, spec)
	}
	// Train jobs normalize mode explicitly, so old journal records (no
	// mode field) replay as training jobs.
	train := JobSpec{Framework: "tf", Dataset: "mnist"}
	if err := train.Validate(); err != nil {
		t.Fatal(err)
	}
	if train.Mode != "train" {
		t.Fatalf("train normalization: mode = %q", train.Mode)
	}
}

// TestInferJobEndToEnd drives one int8 inference job through the real
// suite-backed runner: accepted, executed (training the quantization
// source model once, then timing requests), completed with a serving
// result row, and its event stream terminating with the infer.summary
// latency record before job.done — the contract the serve smoke script
// greps for.
func TestInferJobEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a real cell; skipped under -short")
	}
	s, err := New(Config{Workers: 1}) // nil Run selects the suite runner
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}()

	code, reply := submit(t, ts,
		`{"framework":"int8","dataset":"mnist","scale":"test","mode":"infer","batch":1,"requests":8}`, "infer-e2e")
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d (%+v)", code, reply)
	}
	j := waitState(t, s, reply.ID, StateCompleted)
	v := j.View()
	if v.Result == nil {
		t.Fatal("completed inference job carries no result")
	}
	if v.Result.Framework != "Int8" || v.Result.Dataset != "MNIST" {
		t.Fatalf("result row = %+v", v.Result)
	}
	// The device column is spelled as training rows spell it.
	if v.Result.Device != "GPU" {
		t.Fatalf("device column = %q, want GPU", v.Result.Device)
	}
	if !strings.HasPrefix(v.Result.Settings, "infer ") {
		t.Fatalf("settings column %q does not name the serving plan", v.Result.Settings)
	}
	if v.Result.AccuracyPct <= 0 || v.Result.AccuracyPct > 100 {
		t.Fatalf("accuracy %.2f out of range", v.Result.AccuracyPct)
	}
	if v.Result.Test.WallSeconds <= 0 {
		t.Fatalf("serving wall clock %.6fs not positive", v.Result.Test.WallSeconds)
	}

	resp, err := http.Get(ts.URL + "/jobs/" + reply.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(body)), "\n")
	summaryAt, doneAt := -1, -1
	for i, line := range lines {
		var ev map[string]any
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("event line %d is not JSON: %q", i, line)
		}
		switch ev["type"] {
		case "infer.summary":
			summaryAt = i
			for _, key := range []string{"latency_p50_ms", "latency_p95_ms", "latency_p99_ms", "throughput_sps", "accuracy_pct"} {
				if _, ok := ev[key].(float64); !ok {
					t.Errorf("infer.summary missing %s: %v", key, ev)
				}
			}
			if ev["framework"] != "Int8" || ev["batch"] != float64(1) {
				t.Errorf("infer.summary identity fields wrong: %v", ev)
			}
		case "job.done":
			doneAt = i
		}
	}
	if summaryAt == -1 {
		t.Fatalf("no infer.summary in event stream:\n%s", body)
	}
	if doneAt != len(lines)-1 || summaryAt > doneAt {
		t.Fatalf("stream does not terminate with summary then done (summary@%d done@%d of %d)", summaryAt, doneAt, len(lines))
	}
}

// TestJobSettingsDoNotLeakToNextJob: the suite settings a job sets end
// with it. A training job arms the divergence guard and its periodic
// checkpoint captures (max_retries); an inference job that next trains
// its model on the same worker's suite must train it as a fresh suite
// would, with no captures.
func TestJobSettingsDoNotLeakToNextJob(t *testing.T) {
	if testing.Short() {
		t.Skip("trains two real cells; skipped under -short")
	}
	s, err := New(Config{Workers: 1}) // nil Run selects the suite runner
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Shutdown(ctx) //nolint:errcheck // best-effort teardown
	}()

	checkpoints := func(j *Job) int64 { return j.tracer.Counter(resilience.CounterCheckpoints).Value() }
	code, reply := submit(t, ts, `{"framework":"caffe","dataset":"mnist","scale":"test","max_retries":2}`, "")
	if code != http.StatusAccepted {
		t.Fatalf("train submit: status %d (%+v)", code, reply)
	}
	train := waitState(t, s, reply.ID, StateCompleted)
	if checkpoints(train) == 0 {
		t.Fatal("training job with max_retries 2 captured no checkpoints")
	}
	code, reply = submit(t, ts, `{"framework":"tf","dataset":"mnist","scale":"test","mode":"infer","requests":2}`, "")
	if code != http.StatusAccepted {
		t.Fatalf("infer submit: status %d (%+v)", code, reply)
	}
	infer := waitState(t, s, reply.ID, StateCompleted)
	if n := checkpoints(infer); n != 0 {
		t.Fatalf("inference job after a training job captured %d checkpoints, want 0 as on a fresh suite", n)
	}
}
