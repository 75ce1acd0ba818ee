package core

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/device"
	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// chaosScale is unitScale shrunk further for the resilience tests: they
// train every cell several times over (fault, rollback, replay; crash,
// resume, reference), and the whole suite must stay fast under -race.
// One epoch keeps TF (graph-style, the slowest cell) to a handful of
// iterations; faults in these tests target iterations <= 2 so every
// framework's iteration budget reaches them.
var chaosScale = Scale{
	Name: "chaos", Train: 192, Test: 64, CIFARTrain: 128, CIFARTest: 64,
	EpochFactor: 0.5, MaxEpochs: 1,
	MNISTDifficulty: 0.6, CIFARDifficulty: 1.25,
	FGSMPerClass: 1, FGSMEpsilon: 0.25,
	JSMAPerTarget: 1, JSMATheta: 0.5, JSMAMaxIters: 10,
	LossPoints: 5,
}

// baselineSpec builds the fw-on-its-own-defaults cell for MNIST.
func baselineSpec(fw framework.ID) RunSpec {
	return RunSpec{
		Framework: fw, SettingsFW: fw, SettingsDS: framework.MNIST,
		Data: framework.MNIST, Device: device.GPU,
	}
}

// TestChaosMatrixRecovers is the acceptance scenario for the fault
// harness: a three-cell matrix with a NaN fault in one cell and an op
// failure in another. The unaffected cell must succeed untouched; the
// affected cells must recover within the retry budget; and the
// fault/retry/recovery counters must be visible in telemetry.
func TestChaosMatrixRecovers(t *testing.T) {
	s, err := NewSuite(chaosScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Obs = obs.New()
	s.Resilience = resilience.Policy{MaxRetries: 2}
	plan, err := resilience.ParsePlan("nan@3:cell=TF;operr@2:cell=Caffe")
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = plan

	specs := []RunSpec{
		baselineSpec(framework.TensorFlow),
		baselineSpec(framework.Caffe),
		baselineSpec(framework.Torch),
	}
	rows, err := s.RunMatrix(context.Background(), specs)
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("got %d rows, want 3", len(rows))
	}
	for _, r := range rows {
		if r.Failed {
			t.Errorf("cell %s/%s failed: %s (want recovery)", r.Framework, r.Settings, r.Error)
		}
	}

	snap := s.Obs.Snapshot()
	for counter, min := range map[string]int64{
		resilience.CounterFaultsInjected: 2, // one nan + one operr
		resilience.CounterRetries:        2, // each affected cell retried
		resilience.CounterRecoveries:     2, // and then completed
		resilience.CounterDivergences:    1, // the poisoned loss
		resilience.CounterRollbacks:      2,
		resilience.CounterCheckpoints:    1,
	} {
		if got := snap.Counters[counter]; got < min {
			t.Errorf("counter %s = %d, want >= %d", counter, got, min)
		}
	}
	if got := snap.Counters[resilience.CounterCellsFailed]; got != 0 {
		t.Errorf("counter %s = %d, want 0", resilience.CounterCellsFailed, got)
	}

	// The per-run telemetry deltas on the affected rows carry the same
	// counters (this is what -telemetry and the JSON export show).
	sawRetry := false
	for _, r := range rows {
		if r.Telemetry != nil && r.Telemetry.Counters[resilience.CounterRetries] > 0 {
			sawRetry = true
		}
	}
	if !sawRetry {
		t.Error("no row's telemetry delta shows a retry")
	}
}

// TestChaosCellFailureIsIsolated: a cell whose fault budget outlasts the
// retry budget is reported as a Failed row — with the cause — while the
// rest of the matrix completes, and the failure survives a JSON
// round-trip.
func TestChaosCellFailureIsIsolated(t *testing.T) {
	s, err := NewSuite(chaosScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	s.Obs = obs.New()
	s.Resilience = resilience.Policy{MaxRetries: 1}
	// count=8 op failures at iteration 1 of the Caffe cell: every retry
	// replays into a fresh firing, so the budget (1 retry) must exhaust.
	plan, err := resilience.ParsePlan("operr@1:cell=Caffe,count=8")
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = plan

	specs := []RunSpec{
		baselineSpec(framework.Caffe),
		baselineSpec(framework.Torch),
	}
	rows, err := s.RunMatrix(context.Background(), specs)
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(rows))
	}
	failed, ok := rows[0], rows[1]
	if !failed.Failed {
		t.Fatal("Caffe cell completed; want retry exhaustion")
	}
	if !strings.Contains(failed.Error, "retry budget exhausted") {
		t.Errorf("failure cause %q does not name the retry budget", failed.Error)
	}
	if ok.Failed {
		t.Fatalf("Torch cell failed: %s", ok.Error)
	}
	if got := s.Obs.Snapshot().Counters[resilience.CounterCellsFailed]; got != 1 {
		t.Errorf("cells.failed = %d, want 1", got)
	}

	// JSON round-trip preserves the failure columns.
	var buf bytes.Buffer
	if err := metrics.WriteJSON(&buf, rows); err != nil {
		t.Fatal(err)
	}
	back, err := metrics.ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !back[0].Failed || back[0].Error != failed.Error {
		t.Errorf("JSON round-trip lost the failure: %+v", back[0])
	}
	if back[1].Failed {
		t.Error("JSON round-trip marked the healthy row failed")
	}

	// CSV keeps both rows too.
	buf.Reset()
	if err := metrics.WriteCSV(&buf, rows); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "true") || strings.Count(out, "\n") != 3 {
		t.Errorf("CSV export malformed:\n%s", out)
	}
}

// TestCancellationYieldsPartialMatrix: cancelling mid-sweep returns the
// completed rows plus the context error — the partial-report contract.
func TestCancellationYieldsPartialMatrix(t *testing.T) {
	s, err := NewSuite(chaosScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	first := true
	s.Progress = func(format string, args ...any) {
		// Cancel during the first cell's training: the suite emits one
		// progress line per training start before iterating.
		if first {
			first = false
			cancel()
		}
	}
	rows, err := s.RunMatrix(ctx, []RunSpec{
		baselineSpec(framework.TensorFlow),
		baselineSpec(framework.Torch),
	})
	if err == nil {
		t.Fatal("cancelled matrix returned no error")
	}
	if ctx.Err() == nil {
		t.Fatal("test bug: ctx not cancelled")
	}
	if len(rows) != 0 {
		t.Fatalf("cancelled during cell 1, got %d completed rows", len(rows))
	}
}

// TestSlowFaultObeysDeadline: a slow fault far longer than the run's
// deadline fires, and the run ends with the deadline's error soon after
// the deadline instead of sleeping out the delay.
func TestSlowFaultObeysDeadline(t *testing.T) {
	s, err := NewSuite(chaosScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	// Synthesize the data first so the deadline falls inside training.
	if _, _, err := s.Datasets(framework.MNIST); err != nil {
		t.Fatal(err)
	}
	s.Obs = obs.New()
	plan, err := resilience.ParsePlan("slow@0:delay=1000h")
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = plan
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := s.RunContext(ctx, baselineSpec(framework.Caffe))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run under a slow fault returned %v, want context.DeadlineExceeded", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("run slept out its slow fault past a 300ms deadline")
	}
	if got := s.Obs.Counter(resilience.CounterFaultsInjected).Value(); got != 1 {
		t.Fatalf("faults injected = %d, want 1", got)
	}
}

// TestDivergenceGuardDisabledByDefault: the zero policy preserves the
// legacy fail-open behavior — a poisoned loss does NOT error the run, it
// just shows up in the loss record (satellite (a) is opt-in).
func TestDivergenceGuardDisabledByDefault(t *testing.T) {
	s, err := NewSuite(chaosScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := resilience.ParsePlan("nan@1:cell=Torch")
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = plan
	// Zero policy: no guard, no retries. The poisoned loss passes through
	// unchecked and the run completes un-failed (legacy fail-open
	// divergence reporting via the Converged flag, as in the paper's
	// Caffe-on-CIFAR cells).
	row, err := s.Run(baselineSpec(framework.Torch))
	if err != nil {
		t.Fatalf("ungoverned run errored: %v", err)
	}
	if row.Failed {
		t.Fatal("ungoverned run reported Failed")
	}
}
