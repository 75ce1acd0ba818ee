package core

import (
	"context"
	"errors"
	"math"
	"testing"

	"repro/internal/framework"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/resilience"
)

// resumeSuite builds a suite with the resilience layer and a checkpoint
// store on dir.
func resumeSuite(t *testing.T, scale Scale, seed uint64, dir string) *Suite {
	t.Helper()
	s, err := NewSuite(scale, seed)
	if err != nil {
		t.Fatal(err)
	}
	s.Resilience = resilience.Policy{MaxRetries: 2}
	if dir != "" {
		store, err := resilience.NewStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		s.Checkpoints = store
	}
	return s
}

// TestResumeAfterCrashMatchesUninterrupted is the checkpoint/resume
// round trip for all three executor styles: a crash fault kills the run
// mid-training, a fresh suite resumes it from the on-disk checkpoint, and
// the resumed result is bit-identical to an uninterrupted run with the
// same seed — resume determinism, satellite (c).
func TestResumeAfterCrashMatchesUninterrupted(t *testing.T) {
	for _, fw := range framework.All {
		fw := fw
		t.Run(fw.Short(), func(t *testing.T) {
			spec := baselineSpec(fw)
			dir := t.TempDir()

			// Run 1: killed by an injected crash at iteration 2.
			s1 := resumeSuite(t, chaosScale, 11, dir)
			plan, err := resilience.ParsePlan("crash@2")
			if err != nil {
				t.Fatal(err)
			}
			s1.Faults = plan
			_, err = s1.RunContext(context.Background(), spec)
			if !errors.Is(err, resilience.ErrInjectedCrash) {
				t.Fatalf("crashed run error = %v, want ErrInjectedCrash", err)
			}
			if _, found, err := s1.Checkpoints.Load(s1.checkpointKey(spec.CellKey())); err != nil || !found {
				t.Fatalf("no checkpoint on disk after crash: found=%v err=%v", found, err)
			}

			// Run 2: a fresh suite (fresh process, in effect) resumes it.
			s2 := resumeSuite(t, chaosScale, 11, dir)
			s2.Obs = obs.New()
			s2.Resume = true
			resumed, err := s2.RunContext(context.Background(), spec)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got := s2.Obs.Snapshot().Counters[resilience.CounterResumes]; got != 1 {
				t.Errorf("resumes counter = %d, want 1", got)
			}

			// Reference: the same seed trained uninterrupted, no harness.
			s3 := resumeSuite(t, chaosScale, 11, "")
			straight, err := s3.RunContext(context.Background(), spec)
			if err != nil {
				t.Fatalf("uninterrupted run: %v", err)
			}

			sameTraining(t, resumed, straight)
		})
	}
}

// sameTraining fails t unless the resumed run's loss, accuracy and loss
// history are bit-identical to the reference run's.
func sameTraining(t *testing.T, resumed, want metrics.RunResult) {
	t.Helper()
	if math.Float64bits(resumed.FinalLoss) != math.Float64bits(want.FinalLoss) {
		t.Errorf("final loss: resumed %v vs reference %v", resumed.FinalLoss, want.FinalLoss)
	}
	if math.Float64bits(resumed.AccuracyPct) != math.Float64bits(want.AccuracyPct) {
		t.Errorf("accuracy: resumed %v vs reference %v", resumed.AccuracyPct, want.AccuracyPct)
	}
	if len(resumed.LossHistory) != len(want.LossHistory) {
		t.Fatalf("loss history length: resumed %d vs reference %d",
			len(resumed.LossHistory), len(want.LossHistory))
	}
	for i := range resumed.LossHistory {
		a, b := resumed.LossHistory[i], want.LossHistory[i]
		if a.Iteration != b.Iteration || math.Float64bits(a.Loss) != math.Float64bits(b.Loss) {
			t.Fatalf("loss history diverges at %d: %+v vs %+v", i, a, b)
		}
	}
}

// TestResumeIgnoresOtherRunsCheckpoint: a checkpoint holds one seed's
// model at one scale. Resuming under another seed, or another scale,
// into the same store must find no checkpoint and train afresh, so the
// result is bit-identical to a fresh run of the new seed and scale.
func TestResumeIgnoresOtherRunsCheckpoint(t *testing.T) {
	harder := chaosScale
	harder.Name, harder.MNISTDifficulty = "chaos-hard", 0.8
	tests := []struct {
		name  string
		scale Scale
		seed  uint64
	}{
		{"seed", chaosScale, 2},
		{"scale", harder, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			spec := baselineSpec(framework.Caffe)
			dir := t.TempDir()
			if _, err := resumeSuite(t, chaosScale, 1, dir).RunContext(context.Background(), spec); err != nil {
				t.Fatal(err)
			}

			s := resumeSuite(t, tt.scale, tt.seed, dir)
			s.Obs = obs.New()
			s.Resume = true
			resumed, err := s.RunContext(context.Background(), spec)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if got := s.Obs.Snapshot().Counters[resilience.CounterResumes]; got != 0 {
				t.Errorf("resumes counter = %d, want 0", got)
			}

			fresh, err := resumeSuite(t, tt.scale, tt.seed, "").RunContext(context.Background(), spec)
			if err != nil {
				t.Fatalf("fresh run: %v", err)
			}
			sameTraining(t, resumed, fresh)
		})
	}
}

// TestResumeSkipsCompletedCell: a completed run leaves a final checkpoint
// at totalIters, so resuming the same matrix re-trains nothing (the
// iteration counter stays untouched) yet still reproduces the result row.
func TestResumeSkipsCompletedCell(t *testing.T) {
	spec := baselineSpec(framework.Caffe)
	dir := t.TempDir()

	s1 := resumeSuite(t, chaosScale, 11, dir)
	first, err := s1.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}

	s2 := resumeSuite(t, chaosScale, 11, dir)
	s2.Obs = obs.New()
	s2.Resume = true
	second, err := s2.RunContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	snap := s2.Obs.Snapshot()
	if got := snap.Counters["suite.iterations"]; got != 0 {
		t.Errorf("resumed completed cell ran %d iterations, want 0", got)
	}
	if got := snap.Counters[resilience.CounterResumes]; got != 1 {
		t.Errorf("resumes counter = %d, want 1", got)
	}
	if second.FinalLoss != first.FinalLoss || second.AccuracyPct != first.AccuracyPct {
		t.Errorf("skipped-cell result differs: %v/%v vs %v/%v",
			second.FinalLoss, second.AccuracyPct, first.FinalLoss, first.AccuracyPct)
	}
}

// TestGuardFailsFastOnNonFiniteLoss: a NaN loss with more firings than
// the retry budget surfaces a DivergenceError naming the offending
// iteration — satellite (a)'s fail-fast contract.
func TestGuardFailsFastOnNonFiniteLoss(t *testing.T) {
	s, err := NewSuite(chaosScale, 11)
	if err != nil {
		t.Fatal(err)
	}
	s.Resilience = resilience.Policy{MaxRetries: 1}
	plan, err := resilience.ParsePlan("nan@2:count=9")
	if err != nil {
		t.Fatal(err)
	}
	s.Faults = plan
	_, err = s.RunContext(context.Background(), baselineSpec(framework.TensorFlow))
	if !errors.Is(err, resilience.ErrRetriesExhausted) {
		t.Fatalf("error = %v, want ErrRetriesExhausted", err)
	}
	var de *resilience.DivergenceError
	if !errors.As(err, &de) {
		t.Fatalf("error %v does not carry a DivergenceError", err)
	}
	if de.Iteration != 2 || de.Quantity != "loss" || !math.IsNaN(de.Value) {
		t.Errorf("divergence detail = %+v, want NaN loss at iteration 2", de)
	}
}
