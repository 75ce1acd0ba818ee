package resilience

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/nn"
	"repro/internal/tensor"
)

func TestPolicyEnabled(t *testing.T) {
	if (Policy{}).Enabled() {
		t.Fatal("zero policy must be disabled")
	}
	if !(Policy{MaxRetries: 1}).Enabled() {
		t.Fatal("MaxRetries=1 must enable the policy")
	}
}

func TestCheckpointPeriod(t *testing.T) {
	if got := CheckpointPeriod(100); got != 25 {
		t.Fatalf("period for 100 iters = %d, want 25", got)
	}
	if got := CheckpointPeriod(2); got != 1 {
		t.Fatalf("tiny-run period = %d, want 1", got)
	}
}

func TestSleepHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	if err := sleep(ctx, time.Hour); !errors.Is(err, context.Canceled) {
		t.Fatalf("sleep on cancelled ctx = %v, want context.Canceled", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("sleep blocked despite cancellation")
	}
	if err := sleep(context.Background(), time.Millisecond); err != nil {
		t.Fatal(err)
	}
}

func TestCheckLoss(t *testing.T) {
	if err := CheckLoss(3, 0.7); err != nil {
		t.Fatal(err)
	}
	err := CheckLoss(3, math.NaN())
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("NaN loss: got %v, want ErrDiverged", err)
	}
	var de *DivergenceError
	if !errors.As(err, &de) || de.Iteration != 3 || de.Quantity != "loss" {
		t.Fatalf("divergence detail wrong: %+v", de)
	}
	if err := CheckLoss(0, math.Inf(-1)); !errors.Is(err, ErrDiverged) {
		t.Fatalf("-Inf loss: got %v, want ErrDiverged", err)
	}
}

func TestCheckGrads(t *testing.T) {
	p := &nn.Param{Name: "w", Value: tensor.New(2, 2), Grad: tensor.New(2, 2)}
	if err := CheckGrads(5, []*nn.Param{p, nil}); err != nil {
		t.Fatal(err)
	}
	p.Grad.Data()[3] = math.Inf(1)
	err := CheckGrads(5, []*nn.Param{p})
	if !errors.Is(err, ErrDiverged) {
		t.Fatalf("Inf grad: got %v, want ErrDiverged", err)
	}
	var de *DivergenceError
	if !errors.As(err, &de) || de.Iteration != 5 || de.Quantity != "grad w" {
		t.Fatalf("divergence detail wrong: %+v", de)
	}
}
