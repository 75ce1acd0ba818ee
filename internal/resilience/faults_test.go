package resilience

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/tensor"
)

func TestParsePlanEmpty(t *testing.T) {
	for _, s := range []string{"", "  ", ";", " ; "} {
		p, err := ParsePlan(s)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", s, err)
		}
		if p != nil {
			t.Fatalf("ParsePlan(%q) = %+v, want nil plan", s, p)
		}
	}
}

func TestParsePlanGrammar(t *testing.T) {
	p, err := ParsePlan("nan@3; operr@5:site=graph.forward,cell=TF ;slow@2:delay=5ms,count=3;crash@7:cell=Caffe")
	if err != nil {
		t.Fatal(err)
	}
	want := []Fault{
		{Kind: KindNaN, At: 3, Count: 1},
		{Kind: KindOpErr, At: 5, Site: "graph.forward", Cell: "TF", Count: 1},
		{Kind: KindSlow, At: 2, Delay: 5 * time.Millisecond, Count: 3},
		{Kind: KindCrash, At: 7, Cell: "Caffe", Count: 1},
	}
	if len(p.Faults) != len(want) {
		t.Fatalf("got %d faults, want %d", len(p.Faults), len(want))
	}
	for i, f := range p.Faults {
		if f != want[i] {
			t.Errorf("fault %d = %+v, want %+v", i, f, want[i])
		}
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, s := range []string{
		"nan",                 // no @iteration
		"boom@3",              // unknown kind
		"nan@-1",              // negative iteration
		"nan@x",               // non-numeric iteration
		"nan@1:site",          // key without value
		"nan@1:wat=1",         // unknown key
		"slow@1",              // slow without delay
		"slow@1:delay=-5ms",   // negative delay
		"nan@1:count=0",       // count below 1
		"operr@1:delay=bogus", // unparsable duration
	} {
		if _, err := ParsePlan(s); err == nil {
			t.Errorf("ParsePlan(%q) succeeded, want error", s)
		}
	}
}

func TestPlanForCellMatching(t *testing.T) {
	p, err := ParsePlan("nan@1:cell=TF;operr@2:cell=Caffe")
	if err != nil {
		t.Fatal(err)
	}
	if in := p.For("TF default on MNIST @lenet"); in == nil {
		t.Error("TF cell should arm the nan fault")
	}
	if in := p.For("Torch default on MNIST @lenet"); in != nil {
		t.Error("Torch cell matches no fault, want nil injector")
	}
	var nilPlan *Plan
	if nilPlan.For("anything") != nil {
		t.Error("nil plan must yield a nil injector")
	}
}

func TestInjectorFiringBudget(t *testing.T) {
	p, err := ParsePlan("operr@4")
	if err != nil {
		t.Fatal(err)
	}
	in := p.For("cell")
	in.BeginIteration(3)
	if err := in.OpError(context.Background(), "graph.forward"); err != nil {
		t.Fatalf("fired at wrong iteration: %v", err)
	}
	in.BeginIteration(4)
	err = in.OpError(context.Background(), "graph.forward")
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected at iteration 4, got %v", err)
	}
	// Budget spent: replaying the same iteration (post-rollback) is clean.
	if err := in.OpError(context.Background(), "graph.forward"); err != nil {
		t.Fatalf("budget exhausted but fired again: %v", err)
	}
	if got := in.Injected(); got != 1 {
		t.Fatalf("Injected() = %d, want 1", got)
	}
}

func TestInjectorSiteFilter(t *testing.T) {
	p, err := ParsePlan("operr@0:site=module.backward")
	if err != nil {
		t.Fatal(err)
	}
	in := p.For("cell")
	in.BeginIteration(0)
	if err := in.OpError(context.Background(), "module.forward"); err != nil {
		t.Fatalf("wrong site fired: %v", err)
	}
	if err := in.OpError(context.Background(), "module.backward"); !errors.Is(err, ErrInjected) {
		t.Fatalf("target site did not fire: %v", err)
	}
}

func TestInjectorPoisonLoss(t *testing.T) {
	p, err := ParsePlan("nan@1;inf@2")
	if err != nil {
		t.Fatal(err)
	}
	in := p.For("cell")
	in.BeginIteration(0)
	if loss, fired := in.PoisonLoss(0.5); fired || loss != 0.5 {
		t.Fatalf("iteration 0: got (%v, %v), want clean pass-through", loss, fired)
	}
	in.BeginIteration(1)
	if loss, fired := in.PoisonLoss(0.5); !fired || !math.IsNaN(loss) {
		t.Fatalf("iteration 1: got (%v, %v), want NaN", loss, fired)
	}
	in.BeginIteration(2)
	if loss, fired := in.PoisonLoss(0.5); !fired || !math.IsInf(loss, 1) {
		t.Fatalf("iteration 2: got (%v, %v), want +Inf", loss, fired)
	}
	if got := in.Injected(); got != 2 {
		t.Fatalf("Injected() = %d, want 2", got)
	}
}

func TestInjectorCorruptBatch(t *testing.T) {
	p, err := ParsePlan("corrupt@0")
	if err != nil {
		t.Fatal(err)
	}
	in := p.For("cell")
	in.BeginIteration(0)
	x := tensor.New(4, 8)
	if !in.CorruptBatch(x) {
		t.Fatal("corrupt fault did not fire")
	}
	nan := 0
	for _, v := range x.Data() {
		if math.IsNaN(v) {
			nan++
		}
	}
	if nan == 0 {
		t.Fatal("corrupted batch has no NaN elements")
	}
	// Budget spent: a second batch passes untouched.
	y := tensor.New(4, 8)
	if in.CorruptBatch(y) {
		t.Fatal("corrupt fault fired twice with count=1")
	}
}

func TestInjectorCrash(t *testing.T) {
	p, err := ParsePlan("crash@2")
	if err != nil {
		t.Fatal(err)
	}
	in := p.For("cell")
	in.BeginIteration(1)
	if err := in.Crash(); err != nil {
		t.Fatalf("crashed early: %v", err)
	}
	in.BeginIteration(2)
	if err := in.Crash(); !errors.Is(err, ErrInjectedCrash) {
		t.Fatalf("want ErrInjectedCrash, got %v", err)
	}
}

func TestInjectorSlow(t *testing.T) {
	p, err := ParsePlan("slow@0:delay=10ms")
	if err != nil {
		t.Fatal(err)
	}
	in := p.For("cell")
	in.BeginIteration(0)
	start := time.Now()
	if err := in.OpError(context.Background(), "graph.forward"); err != nil {
		t.Fatalf("slow fault returned error: %v", err)
	}
	if d := time.Since(start); d < 10*time.Millisecond {
		t.Fatalf("slow fault delayed only %v, want >= 10ms", d)
	}
	if got := in.Injected(); got != 1 {
		t.Fatalf("Injected() = %d, want 1", got)
	}
}

// TestInjectorSlowObeysContext: cancelling the run's context cuts a slow
// fault's delay short and returns the context's error.
func TestInjectorSlowObeysContext(t *testing.T) {
	p, err := ParsePlan("slow@0:delay=1000h")
	if err != nil {
		t.Fatal(err)
	}
	in := p.For("cell")
	in.BeginIteration(0)
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	done := make(chan error, 1)
	go func() { done <- in.OpError(ctx, "graph.forward") }()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled slow fault returned %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("slow fault ignored its cancelled context")
	}
	if got := in.Injected(); got != 1 {
		t.Fatalf("Injected() = %d, want 1", got)
	}
}

func TestNilInjectorIsNoop(t *testing.T) {
	var in *Injector
	in.BeginIteration(3)
	if err := in.OpError(context.Background(), "graph.forward"); err != nil {
		t.Fatal(err)
	}
	if loss, fired := in.PoisonLoss(1.5); fired || loss != 1.5 {
		t.Fatal("nil injector poisoned the loss")
	}
	if in.CorruptBatch(tensor.New(1, 4)) {
		t.Fatal("nil injector corrupted the batch")
	}
	if err := in.Crash(); err != nil {
		t.Fatal(err)
	}
	if in.Injected() != 0 {
		t.Fatal("nil injector reported firings")
	}
}
