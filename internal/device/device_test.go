package device

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if CPU.String() != "CPU" || GPU.String() != "GPU" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() != "Kind(9)" {
		t.Fatal("unknown kind string wrong")
	}
}

func TestCostModelValidate(t *testing.T) {
	good := CostModel{Throughput: 1e9}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid model rejected: %v", err)
	}
	bad := []CostModel{
		{Throughput: 0},
		{Throughput: -1},
		{Throughput: 1e9, IterOverhead: -1},
		{Throughput: 1e9, Startup: -0.1},
	}
	for i, m := range bad {
		if err := m.Validate(); err == nil {
			t.Fatalf("bad model %d accepted", i)
		}
	}
}

func TestTrainSecondsComposition(t *testing.T) {
	m := CostModel{
		Throughput:       1e9,
		IterOverhead:     0.001,
		SampleOverhead:   0.0001,
		DispatchOverhead: 0.00001,
		Startup:          2,
	}
	// 1 MFLOP/sample forward, 100 iters, batch 10, 5 dispatches.
	got := m.TrainSeconds(1_000_000, 100, 10, 5)
	flops := 1e6 * 3 * 10 * 100 // fwd+bwd = 3x fwd
	want := 2 + flops/1e9 + 100*0.001 + 1000*0.0001 + 500*0.00001
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TrainSeconds = %v, want %v", got, want)
	}
}

func TestTestSecondsComposition(t *testing.T) {
	m := CostModel{Throughput: 1e9, IterOverhead: 0.01, SampleOverhead: 0.001, DispatchOverhead: 0.0001, Startup: 1}
	got := m.TestSeconds(2_000_000, 95, 10, 4)
	iters := 10.0 // ceil(95/10)
	want := 1 + 2e6*95/1e9 + iters*0.01 + 95*0.001 + iters*4*0.0001
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("TestSeconds = %v, want %v", got, want)
	}
}

func TestTestSecondsBatchFallback(t *testing.T) {
	m := CostModel{Throughput: 1e9}
	a := m.TestSeconds(1000, 10, 0, 1) // batch 0 falls back to 1
	b := m.TestSeconds(1000, 10, 1, 1)
	if a != b {
		t.Fatalf("batch-0 fallback: %v != %v", a, b)
	}
}

// Property: modeled time is monotone in every workload dimension.
func TestCostModelMonotonicity(t *testing.T) {
	m := CostModel{Throughput: 5e10, IterOverhead: 1e-3, SampleOverhead: 1e-5, DispatchOverhead: 1e-6, Startup: 0.5}
	f := func(seedFlops uint32, seedIters uint8, seedBatch uint8) bool {
		flops := int64(seedFlops%1e6) + 1
		iters := int(seedIters%50) + 1
		batch := int(seedBatch%32) + 1
		base := m.TrainSeconds(flops, iters, batch, 10)
		if m.TrainSeconds(flops*2, iters, batch, 10) < base {
			return false
		}
		if m.TrainSeconds(flops, iters+1, batch, 10) < base {
			return false
		}
		if m.TrainSeconds(flops, iters, batch+1, 10) < base {
			return false
		}
		if m.TrainSeconds(flops, iters, batch, 11) < base {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
