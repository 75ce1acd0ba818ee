package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/framework"
)

// sharedSuite caches one unit-scale suite across the experiment tests so
// configurations are trained once (mirroring production reuse).
var sharedSuite *Suite

func experimentSuite(t *testing.T) *Suite {
	t.Helper()
	if sharedSuite == nil {
		s, err := NewSuite(unitScale, 2026)
		if err != nil {
			t.Fatal(err)
		}
		sharedSuite = s
	}
	return sharedSuite
}

func TestBaselineExperimentMNIST(t *testing.T) {
	s := experimentSuite(t)
	res, err := s.Baseline(context.Background(), framework.MNIST)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3 frameworks × 2 devices
		t.Fatalf("rows = %d, want 6", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Dataset != "MNIST" {
			t.Fatalf("row dataset %q", r.Dataset)
		}
		if r.AccuracyPct < 20 {
			t.Fatalf("%s %s accuracy %v below sanity floor", r.Framework, r.Device, r.AccuracyPct)
		}
	}
	if !strings.Contains(res.Text, "Fig. 1") {
		t.Fatal("text missing figure reference")
	}
	// GPU rows must be modeled faster than CPU rows for each framework.
	for i := 0; i < 3; i++ {
		cpu, gpu := res.Rows[i], res.Rows[i+3]
		if cpu.Framework != gpu.Framework {
			t.Fatal("row ordering changed")
		}
		if gpu.Train.ModelSeconds >= cpu.Train.ModelSeconds {
			t.Fatalf("%s GPU modeled train %v not faster than CPU %v", gpu.Framework, gpu.Train.ModelSeconds, cpu.Train.ModelSeconds)
		}
	}
}

func TestDatasetDependentExperimentMNIST(t *testing.T) {
	s := experimentSuite(t)
	res, err := s.DatasetDependent(context.Background(), framework.MNIST)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 { // 3 frameworks × 2 setting sources
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Settings labels alternate between the framework's MNIST and
	// CIFAR-10 defaults.
	if res.Rows[0].Settings != "TF MNIST" || res.Rows[1].Settings != "TF CIFAR-10" {
		t.Fatalf("labels: %q, %q", res.Rows[0].Settings, res.Rows[1].Settings)
	}
}

func TestFrameworkDependentExperimentMNIST(t *testing.T) {
	s := experimentSuite(t)
	res, err := s.FrameworkDependent(context.Background(), framework.MNIST)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 { // 3 frameworks × 3 setting owners
		t.Fatalf("rows = %d", len(res.Rows))
	}
	// Diagonal rows reuse the baseline models (same accuracy).
	base, err := s.Baseline(context.Background(), framework.MNIST)
	if err != nil {
		t.Fatal(err)
	}
	for i, fw := range framework.All {
		diag := res.Rows[i*3+i]
		if diag.AccuracyPct != base.Rows[3+i].AccuracyPct { // GPU baseline rows
			t.Fatalf("%v diagonal %v != baseline %v", fw, diag.AccuracyPct, base.Rows[3+i].AccuracyPct)
		}
	}
}

func TestCaffeConvergenceExperiment(t *testing.T) {
	s := experimentSuite(t)
	res, err := s.CaffeConvergence(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Curves) != 2 {
		t.Fatalf("curves = %d", len(res.Curves))
	}
	for label, curve := range res.Curves {
		if len(curve) == 0 {
			t.Fatalf("%s: empty curve", label)
		}
	}
	if !strings.Contains(res.Text, "Fig. 5") {
		t.Fatal("text missing figure reference")
	}
	// The cells are cached, so further calls only re-render: the text must
	// come out byte-identical every time, MNIST settings first.
	first := strings.Split(res.Text, "\n")[2]
	if !strings.HasPrefix(first, "Caffe MNIST settings") {
		t.Fatalf("first summary line %q, want the MNIST settings", first)
	}
	for i := 0; i < 8; i++ {
		again, err := s.CaffeConvergence(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if again.Text != res.Text {
			t.Fatalf("call %d rendered differently:\n%s\nfirst call:\n%s", i+2, again.Text, res.Text)
		}
	}
}

func TestUntargetedRobustnessExperiment(t *testing.T) {
	s := experimentSuite(t)
	res, err := s.UntargetedRobustness(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Difference) != 10 {
		t.Fatalf("difference length %d", len(res.Difference))
	}
	for d := 0; d < 10; d++ {
		if res.TF.SuccessRate[d] < 0 || res.TF.SuccessRate[d] > 1 {
			t.Fatalf("TF success[%d] = %v", d, res.TF.SuccessRate[d])
		}
		if res.Difference[d] != res.Caffe.SuccessRate[d]-res.TF.SuccessRate[d] {
			t.Fatal("difference mismatch")
		}
	}
	if !strings.Contains(res.Text, "Digit") {
		t.Fatal("text missing table")
	}
}

func TestTargetedRobustnessExperiment(t *testing.T) {
	s := experimentSuite(t)
	res, err := s.TargetedRobustness(context.Background(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("rows = %d, want 4 (TF/Caffe × TF/Caffe params)", len(res.Rows))
	}
	wantLabels := []string{"TF (TF)", "TF (Caffe)", "Caffe (TF)", "Caffe (Caffe)"}
	for i, row := range res.Rows {
		if row.Label != wantLabels[i] {
			t.Fatalf("row %d label %q, want %q", i, row.Label, wantLabels[i])
		}
		if row.CraftModelMinutes < 0 {
			t.Fatalf("%s crafting time %v", row.Label, row.CraftModelMinutes)
		}
		if row.Success[1] != 0 {
			t.Fatal("source class must have zero success entry")
		}
	}
	// Table IX descriptive columns.
	if res.Rows[0].ThirdLayer != "3136 -> 1024" || res.Rows[1].ThirdLayer != "800 -> 500" {
		t.Fatalf("third layer columns: %+v", res.Rows)
	}
	if res.Rows[0].Regularization != "dropout" || res.Rows[3].Regularization != "weight decay" {
		t.Fatalf("regularization columns: %+v", res.Rows)
	}
	// Table VIII shape: within each framework, the smaller Caffe-arch
	// model must craft faster than the larger TF-arch model (checked only
	// when both rows were evaluable).
	if res.Rows[0].CraftModelMinutes > 0 && res.Rows[1].CraftModelMinutes > 0 &&
		res.Rows[1].CraftModelMinutes >= res.Rows[0].CraftModelMinutes {
		t.Errorf("TF(Caffe) %v must craft faster than TF(TF) %v",
			res.Rows[1].CraftModelMinutes, res.Rows[0].CraftModelMinutes)
	}
	if res.Rows[2].CraftModelMinutes > 0 && res.Rows[3].CraftModelMinutes > 0 &&
		res.Rows[3].CraftModelMinutes >= res.Rows[2].CraftModelMinutes {
		t.Errorf("Caffe(Caffe) %v must craft faster than Caffe(TF) %v",
			res.Rows[3].CraftModelMinutes, res.Rows[2].CraftModelMinutes)
	}
}

func TestSummaryTableStructure(t *testing.T) {
	s := experimentSuite(t)
	out, err := s.SummaryTable(context.Background(), framework.MNIST)
	if err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"(a) Baseline", "(b) Dataset-dependent", "(c) Framework Default"} {
		if !strings.Contains(out, section) {
			t.Fatalf("summary missing section %q", section)
		}
	}
}

func TestNoiseSensitivityExtension(t *testing.T) {
	s := experimentSuite(t)
	res, err := s.NoiseSensitivity(context.Background(), []float64{0.2, 0.9})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for fw, pts := range res.Series {
		if len(pts) != 2 {
			t.Fatalf("%s points = %d", fw, len(pts))
		}
		// Harder data must not be easier (allow small noise wiggle).
		if pts[1].AccuracyPct > pts[0].AccuracyPct+10 {
			t.Errorf("%s: difficulty 0.9 accuracy %v implausibly above 0.2's %v", fw, pts[1].AccuracyPct, pts[0].AccuracyPct)
		}
	}
}
