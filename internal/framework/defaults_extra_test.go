package framework

import (
	"math"
	"testing"

	"repro/internal/optim"
)

// TestTFCIFARSettingExtras checks the input-pipeline and schedule details
// the TensorFlow CIFAR-10 tutorial setting carries beyond Table III.
func TestTFCIFARSettingExtras(t *testing.T) {
	d, err := Defaults(TensorFlow, CIFAR10)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.DecayAtFrac) == 0 {
		t.Fatal("TF CIFAR-10 setting must decay its learning rate")
	}
	// The derived schedule starts at 0.1 and decays by powers of ten at
	// the configured fractions, ending at least two decades down.
	s := d.Schedule(1000)
	if got := s.At(0); got != 0.1 {
		t.Fatalf("lr(0) = %v", got)
	}
	prev := 0.1
	for _, frac := range d.DecayAtFrac {
		at := int(frac*1000) + 1
		got := s.At(at)
		if math.Abs(got-prev*0.1) > 1e-12 {
			t.Fatalf("lr just after %.0f%% = %v, want %v", frac*100, got, prev*0.1)
		}
		prev = got
	}
	if last := s.At(999); last > 0.1*math.Pow(0.1, 2)+1e-12 {
		t.Fatalf("final lr %v not at least two decades below base", last)
	}
}

// TestOtherSettingsHaveNoLateDecay: the late ×0.1 decays are specific to
// the TF CIFAR-10 setting.
func TestOtherSettingsHaveNoLateDecay(t *testing.T) {
	for _, fw := range All {
		for _, ds := range Datasets {
			if fw == TensorFlow && ds == CIFAR10 {
				continue
			}
			d, err := Defaults(fw, ds)
			if err != nil {
				t.Fatal(err)
			}
			if len(d.DecayAtFrac) != 0 {
				t.Errorf("%v %v unexpectedly has periodic decay", fw, ds)
			}
		}
	}
}

// TestPreprocessingPipelines pins the framework × dataset input-pipeline
// matrix.
func TestPreprocessingPipelines(t *testing.T) {
	tests := []struct {
		fw   ID
		ds   DatasetID
		want Preprocessing
	}{
		{TensorFlow, MNIST, PrepScale01},
		{Caffe, MNIST, PrepScale01},
		{Torch, MNIST, PrepScale01},
		{TensorFlow, CIFAR10, PrepStandardize},
		{Torch, CIFAR10, PrepStandardize},
		{Caffe, CIFAR10, PrepCaffeRaw},
	}
	for _, tt := range tests {
		if got := PreprocessingFor(tt.fw, tt.ds); got != tt.want {
			t.Errorf("PreprocessingFor(%v, %v) = %v, want %v", tt.fw, tt.ds, got, tt.want)
		}
	}
}

// TestOptimizerConstruction exercises NewOptimizer for every default.
func TestOptimizerConstruction(t *testing.T) {
	for _, fw := range All {
		for _, ds := range Datasets {
			d, err := Defaults(fw, ds)
			if err != nil {
				t.Fatal(err)
			}
			opt, err := d.NewOptimizer(nil, 100)
			if err != nil {
				t.Fatalf("%v %v: %v", fw, ds, err)
			}
			if got := opt.(optim.Checkpointable).CaptureState().Algorithm; got != d.Algorithm {
				t.Fatalf("%v %v optimizer %q, want %q", fw, ds, got, d.Algorithm)
			}
			if lr := d.Schedule(100).At(0); lr != d.BaseLR {
				t.Fatalf("%v %v initial lr %v, want %v", fw, ds, lr, d.BaseLR)
			}
		}
	}
	bad := TrainingDefaults{Algorithm: "lbfgs", BaseLR: 0.1}
	if _, err := bad.NewOptimizer(nil, 10); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}
