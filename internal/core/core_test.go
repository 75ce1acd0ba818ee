package core

import (
	"context"
	"errors"
	"testing"

	"repro/internal/device"
	"repro/internal/framework"
)

// unitScale is a minimal scale for fast unit tests.
var unitScale = Scale{
	Name: "unit", Train: 256, Test: 96, CIFARTrain: 128, CIFARTest: 64,
	EpochFactor: 0.5, MaxEpochs: 2,
	MNISTDifficulty: 0.6, CIFARDifficulty: 1.25,
	FGSMPerClass: 1, FGSMEpsilon: 0.25,
	JSMAPerTarget: 1, JSMATheta: 0.5, JSMAMaxIters: 10,
	LossPoints: 10,
}

func TestScaleByName(t *testing.T) {
	for _, name := range []string{"test", "small", "full"} {
		s, err := ScaleByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Name != name {
			t.Fatalf("scale name = %q", s.Name)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s invalid: %v", name, err)
		}
	}
	if _, err := ScaleByName("huge"); !errors.Is(err, ErrConfig) {
		t.Fatal("unknown scale must error")
	}
}

func TestScaleValidate(t *testing.T) {
	bad := Scale{Name: "bad", Train: 0, Test: 10, EpochFactor: 1, MaxEpochs: 1}
	if err := bad.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("zero train size must be invalid")
	}
	bad2 := Scale{Name: "bad2", Train: 10, Test: 10, EpochFactor: 0, MaxEpochs: 1}
	if err := bad2.Validate(); !errors.Is(err, ErrConfig) {
		t.Fatal("zero epoch factor must be invalid")
	}
}

func TestScaledEpochsCompression(t *testing.T) {
	s, err := NewSuite(Scale{
		Name: "x", Train: 100, Test: 50, EpochFactor: 1, MaxEpochs: 12,
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		fw   framework.ID
		ds   framework.DatasetID
		want int
	}{
		// log2(1+E_fulldata), E = iters·batch/corpus:
		{framework.TensorFlow, framework.MNIST, 4},    // E=16.67 -> 4.14
		{framework.Caffe, framework.MNIST, 4},         // E=10.67 -> 3.54
		{framework.Torch, framework.MNIST, 4},         // E=20    -> 4.39
		{framework.TensorFlow, framework.CIFAR10, 11}, // E=2560 -> 11.32
		{framework.Caffe, framework.CIFAR10, 3},       // E=10   -> 3.46
		{framework.Torch, framework.CIFAR10, 4},       // paper E=20 on its 5k subset -> 4.39
	}
	for _, tt := range tests {
		d, err := framework.Defaults(tt.fw, tt.ds)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.scaledEpochs(d); got != tt.want {
			t.Errorf("scaledEpochs(%v, %v) = %d, want %d", tt.fw, tt.ds, got, tt.want)
		}
	}
	// The TensorFlow CIFAR-10 budget must remain the largest by far —
	// the paper's 2560-epoch outlier.
	dTF, _ := framework.Defaults(framework.TensorFlow, framework.CIFAR10)
	dCaffe, _ := framework.Defaults(framework.Caffe, framework.CIFAR10)
	if s.scaledEpochs(dTF) <= 2*s.scaledEpochs(dCaffe) {
		t.Error("epoch compression lost the TF CIFAR-10 outlier shape")
	}
}

func TestEffectiveDefaultsTraits(t *testing.T) {
	// Caffe inherits solver momentum 0.9 for imported SGD settings and
	// falls back to its weight-decay default.
	tfCIFAR, err := framework.Defaults(framework.TensorFlow, framework.CIFAR10)
	if err != nil {
		t.Fatal(err)
	}
	underCaffe, drop := effectiveDefaults(framework.Caffe, tfCIFAR)
	if underCaffe.Momentum != 0.9 {
		t.Fatalf("Caffe momentum floor not applied: %v", underCaffe.Momentum)
	}
	if drop != 0 {
		t.Fatalf("Caffe must not use dropout, got rate %v", drop)
	}
	// TensorFlow inserts its dropout into foreign settings.
	caffeMNIST, err := framework.Defaults(framework.Caffe, framework.MNIST)
	if err != nil {
		t.Fatal(err)
	}
	underTF, drop := effectiveDefaults(framework.TensorFlow, caffeMNIST)
	if drop != 0.5 {
		t.Fatalf("TF dropout insertion: rate %v, want 0.5", drop)
	}
	if underTF.Momentum != caffeMNIST.Momentum {
		t.Fatal("TF must not alter imported momentum")
	}
	// Torch strips both regularizers.
	underTorch, drop := effectiveDefaults(framework.Torch, caffeMNIST)
	if drop != 0 || underTorch.WeightDecay != 0 {
		t.Fatalf("Torch regularizer strip: drop %v wd %v", drop, underTorch.WeightDecay)
	}
	// Caffe's own settings keep their momentum (already 0.9).
	underCaffeOwn, _ := effectiveDefaults(framework.Caffe, caffeMNIST)
	if underCaffeOwn.Momentum != 0.9 {
		t.Fatal("Caffe own momentum changed")
	}
	// Adam settings are not given momentum.
	tfMNIST, err := framework.Defaults(framework.TensorFlow, framework.MNIST)
	if err != nil {
		t.Fatal(err)
	}
	underCaffeAdam, _ := effectiveDefaults(framework.Caffe, tfMNIST)
	if underCaffeAdam.Momentum != 0 {
		t.Fatalf("momentum floor must only apply to SGD, got %v", underCaffeAdam.Momentum)
	}
}

func TestVariantFor(t *testing.T) {
	torchCIFARCPU := RunSpec{Framework: framework.Torch, SettingsFW: framework.Torch, SettingsDS: framework.CIFAR10, Data: framework.CIFAR10, Device: device.CPU}
	if variantFor(torchCIFARCPU) != device.CPU {
		t.Fatal("Torch CIFAR CPU must be its own variant")
	}
	tfCPU := RunSpec{Framework: framework.TensorFlow, SettingsFW: framework.TensorFlow, SettingsDS: framework.MNIST, Data: framework.MNIST, Device: device.CPU}
	if variantFor(tfCPU) != device.GPU {
		t.Fatal("non-Torch-CIFAR runs share the canonical variant")
	}
}

func TestSuiteDatasets(t *testing.T) {
	s, err := NewSuite(unitScale, 7)
	if err != nil {
		t.Fatal(err)
	}
	train, test, err := s.Datasets(framework.MNIST)
	if err != nil {
		t.Fatal(err)
	}
	if train.Len() != unitScale.Train || test.Len() != unitScale.Test {
		t.Fatalf("split sizes %d/%d", train.Len(), test.Len())
	}
	// Second call returns the cached instance.
	train2, _, err := s.Datasets(framework.MNIST)
	if err != nil {
		t.Fatal(err)
	}
	if train2 != train {
		t.Fatal("dataset not cached")
	}
}

func TestRunBaselineCaffeMNIST(t *testing.T) {
	s, err := NewSuite(unitScale, 11)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Framework: framework.Caffe, SettingsFW: framework.Caffe,
		SettingsDS: framework.MNIST, Data: framework.MNIST, Device: device.GPU,
	}
	r, err := s.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if r.Framework != "Caffe" || r.Settings != "Caffe MNIST" || r.Dataset != "MNIST" || r.Device != "GPU" {
		t.Fatalf("labels: %+v", r)
	}
	if r.AccuracyPct <= 10 { // must beat random guessing even at unit scale
		t.Fatalf("accuracy %v", r.AccuracyPct)
	}
	if r.Train.ModelSeconds <= 0 || r.Test.ModelSeconds <= 0 || r.Train.WallSeconds <= 0 {
		t.Fatalf("times: %+v", r)
	}
	if len(r.LossHistory) == 0 {
		t.Fatal("no loss history")
	}
	if r.Epochs != 2 {
		t.Fatalf("epochs = %d", r.Epochs)
	}
}

func TestRunCachesAcrossDevices(t *testing.T) {
	s, err := NewSuite(unitScale, 13)
	if err != nil {
		t.Fatal(err)
	}
	base := RunSpec{
		Framework: framework.Caffe, SettingsFW: framework.Caffe,
		SettingsDS: framework.MNIST, Data: framework.MNIST,
	}
	cpu := base
	cpu.Device = device.CPU
	gpu := base
	gpu.Device = device.GPU
	rCPU, err := s.Run(cpu)
	if err != nil {
		t.Fatal(err)
	}
	rGPU, err := s.Run(gpu)
	if err != nil {
		t.Fatal(err)
	}
	// Same trained model: identical accuracy and wall time; different
	// modeled time (GPU faster).
	if rCPU.AccuracyPct != rGPU.AccuracyPct {
		t.Fatal("CPU/GPU rows must share the trained model")
	}
	if rCPU.Train.WallSeconds != rGPU.Train.WallSeconds {
		t.Fatal("wall time should come from the single cached run")
	}
	if rGPU.Train.ModelSeconds >= rCPU.Train.ModelSeconds {
		t.Fatalf("GPU modeled time %v must beat CPU %v", rGPU.Train.ModelSeconds, rCPU.Train.ModelSeconds)
	}
}

func TestRunSeedDeterminism(t *testing.T) {
	run := func() float64 {
		s, err := NewSuite(unitScale, 99)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(RunSpec{
			Framework: framework.Caffe, SettingsFW: framework.Caffe,
			SettingsDS: framework.MNIST, Data: framework.MNIST, Device: device.GPU,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r.AccuracyPct
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed gave %v and %v", a, b)
	}
}

func TestTrainedNetworkReuse(t *testing.T) {
	s, err := NewSuite(unitScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	spec := RunSpec{
		Framework: framework.Caffe, SettingsFW: framework.Caffe,
		SettingsDS: framework.MNIST, Data: framework.MNIST, Device: device.GPU,
	}
	n1, err := s.TrainedNetworkContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	n2, err := s.TrainedNetworkContext(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if n1 != n2 {
		t.Fatal("TrainedNetworkContext must reuse the cached model")
	}
}

func TestTargetedRobustnessRejectsBadSource(t *testing.T) {
	s, err := NewSuite(unitScale, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.TargetedRobustness(context.Background(), 10); !errors.Is(err, ErrConfig) {
		t.Fatal("source 10 must be rejected")
	}
}

func TestPaperSizes(t *testing.T) {
	if paperTrainSize(framework.MNIST) != 60000 || paperTrainSize(framework.CIFAR10) != 50000 {
		t.Fatal("paper train sizes")
	}
	if paperTestSize(framework.MNIST) != 10000 {
		t.Fatal("paper test size")
	}
}
