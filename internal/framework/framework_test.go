package framework

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/nn"
	"repro/internal/optim"
)

func TestParseID(t *testing.T) {
	tests := []struct {
		in      string
		want    ID
		wantErr bool
	}{
		{"tensorflow", TensorFlow, false},
		{"TF", TensorFlow, false},
		{"Caffe", Caffe, false},
		{"torch", Torch, false},
		{"keras", 0, true},
	}
	for _, tt := range tests {
		got, err := ParseID(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("ParseID(%q) err = %v", tt.in, err)
			continue
		}
		if got != tt.want {
			t.Errorf("ParseID(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
	if _, err := ParseID("keras"); !errors.Is(err, ErrUnknown) {
		t.Error("unknown framework must wrap ErrUnknown")
	}
}

func TestParseDataset(t *testing.T) {
	for _, s := range []string{"mnist", "MNIST"} {
		if got, err := ParseDataset(s); err != nil || got != MNIST {
			t.Errorf("ParseDataset(%q) = (%v, %v)", s, got, err)
		}
	}
	for _, s := range []string{"cifar10", "CIFAR-10", "cifar"} {
		if got, err := ParseDataset(s); err != nil || got != CIFAR10 {
			t.Errorf("ParseDataset(%q) = (%v, %v)", s, got, err)
		}
	}
	if _, err := ParseDataset("imagenet"); !errors.Is(err, ErrUnknown) {
		t.Error("unknown dataset must wrap ErrUnknown")
	}
}

// TestTableIMetadata checks the Table I rows.
func TestTableIMetadata(t *testing.T) {
	tf := TensorFlow.Meta()
	if tf.Version != "1.3.0" || tf.LoC != 1281085 || tf.License != "Apache" {
		t.Errorf("TensorFlow meta = %+v", tf)
	}
	cf := Caffe.Meta()
	if cf.Version != "1.0.0" || cf.LoC != 69608 || cf.License != "BSD" {
		t.Errorf("Caffe meta = %+v", cf)
	}
	th := Torch.Meta()
	if th.Version != "torch7" || th.LoC != 29750 || th.Interface != "Lua" {
		t.Errorf("Torch meta = %+v", th)
	}
}

// TestTableIIDefaults checks the MNIST training defaults against Table II.
func TestTableIIDefaults(t *testing.T) {
	tests := []struct {
		fw        ID
		algorithm string
		lr        float64
		batch     int
		iters     int
		epochs    float64
	}{
		{TensorFlow, "adam", 0.0001, 50, 20000, 16.67},
		{Caffe, "sgd", 0.01, 64, 10000, 10.67},
		{Torch, "sgd", 0.05, 10, 120000, 20},
	}
	for _, tt := range tests {
		t.Run(tt.fw.String(), func(t *testing.T) {
			d, err := Defaults(tt.fw, MNIST)
			if err != nil {
				t.Fatal(err)
			}
			if d.Algorithm != tt.algorithm || d.BaseLR != tt.lr || d.BatchSize != tt.batch || d.MaxIters != tt.iters {
				t.Fatalf("defaults = %+v", d)
			}
			if math.Abs(d.Epochs-tt.epochs) > 0.01 {
				t.Fatalf("epochs = %v, want %v", d.Epochs, tt.epochs)
			}
		})
	}
}

// TestTableIIIDefaults checks the CIFAR-10 training defaults (Table III).
func TestTableIIIDefaults(t *testing.T) {
	tf, err := Defaults(TensorFlow, CIFAR10)
	if err != nil {
		t.Fatal(err)
	}
	if tf.Algorithm != "sgd" || tf.BaseLR != 0.1 || tf.BatchSize != 128 || tf.MaxIters != 1000000 || tf.Epochs != 2560 {
		t.Fatalf("TF CIFAR defaults = %+v", tf)
	}
	cf, err := Defaults(Caffe, CIFAR10)
	if err != nil {
		t.Fatal(err)
	}
	if cf.BaseLR != 0.001 || cf.SecondLR != 0.0001 || cf.BatchSize != 100 || cf.MaxIters != 5000 || cf.Epochs != 10 {
		t.Fatalf("Caffe CIFAR defaults = %+v", cf)
	}
	th, err := Defaults(Torch, CIFAR10)
	if err != nil {
		t.Fatal(err)
	}
	if th.BaseLR != 0.001 || th.BatchSize != 1 || th.MaxIters != 100000 || th.Epochs != 20 {
		t.Fatalf("Torch CIFAR defaults = %+v", th)
	}
	if _, err := Defaults(ID(99), MNIST); !errors.Is(err, ErrUnknown) {
		t.Fatal("unknown framework defaults must error")
	}
}

// TestScheduleShapes checks the derived LR schedules.
func TestScheduleShapes(t *testing.T) {
	caffeMNIST, err := Defaults(Caffe, MNIST)
	if err != nil {
		t.Fatal(err)
	}
	s := caffeMNIST.Schedule(10000)
	if _, ok := s.(optim.InverseDecaySchedule); !ok {
		t.Fatalf("Caffe MNIST schedule = %T, want inverse decay", s)
	}
	if s.At(0) != 0.01 || s.At(5000) >= s.At(0) {
		t.Fatal("inverse decay must start at base and decrease")
	}
	caffeCIFAR, err := Defaults(Caffe, CIFAR10)
	if err != nil {
		t.Fatal(err)
	}
	s2 := caffeCIFAR.Schedule(5000)
	if s2.At(0) != 0.001 {
		t.Fatalf("phase-1 lr = %v", s2.At(0))
	}
	if got := s2.At(4500); math.Abs(got-0.0001) > 1e-12 {
		t.Fatalf("phase-2 lr = %v, want 0.0001", got)
	}
	tfMNIST, err := Defaults(TensorFlow, MNIST)
	if err != nil {
		t.Fatal(err)
	}
	if lr := tfMNIST.Schedule(100).At(50); lr != 0.0001 {
		t.Fatalf("TF MNIST constant lr = %v", lr)
	}
}

// TestTableIVNetworkShapes checks each framework's MNIST architecture
// against Table IV: flatten fan-ins 7·7·64, 4·4·50 and 3·3·64 and fc
// widths 1024/500/200.
func TestTableIVNetworkShapes(t *testing.T) {
	tests := []struct {
		fw         ID
		wantFC1In  int
		wantFC1Out int
		wantParams bool
	}{
		{TensorFlow, 7 * 7 * 64, 1024, true},
		{Caffe, 4 * 4 * 50, 500, true},
		{Torch, 3 * 3 * 64, 200, true},
	}
	in, err := InputFor(MNIST)
	if err != nil {
		t.Fatal(err)
	}
	for _, tt := range tests {
		t.Run(tt.fw.String(), func(t *testing.T) {
			net, err := BuildNetwork(tt.fw, MNIST, in, NetworkOptions{Device: device.GPU, DropoutRate: -1})
			if err != nil {
				t.Fatal(err)
			}
			fc := firstDense(net)
			if fc == nil {
				t.Fatal("no dense layer")
			}
			if fc.InFeatures() != tt.wantFC1In || fc.OutFeatures() != tt.wantFC1Out {
				t.Fatalf("fc1 = %d->%d, want %d->%d", fc.InFeatures(), fc.OutFeatures(), tt.wantFC1In, tt.wantFC1Out)
			}
			out, err := net.OutShape()
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != 1 || out[0] != 10 {
				t.Fatalf("output shape = %v", out)
			}
		})
	}
}

// TestTableVNetworkShapes checks the CIFAR-10 architectures (Table V).
func TestTableVNetworkShapes(t *testing.T) {
	in, err := InputFor(CIFAR10)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		fw        ID
		wantFC1In int
		wantFC1Ot int
	}{
		{TensorFlow, 7 * 7 * 64, 384},
		{Caffe, 4 * 4 * 64, 64},
		{Torch, 5 * 5 * 256, 128},
	}
	for _, tt := range tests {
		t.Run(tt.fw.String(), func(t *testing.T) {
			net, err := BuildNetwork(tt.fw, CIFAR10, in, NetworkOptions{Device: device.GPU, DropoutRate: -1})
			if err != nil {
				t.Fatal(err)
			}
			fc := firstDense(net)
			if fc.InFeatures() != tt.wantFC1In || fc.OutFeatures() != tt.wantFC1Ot {
				t.Fatalf("fc1 = %d->%d, want %d->%d", fc.InFeatures(), fc.OutFeatures(), tt.wantFC1In, tt.wantFC1Ot)
			}
		})
	}
}

func firstDense(net *nn.Network) *nn.Dense {
	for _, l := range net.Layers() {
		if d, ok := l.(*nn.Dense); ok {
			return d
		}
	}
	return nil
}

// TestCrossDatasetBuilds: every architecture must adapt to the other
// dataset's input (the paper's Figures 3/4 transfer experiments).
func TestCrossDatasetBuilds(t *testing.T) {
	for _, fw := range All {
		for _, arch := range Datasets {
			for _, dataOn := range Datasets {
				in, err := InputFor(dataOn)
				if err != nil {
					t.Fatal(err)
				}
				net, err := BuildNetwork(fw, arch, in, NetworkOptions{Device: device.GPU, DropoutRate: -1})
				if err != nil {
					t.Fatalf("%v %v-arch on %v: %v", fw, arch, dataOn, err)
				}
				out, err := net.OutShape()
				if err != nil {
					t.Fatal(err)
				}
				if out[0] != 10 {
					t.Fatalf("%v %v on %v: out %v", fw, arch, dataOn, out)
				}
			}
		}
	}
}

// TestTorchCIFARDeviceVariants: the CPU build uses a connection table
// (fewer effective parameters than GPU's dense conv), matching Torch's
// SpatialConvolutionMap-vs-MM split.
func TestTorchCIFARDeviceVariants(t *testing.T) {
	in, err := InputFor(CIFAR10)
	if err != nil {
		t.Fatal(err)
	}
	cpuNet, err := BuildNetwork(Torch, CIFAR10, in, NetworkOptions{Device: device.CPU, DropoutRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	gpuNet, err := BuildNetwork(Torch, CIFAR10, in, NetworkOptions{Device: device.GPU, DropoutRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	// Same parameter tensors, but the CPU variant costs more per sample
	// (scalar map-conv path) — the paper's Torch CPU/GPU asymmetry.
	if cpuNet.FLOPsPerSample() <= gpuNet.FLOPsPerSample() {
		t.Fatal("map-conv CPU build must cost more than GEMM GPU build")
	}
}

func TestFC1OverrideAndDropout(t *testing.T) {
	in, err := InputFor(MNIST)
	if err != nil {
		t.Fatal(err)
	}
	net, err := BuildNetwork(TensorFlow, MNIST, in, NetworkOptions{Device: device.GPU, FC1Override: 512, DropoutRate: -1})
	if err != nil {
		t.Fatal(err)
	}
	if fc := firstDense(net); fc.OutFeatures() != 512 {
		t.Fatalf("override fc1 = %d", fc.OutFeatures())
	}
	// Dropout removal.
	noDrop, err := BuildNetwork(TensorFlow, MNIST, in, NetworkOptions{Device: device.GPU, DropoutRate: 0})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range noDrop.Layers() {
		if _, ok := l.(*nn.Dropout); ok {
			t.Fatal("dropout should be removed at rate 0")
		}
	}
}

func TestExecutorBindings(t *testing.T) {
	in, err := InputFor(MNIST)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		fw   ID
		want string
	}{
		{TensorFlow, "*engine.GraphExecutor"},
		{Caffe, "*engine.LayerwiseExecutor"},
		{Torch, "*engine.ModuleExecutor"},
	}
	for _, tt := range tests {
		net, err := BuildNetwork(tt.fw, MNIST, in, NetworkOptions{Device: device.GPU, DropoutRate: -1})
		if err != nil {
			t.Fatal(err)
		}
		exec, err := NewExecutor(tt.fw, net, 32)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%T", exec); got != tt.want {
			t.Fatalf("%v executor = %s, want %s", tt.fw, got, tt.want)
		}
	}
	if _, err := NewExecutor(ID(42), nil, 1); !errors.Is(err, engine.ErrNilNetwork) && !errors.Is(err, ErrUnknown) {
		// NewGraph(nil) path gives ErrNilNetwork; unknown id gives ErrUnknown.
		t.Fatalf("bad executor request err = %v", err)
	}
}

func TestRegularizers(t *testing.T) {
	if TensorFlow.Regularizer() != "dropout" {
		t.Fatal("TF regularizer")
	}
	if Caffe.Regularizer() != "weight decay" {
		t.Fatal("Caffe regularizer")
	}
}

func TestCostModelsValid(t *testing.T) {
	for _, fw := range All {
		for _, k := range []device.Kind{device.CPU, device.GPU} {
			m, err := CostModelFor(fw, k)
			if err != nil {
				t.Fatalf("%v %v: %v", fw, k, err)
			}
			if err := m.Validate(); err != nil {
				t.Fatalf("%v %v: %v", fw, k, err)
			}
		}
	}
	if _, err := CostModelFor(ID(9), device.CPU); !errors.Is(err, ErrUnknown) {
		t.Fatal("unknown cost model must error")
	}
}

// TestCostModelReproducesBaselines replays the paper's Table VI(a)/VII(a)
// baselines through the cost model and asserts (a) tight agreement where
// the model fits (Caffe, TensorFlow CPU) and (b) order-preserving
// agreement everywhere: per device, the framework ranking by training time
// matches the paper on both datasets.
func TestCostModelReproducesBaselines(t *testing.T) {
	paper := map[ID]map[device.Kind]map[DatasetID][2]float64{
		TensorFlow: {
			device.CPU: {MNIST: {1114.34, 2.73}, CIFAR10: {219169.14, 4.80}},
			device.GPU: {MNIST: {68.51, 0.26}, CIFAR10: {12477.05, 2.34}},
		},
		Caffe: {
			device.CPU: {MNIST: {512.18, 3.33}, CIFAR10: {1730.89, 14.35}},
			device.GPU: {MNIST: {97.02, 0.55}, CIFAR10: {163.51, 1.36}},
		},
		Torch: {
			device.CPU: {MNIST: {16096.62, 56.62}, CIFAR10: {38268.67, 121.11}},
			device.GPU: {MNIST: {563.28, 1.76}, CIFAR10: {722.15, 3.66}},
		},
	}
	model := func(fw ID, kind device.Kind, ds DatasetID) (train, test float64) {
		in, err := InputFor(ds)
		if err != nil {
			t.Fatal(err)
		}
		net, err := BuildNetwork(fw, ds, in, NetworkOptions{Device: kind, DropoutRate: -1})
		if err != nil {
			t.Fatal(err)
		}
		d, err := Defaults(fw, ds)
		if err != nil {
			t.Fatal(err)
		}
		exec, err := NewExecutor(fw, net, d.BatchSize)
		if err != nil {
			t.Fatal(err)
		}
		m, err := CostModelFor(fw, kind)
		if err != nil {
			t.Fatal(err)
		}
		st := exec.Stats()
		return m.TrainSeconds(net.FLOPsPerSample(), d.MaxIters, d.BatchSize, st.TrainDispatches),
			m.TestSeconds(net.FLOPsPerSample(), 10000, 100, st.InferDispatches)
	}

	// (a) Tight agreement for the well-conditioned fits.
	tight := []struct {
		fw   ID
		kind device.Kind
		tol  float64
	}{
		{Caffe, device.GPU, 0.10},
		{Caffe, device.CPU, 0.15},
		{TensorFlow, device.CPU, 0.25},
	}
	for _, tc := range tight {
		for _, ds := range Datasets {
			train, _ := model(tc.fw, tc.kind, ds)
			want := paper[tc.fw][tc.kind][ds][0]
			if r := math.Abs(train-want) / want; r > tc.tol {
				t.Errorf("%v %v %v train = %.1fs, paper %.1fs (%.0f%% off)", tc.fw, tc.kind, ds, train, want, 100*r)
			}
		}
	}

	// (b) Ranking preservation for training time on every (device,
	// dataset) combination.
	for _, kind := range []device.Kind{device.CPU, device.GPU} {
		for _, ds := range Datasets {
			var modelTimes, paperTimes []float64
			for _, fw := range All {
				train, _ := model(fw, kind, ds)
				modelTimes = append(modelTimes, train)
				paperTimes = append(paperTimes, paper[fw][kind][ds][0])
			}
			for i := 0; i < len(All); i++ {
				for j := i + 1; j < len(All); j++ {
					if (modelTimes[i] < modelTimes[j]) != (paperTimes[i] < paperTimes[j]) {
						t.Errorf("%v %v: ranking of %v vs %v flipped (model %.0f/%.0f, paper %.0f/%.0f)",
							kind, ds, All[i], All[j], modelTimes[i], modelTimes[j], paperTimes[i], paperTimes[j])
					}
				}
			}
		}
	}
}

func TestInputForUnknown(t *testing.T) {
	if _, err := InputFor(DatasetID(7)); !errors.Is(err, ErrUnknown) {
		t.Fatal("unknown dataset input must error")
	}
}

func TestConnectionTableShape(t *testing.T) {
	table := connectionTable(16, 256, 4)
	if len(table) != 256 {
		t.Fatalf("rows = %d", len(table))
	}
	counts := make([]int, 16)
	for _, row := range table {
		on := 0
		for ic, v := range row {
			if v {
				on++
				counts[ic]++
			}
		}
		if on != 4 {
			t.Fatalf("fan-in = %d, want 4", on)
		}
	}
	// Round-robin assignment uses every input equally.
	for ic, c := range counts {
		if c != 256*4/16 {
			t.Fatalf("input %d used %d times, want %d", ic, c, 256*4/16)
		}
	}
}
