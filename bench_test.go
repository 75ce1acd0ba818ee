package repro

import (
	"context"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// The experiment benchmarks below regenerate every table and figure of
// the paper at ScaleTest. A single suite is shared so that experiments
// reusing a trained configuration (exactly as Table VI reuses Figure 1's
// runs) train it once; the first benchmark iteration pays the training
// cost, later iterations measure the cached path.
var (
	benchOnce  sync.Once
	benchSuite *core.Suite
)

func suite(b *testing.B) *core.Suite {
	b.Helper()
	benchOnce.Do(func() {
		s, err := core.NewSuite(core.ScaleTest, 42)
		if err != nil {
			panic(err)
		}
		benchSuite = s
	})
	return benchSuite
}

func BenchmarkTable1FrameworkProperties(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, fw := range framework.All {
			if m := fw.Meta(); m.LoC == 0 {
				b.Fatal("missing metadata")
			}
		}
	}
}

func BenchmarkTable2MNISTDefaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, fw := range framework.All {
			if _, err := framework.Defaults(fw, framework.MNIST); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable3CIFARDefaults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, fw := range framework.All {
			if _, err := framework.Defaults(fw, framework.CIFAR10); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func benchBuildNetworks(b *testing.B, ds framework.DatasetID) {
	in, err := framework.InputFor(ds)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, fw := range framework.All {
			if _, err := framework.BuildNetwork(fw, ds, in, framework.NetworkOptions{Device: device.GPU, DropoutRate: -1}); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkTable4MNISTNetworks(b *testing.B) { benchBuildNetworks(b, framework.MNIST) }
func BenchmarkTable5CIFARNetworks(b *testing.B) { benchBuildNetworks(b, framework.CIFAR10) }

func BenchmarkFig1MNISTBaseline(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Baseline(context.Background(), framework.MNIST); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2CIFARBaseline(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.Baseline(context.Background(), framework.CIFAR10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3DatasetDependentMNIST(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.DatasetDependent(context.Background(), framework.MNIST); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4DatasetDependentCIFAR(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.DatasetDependent(context.Background(), framework.CIFAR10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5CaffeConvergence(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.CaffeConvergence(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6FrameworkDependentMNIST(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.FrameworkDependent(context.Background(), framework.MNIST); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7FrameworkDependentCIFAR(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.FrameworkDependent(context.Background(), framework.CIFAR10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable6MNISTSummary(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.SummaryTable(context.Background(), framework.MNIST); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable7CIFARSummary(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.SummaryTable(context.Background(), framework.CIFAR10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8FGSM(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.UntargetedRobustness(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9Table8Table9JSMA(b *testing.B) {
	s := suite(b)
	for i := 0; i < b.N; i++ {
		if _, err := s.TargetedRobustness(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation benchmarks (DESIGN.md §5) ---

// BenchmarkExecutorOverhead runs the identical network and batch through
// the three executor styles; the delta is pure scheduling overhead.
func BenchmarkExecutorOverhead(b *testing.B) {
	build := func() *nn.Network {
		in, err := framework.InputFor(framework.MNIST)
		if err != nil {
			b.Fatal(err)
		}
		net, err := framework.BuildNetwork(framework.Caffe, framework.MNIST, in, framework.NetworkOptions{Device: device.GPU, DropoutRate: -1})
		if err != nil {
			b.Fatal(err)
		}
		if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, tensor.NewRNG(1)); err != nil {
			b.Fatal(err)
		}
		return net
	}
	rng := tensor.NewRNG(2)
	x := tensor.New(16, 1, 28, 28)
	rng.FillNormal(x, 0, 1)
	labels := make([]int, 16)
	for i := range labels {
		labels[i] = rng.Intn(10)
	}
	for _, style := range []struct {
		name string
		make func(net *nn.Network) (engine.Executor, error)
	}{
		{"graph", func(n *nn.Network) (engine.Executor, error) { return engine.NewGraph(n, nil) }},
		{"layerwise", func(n *nn.Network) (engine.Executor, error) { return engine.NewLayerwise(n, 16, nil) }},
		{"module", func(n *nn.Network) (engine.Executor, error) { return engine.NewModule(n, nil) }},
	} {
		b.Run(style.name, func(b *testing.B) {
			exec, err := style.make(build())
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := exec.TrainBatch(context.Background(), x, labels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkConvAlgorithms compares direct convolution against the im2col
// GEMM lowering the layers use.
func BenchmarkConvAlgorithms(b *testing.B) {
	g := tensor.ConvGeom{InC: 16, InH: 28, InW: 28, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, OutC: 32}
	rng := tensor.NewRNG(3)
	img := make([]float64, g.InC*g.InH*g.InW)
	kVol := g.InC * g.KH * g.KW
	weights := make([]float64, g.OutC*kVol)
	bias := make([]float64, g.OutC)
	for i := range img {
		img[i] = rng.NormFloat64()
	}
	for i := range weights {
		weights[i] = rng.NormFloat64()
	}
	out := make([]float64, g.OutC*g.OutH()*g.OutW())
	b.Run("direct", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			tensor.ConvDirect(out, img, weights, bias, g)
		}
	})
	b.Run("im2col-gemm", func(b *testing.B) {
		col := make([]float64, kVol*g.OutH()*g.OutW())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tensor.Im2Col(col, img, g)
			tensor.Gemm(out, weights, col, g.OutC, kVol, g.OutH()*g.OutW(), false)
		}
	})
}

// BenchmarkRegularizers contrasts dropout (TensorFlow's default) with
// weight decay (Caffe's) on the same dense training step — the mechanism
// behind the paper's Table IX robustness differences.
func BenchmarkRegularizers(b *testing.B) {
	step := func(b *testing.B, useDropout bool) {
		rng := tensor.NewRNG(4)
		net := nn.NewNetwork("reg", []int{256})
		fc1, err := nn.NewDense("fc1", 256, 128)
		if err != nil {
			b.Fatal(err)
		}
		act, err := nn.NewActivation("relu", nn.ReLU)
		if err != nil {
			b.Fatal(err)
		}
		layers := []nn.Layer{fc1, act}
		if useDropout {
			drop, err := nn.NewDropout("drop", 0.5, rng)
			if err != nil {
				b.Fatal(err)
			}
			layers = append(layers, drop)
		}
		fc2, err := nn.NewDense("fc2", 128, 10)
		if err != nil {
			b.Fatal(err)
		}
		layers = append(layers, fc2)
		if err := net.Add(layers...); err != nil {
			b.Fatal(err)
		}
		if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, rng); err != nil {
			b.Fatal(err)
		}
		wd := 0.0
		if !useDropout {
			wd = 0.0005
		}
		opt, err := optim.NewSGD(net.Params(), optim.SGDConfig{Schedule: optim.ConstantSchedule(0.01), WeightDecay: wd})
		if err != nil {
			b.Fatal(err)
		}
		x := tensor.New(32, 256)
		rng.FillNormal(x, 0, 1)
		labels := make([]int, 32)
		for i := range labels {
			labels[i] = rng.Intn(10)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.TrainStep(x, labels); err != nil {
				b.Fatal(err)
			}
			if err := opt.Step(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("dropout", func(b *testing.B) { step(b, true) })
	b.Run("weight-decay", func(b *testing.B) { step(b, false) })
}

// BenchmarkCostModelVsWall measures the pure cost-model evaluation
// (deterministic paper-scale times) against an actual training iteration,
// documenting the gap between modeled and executed work.
func BenchmarkCostModelVsWall(b *testing.B) {
	in, err := framework.InputFor(framework.MNIST)
	if err != nil {
		b.Fatal(err)
	}
	net, err := framework.BuildNetwork(framework.Caffe, framework.MNIST, in, framework.NetworkOptions{Device: device.GPU, DropoutRate: -1})
	if err != nil {
		b.Fatal(err)
	}
	cm, err := framework.CostModelFor(framework.Caffe, device.GPU)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("model-eval", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = cm.TrainSeconds(net.FLOPsPerSample(), 10000, 64, 17)
		}
	})
	b.Run("real-iteration", func(b *testing.B) {
		if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, tensor.NewRNG(5)); err != nil {
			b.Fatal(err)
		}
		rng := tensor.NewRNG(6)
		x := tensor.New(64, 1, 28, 28)
		rng.FillNormal(x, 0, 1)
		labels := make([]int, 64)
		for i := range labels {
			labels[i] = rng.Intn(10)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := net.TrainStep(x, labels); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDataSynthesis measures the procedural dataset generators.
func BenchmarkDataSynthesis(b *testing.B) {
	b.Run("mnist", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := data.SynthMNIST(data.SynthConfig{Train: 100, Test: 10, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cifar10", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := data.SynthCIFAR10(data.SynthConfig{Train: 100, Test: 10, Seed: uint64(i)}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
