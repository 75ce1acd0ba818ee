package engine_test

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// agreeNets lists the networks the executor-agreement tests run: the
// package's small conv test net, the six paper networks and Torch's CPU
// CIFAR-10 network, whose second convolution is a SpatialConvolutionMap.
// Each build returns a fresh, identically initialised copy.
func agreeNets() map[string]func(t *testing.T) *nn.Network {
	nets := map[string]func(t *testing.T) *nn.Network{
		"testnet": func(t *testing.T) *nn.Network { return engine.BuildTestNet(t, 42) },
	}
	paper := func(fw framework.ID, ds framework.DatasetID, dev device.Kind) func(t *testing.T) *nn.Network {
		return func(t *testing.T) *nn.Network {
			t.Helper()
			in, err := framework.InputFor(ds)
			if err != nil {
				t.Fatal(err)
			}
			net, err := framework.BuildNetwork(fw, ds, in, framework.NetworkOptions{
				Device: dev, DropoutRate: -1, RNG: tensor.NewRNG(7),
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, tensor.NewRNG(11)); err != nil {
				t.Fatal(err)
			}
			return net
		}
	}
	for _, fw := range framework.All {
		for _, ds := range framework.Datasets {
			nets[fw.Short()+"/"+ds.String()] = paper(fw, ds, device.GPU)
		}
	}
	nets["Torch/CIFAR-10/CPU"] = paper(framework.Torch, framework.CIFAR10, device.CPU)
	return nets
}

// forEachAgreeNet runs f on every agreement net at GOMAXPROCS 1 and 2,
// with one executor of each float style over its own copy of the net and
// a seeded batch of four inputs.
func forEachAgreeNet(t *testing.T, f func(t *testing.T, execs map[string]engine.Executor, x *tensor.Tensor)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	const batch = 4
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		for name, build := range agreeNets() {
			t.Run(fmt.Sprintf("procs%d/%s", procs, name), func(t *testing.T) {
				g, err := engine.NewGraph(build(t), nil)
				if err != nil {
					t.Fatal(err)
				}
				lw, err := engine.NewLayerwise(build(t), batch, nil)
				if err != nil {
					t.Fatal(err)
				}
				m, err := engine.NewModule(build(t), nil)
				if err != nil {
					t.Fatal(err)
				}
				x := tensor.New(append([]int{batch}, g.Network().InShape()...)...)
				tensor.NewRNG(9).FillNormal(x, 0, 1)
				f(t, map[string]engine.Executor{"graph": g, "layerwise": lw, "module": m}, x)
			})
		}
	}
}

// sameBits fails t unless got holds the same float64 bits as want.
func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, graph gives %v", what, i, got[i], want[i])
		}
	}
}

// TestExecutorsAgreeOnLogits: the three executor styles must produce
// bit-identical logits for identical weights — the paper's framework time
// differences come from scheduling, not math.
func TestExecutorsAgreeOnLogits(t *testing.T) {
	forEachAgreeNet(t, func(t *testing.T, execs map[string]engine.Executor, x *tensor.Tensor) {
		ref, err := execs["graph"].Logits(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"layerwise", "module"} {
			logits, err := execs[name].Logits(context.Background(), x)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameBits(t, name+" logits", logits.Data(), ref.Data())
		}
	})
}

// TestExecutorsAgreeOnTraining: over two train steps with an SGD update
// between them, the three styles must agree bit for bit on the loss and
// on every parameter gradient. Caffe-style loss clamping, which the
// layerwise executor enables, does not bite at these loss scales.
func TestExecutorsAgreeOnTraining(t *testing.T) {
	forEachAgreeNet(t, func(t *testing.T, execs map[string]engine.Executor, x *tensor.Tensor) {
		labels := []int{0, 1, 2, 1}
		opts := map[string]*optim.SGD{}
		for name, e := range execs {
			opt, err := optim.NewSGD(e.Network().Params(), optim.SGDConfig{Schedule: optim.ConstantSchedule(0.01), Momentum: 0.9})
			if err != nil {
				t.Fatal(err)
			}
			opts[name] = opt
		}
		for step := 0; step < 2; step++ {
			losses := map[string]float64{}
			for name, e := range execs {
				res, err := e.TrainBatch(context.Background(), x, labels)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				losses[name] = res.Loss
			}
			ref := execs["graph"].Network().Params()
			for _, name := range []string{"layerwise", "module"} {
				sameBits(t, fmt.Sprintf("step %d: %s loss", step, name), []float64{losses[name]}, []float64{losses["graph"]})
				for i, p := range execs[name].Network().Params() {
					sameBits(t, fmt.Sprintf("step %d: %s %s grad", step, name, p.Name), p.Grad.Data(), ref[i].Grad.Data())
				}
			}
			for _, opt := range opts {
				if err := opt.Step(); err != nil {
					t.Fatal(err)
				}
			}
		}
	})
}
