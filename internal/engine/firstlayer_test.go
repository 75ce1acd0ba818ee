package engine_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// TestTrainBatchFirstLayerParamsOnly: every executor runs the layer that
// reads the network input through nn.BackwardParams, skipping an input
// gradient nothing reads. On the six paper networks and the ResNet, one
// TrainBatch (and one Network.TrainStep) must leave every parameter
// gradient bit-identical to Forward, Loss and Backward on an identically
// seeded copy; the hook must see the same dispatches as before (one
// backward per layer, node or module, and the forward schedule Logits
// runs), the traced counter must equal Stats().TrainDispatches, and
// Network.Backward must still return the input gradient.
func TestTrainBatchFirstLayerParamsOnly(t *testing.T) {
	type build func(seed uint64) (*nn.Network, error)
	nets := map[string]build{}
	for _, fw := range []framework.ID{framework.TensorFlow, framework.Caffe, framework.Torch} {
		for _, ds := range framework.Datasets {
			nets[fw.String()+"/"+ds.String()] = func(seed uint64) (*nn.Network, error) {
				in, err := framework.InputFor(ds)
				if err != nil {
					return nil, err
				}
				return framework.BuildNetwork(fw, ds, in, framework.NetworkOptions{
					Device: device.CPU, DropoutRate: -1, RNG: tensor.NewRNG(seed),
				})
			}
		}
	}
	nets["resnet"] = func(seed uint64) (*nn.Network, error) {
		in, err := framework.InputFor(framework.MNIST)
		if err != nil {
			return nil, err
		}
		return framework.BuildResNet(in, framework.NetworkOptions{RNG: tensor.NewRNG(seed)})
	}
	newNet := func(t *testing.T, b build) *nn.Network {
		t.Helper()
		net, err := b(7)
		if err != nil {
			t.Fatal(err)
		}
		if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, tensor.NewRNG(11)); err != nil {
			t.Fatal(err)
		}
		return net
	}
	styles := map[string]func(*nn.Network, *obs.Tracer) (engine.Executor, error){
		"graph":     func(n *nn.Network, tr *obs.Tracer) (engine.Executor, error) { return engine.NewGraph(n, tr) },
		"layerwise": func(n *nn.Network, tr *obs.Tracer) (engine.Executor, error) { return engine.NewLayerwise(n, 3, tr) },
		"module":    func(n *nn.Network, tr *obs.Tracer) (engine.Executor, error) { return engine.NewModule(n, tr) },
		"trainstep": nil, // nn.Network.TrainStep, no executor
	}
	ctx := context.Background()
	for name, b := range nets {
		for style, newExec := range styles {
			t.Run(name+"/"+style, func(t *testing.T) {
				net, ref := newNet(t, b), newNet(t, b)
				x := tensor.New(append([]int{3}, net.InShape()...)...)
				tensor.NewRNG(5).FillNormal(x, 0, 1)
				labels := []int{1, 7, 3}

				if newExec == nil {
					if _, err := net.TrainStep(x, labels); err != nil {
						t.Fatal(err)
					}
				} else {
					tr := obs.New()
					e, err := newExec(net, tr)
					if err != nil {
						t.Fatal(err)
					}
					if style == "layerwise" {
						ref.SetLossClamp(nn.CaffeLossClamp)
					}
					var sites map[string]int
					e.SetOpHook(func(site string) error { sites[site]++; return nil })
					sites = map[string]int{}
					if _, err := e.Logits(ctx, x); err != nil {
						t.Fatal(err)
					}
					inferHooks := sites[style+".forward"]
					sites = map[string]int{}
					if _, err := e.TrainBatch(ctx, x, labels); err != nil {
						t.Fatal(err)
					}
					st := e.Stats()
					wantBwd := map[string]int{"graph": st.GraphNodes, "layerwise": len(net.Layers()), "module": st.InferDispatches}[style]
					if sites[style+".forward"] != inferHooks || sites[style+".backward"] != wantBwd {
						t.Errorf("hook calls %v, want %d forward and %d backward", sites, inferHooks, wantBwd)
					}
					if got := tr.Counter(engine.CounterTrainDispatch(style)).Value(); got != int64(st.TrainDispatches) {
						t.Errorf("TrainBatch counted %d dispatches, Stats().TrainDispatches = %d", got, st.TrainDispatches)
					}
				}

				logits, err := ref.Forward(x, true)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ref.Loss(logits, labels)
				if err != nil {
					t.Fatal(err)
				}
				gx, err := ref.Backward(res.Grad)
				if err != nil {
					t.Fatal(err)
				}
				if gx == nil || !gx.SameShape(x) {
					t.Fatalf("Network.Backward returned input gradient %v for input %v", gx, x.Shape())
				}
				got, want := net.Params(), ref.Params()
				for i, p := range want {
					g, w := got[i].Grad.Data(), p.Grad.Data()
					for j := range w {
						if math.Float64bits(g[j]) != math.Float64bits(w[j]) {
							t.Fatalf("%s grad[%d] = %v, Backward gives %v", p.Name, j, g[j], w[j])
						}
					}
				}
			})
		}
	}
}
