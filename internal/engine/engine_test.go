package engine

import (
	"context"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// buildNet constructs a small conv network with deterministic weights.
func buildNet(t *testing.T, seed uint64) *nn.Network {
	t.Helper()
	rng := tensor.NewRNG(seed)
	net := nn.NewNetwork("testnet", []int{1, 10, 10})
	conv, err := nn.NewConv2D(nn.Conv2DConfig{Name: "conv1", InC: 1, InH: 10, InW: 10, OutC: 4, Kernel: 3, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	relu, err := nn.NewActivation("relu1", nn.ReLU)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := nn.NewPool2D(nn.Pool2DConfig{Name: "pool1", Kind: nn.MaxPool, InC: 4, InH: 8, InW: 8, Window: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := nn.NewDense("fc", 4*4*4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Add(conv, relu, pool, nn.NewFlatten("flat"), fc); err != nil {
		t.Fatal(err)
	}
	if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	return net
}

// BuildTestNet gives the package's external tests the same test net.
var BuildTestNet = buildNet

func executors(t *testing.T, seed uint64) map[string]Executor {
	t.Helper()
	g, err := NewGraph(buildNet(t, seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	lw, err := NewLayerwise(buildNet(t, seed), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewModule(buildNet(t, seed), nil)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]Executor{"graph": g, "layerwise": lw, "module": m}
}

func TestExecutorsPredictShape(t *testing.T) {
	execs := executors(t, 3)
	rng := tensor.NewRNG(11)
	x := tensor.New(5, 1, 10, 10)
	rng.FillNormal(x, 0, 1)
	for name, e := range execs {
		preds, err := e.Predict(context.Background(), x)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(preds) != 5 {
			t.Fatalf("%s: %d predictions", name, len(preds))
		}
		for _, p := range preds {
			if p < 0 || p > 2 {
				t.Fatalf("%s: prediction %d out of range", name, p)
			}
		}
	}
}

func TestGraphFusionDetected(t *testing.T) {
	g, err := NewGraph(buildNet(t, 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.GraphNodes != 5 {
		t.Fatalf("GraphNodes = %d, want 5", st.GraphNodes)
	}
	// conv1+relu1 is the one fusible pair.
	if st.FusedPairs != 1 {
		t.Fatalf("FusedPairs = %d, want 1", st.FusedPairs)
	}
	// Inference dispatches: 5 nodes - 1 fused + 1 session run.
	if st.InferDispatches != 5 {
		t.Fatalf("InferDispatches = %d, want 5", st.InferDispatches)
	}
}

func TestDispatchOrdering(t *testing.T) {
	// The module executor must dispatch strictly more ops than the
	// layerwise executor, which dispatches more than the fused graph
	// executor at inference — the mechanical core of the paper's
	// Torch-slowest observation.
	execs := executors(t, 5)
	graphInfer := execs["graph"].Stats().InferDispatches
	layerwiseInfer := execs["layerwise"].Stats().InferDispatches
	moduleInfer := execs["module"].Stats().InferDispatches
	if !(moduleInfer > layerwiseInfer) {
		t.Fatalf("module (%d) must out-dispatch layerwise (%d)", moduleInfer, layerwiseInfer)
	}
	if !(moduleInfer > graphInfer) {
		t.Fatalf("module (%d) must out-dispatch graph (%d)", moduleInfer, graphInfer)
	}
	if execs["graph"].Stats().StartupUnits <= execs["layerwise"].Stats().StartupUnits {
		t.Fatal("graph startup must exceed layerwise startup")
	}
}

func TestLayerwiseBlobBytes(t *testing.T) {
	lw, err := NewLayerwise(buildNet(t, 2), 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lw.Stats().BlobBytes <= 0 {
		t.Fatal("blob bytes must be positive")
	}
	lw2, err := NewLayerwise(buildNet(t, 2), 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lw2.Stats().BlobBytes <= lw.Stats().BlobBytes {
		t.Fatal("blob bytes must grow with batch")
	}
}

func TestLayerwiseEnablesLossClamp(t *testing.T) {
	net := buildNet(t, 6)
	if _, err := NewLayerwise(net, 4, nil); err != nil {
		t.Fatal(err)
	}
	// Feed absurd logits through the loss: must clamp at CaffeLossClamp.
	logits := tensor.MustFrom([]float64{-1000, 1000, 0}, 1, 3)
	res, err := net.Loss(logits, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != nn.CaffeLossClamp {
		t.Fatalf("loss = %v, want clamp %v", res.Loss, nn.CaffeLossClamp)
	}
}

func TestModuleTreeStructure(t *testing.T) {
	m, err := NewModule(buildNet(t, 4), nil)
	if err != nil {
		t.Fatal(err)
	}
	st := m.Stats()
	if st.TreeDepth != 3 { // root -> features/classifier -> leaves
		t.Fatalf("TreeDepth = %d, want 3", st.TreeDepth)
	}
}

func TestNilNetworkRejected(t *testing.T) {
	if _, err := NewGraph(nil, nil); err != ErrNilNetwork {
		t.Fatalf("graph: %v", err)
	}
	if _, err := NewLayerwise(nil, 1, nil); err != ErrNilNetwork {
		t.Fatalf("layerwise: %v", err)
	}
	if _, err := NewModule(nil, nil); err != ErrNilNetwork {
		t.Fatalf("module: %v", err)
	}
}

func TestModuleWithoutFlatten(t *testing.T) {
	rng := tensor.NewRNG(8)
	net := nn.NewNetwork("flat-only", []int{6})
	fc, err := nn.NewDense("fc", 6, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Add(fc); err != nil {
		t.Fatal(err)
	}
	if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	m, err := NewModule(net, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 6)
	rng.FillNormal(x, 0, 1)
	if _, err := m.Logits(context.Background(), x); err != nil {
		t.Fatal(err)
	}
	if m.Stats().TreeDepth != 3 { // root -> sequential -> leaf
		t.Fatalf("TreeDepth = %d", m.Stats().TreeDepth)
	}
}
