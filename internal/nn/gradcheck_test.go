package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// evalLoss runs a deterministic forward pass and returns the scalar loss.
func evalLoss(t *testing.T, net *Network, x *tensor.Tensor, labels []int) float64 {
	t.Helper()
	logits, err := net.Forward(x, true)
	if err != nil {
		t.Fatalf("forward: %v", err)
	}
	res, err := net.Loss(logits, labels)
	if err != nil {
		t.Fatalf("loss: %v", err)
	}
	return res.Loss
}

// checkGradients compares analytic parameter and input gradients against
// central finite differences. The network must be deterministic (no
// dropout).
func checkGradients(t *testing.T, net *Network, x *tensor.Tensor, labels []int) {
	t.Helper()
	net.ZeroGrads()
	res, err := net.TrainStep(x, labels)
	if err != nil {
		t.Fatalf("train step: %v", err)
	}
	gradIn, err := func() (*tensor.Tensor, error) {
		// Re-run to get input gradient with fresh caches.
		net.ZeroGrads()
		logits, err := net.Forward(x, true)
		if err != nil {
			return nil, err
		}
		r, err := net.Loss(logits, labels)
		if err != nil {
			return nil, err
		}
		return net.Backward(r.Grad)
	}()
	if err != nil {
		t.Fatalf("backward: %v", err)
	}
	_ = res

	const eps = 1e-5
	const tol = 2e-4
	rng := tensor.NewRNG(77)

	for _, p := range net.Params() {
		n := p.Value.Len()
		checks := n
		if checks > 20 {
			checks = 20
		}
		for k := 0; k < checks; k++ {
			i := k
			if n > checks {
				i = rng.Intn(n)
			}
			old := p.Value.Data()[i]
			p.Value.Data()[i] = old + eps
			lp := evalLoss(t, net, x, labels)
			p.Value.Data()[i] = old - eps
			lm := evalLoss(t, net, x, labels)
			p.Value.Data()[i] = old
			numeric := (lp - lm) / (2 * eps)
			analytic := p.Grad.Data()[i]
			if diff := math.Abs(numeric - analytic); diff > tol*(1+math.Abs(numeric)) {
				t.Errorf("param %s[%d]: analytic %.8f vs numeric %.8f", p.Name, i, analytic, numeric)
			}
		}
	}

	// Input gradient spot checks.
	n := x.Len()
	checks := n
	if checks > 20 {
		checks = 20
	}
	for k := 0; k < checks; k++ {
		i := rng.Intn(n)
		old := x.Data()[i]
		x.Data()[i] = old + eps
		lp := evalLoss(t, net, x, labels)
		x.Data()[i] = old - eps
		lm := evalLoss(t, net, x, labels)
		x.Data()[i] = old
		numeric := (lp - lm) / (2 * eps)
		analytic := gradIn.Data()[i]
		if diff := math.Abs(numeric - analytic); diff > tol*(1+math.Abs(numeric)) {
			t.Errorf("input[%d]: analytic %.8f vs numeric %.8f", i, analytic, numeric)
		}
	}
}

func mustConv(t *testing.T, cfg Conv2DConfig) *Conv2D {
	t.Helper()
	c, err := NewConv2D(cfg)
	if err != nil {
		t.Fatalf("NewConv2D: %v", err)
	}
	return c
}

func mustPool(t *testing.T, cfg Pool2DConfig) *Pool2D {
	t.Helper()
	p, err := NewPool2D(cfg)
	if err != nil {
		t.Fatalf("NewPool2D: %v", err)
	}
	return p
}

func mustDense(t *testing.T, name string, in, out int) *Dense {
	t.Helper()
	d, err := NewDense(name, in, out)
	if err != nil {
		t.Fatalf("NewDense: %v", err)
	}
	return d
}

func mustAct(t *testing.T, name string, k ActKind) *Activation {
	t.Helper()
	a, err := NewActivation(name, k)
	if err != nil {
		t.Fatalf("NewActivation: %v", err)
	}
	return a
}

func randomBatch(rng *tensor.RNG, n int, shape []int, classes int) (*tensor.Tensor, []int) {
	full := append([]int{n}, shape...)
	x := tensor.New(full...)
	rng.FillNormal(x, 0, 1)
	labels := make([]int, n)
	for i := range labels {
		labels[i] = rng.Intn(classes)
	}
	return x, labels
}

func TestGradCheckDense(t *testing.T) {
	rng := tensor.NewRNG(1)
	net := NewNetwork("dense-net", []int{6})
	if err := net.Add(mustDense(t, "fc1", 6, 5), mustAct(t, "tanh1", Tanh), mustDense(t, "fc2", 5, 3)); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x, labels := randomBatch(rng, 4, []int{6}, 3)
	checkGradients(t, net, x, labels)
}

func TestGradCheckConvReLU(t *testing.T) {
	rng := tensor.NewRNG(2)
	net := NewNetwork("conv-net", []int{2, 7, 7})
	conv := mustConv(t, Conv2DConfig{Name: "conv1", InC: 2, InH: 7, InW: 7, OutC: 3, Kernel: 3, Stride: 1, Pad: 1})
	if err := net.Add(
		conv,
		mustAct(t, "relu1", ReLU),
		NewFlatten("flat"),
		mustDense(t, "fc", 3*7*7, 4),
	); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x, labels := randomBatch(rng, 3, []int{2, 7, 7}, 4)
	checkGradients(t, net, x, labels)
}

func TestGradCheckMaxPool(t *testing.T) {
	rng := tensor.NewRNG(3)
	net := NewNetwork("pool-net", []int{2, 8, 8})
	if err := net.Add(
		mustPool(t, Pool2DConfig{Name: "pool1", Kind: MaxPool, InC: 2, InH: 8, InW: 8, Window: 2, Stride: 2}),
		NewFlatten("flat"),
		mustDense(t, "fc", 2*4*4, 3),
	); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x, labels := randomBatch(rng, 3, []int{2, 8, 8}, 3)
	// Max pooling is only piecewise differentiable; keep values separated
	// to avoid ties at the finite-difference scale.
	tensor.Scale(x, 3)
	checkGradients(t, net, x, labels)
}

func TestGradCheckAvgPoolStride(t *testing.T) {
	rng := tensor.NewRNG(4)
	net := NewNetwork("avgpool-net", []int{1, 9, 9})
	if err := net.Add(
		mustPool(t, Pool2DConfig{Name: "pool1", Kind: AvgPool, InC: 1, InH: 9, InW: 9, Window: 3, Stride: 2}),
		NewFlatten("flat"),
		mustDense(t, "fc", 16, 3),
	); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x, labels := randomBatch(rng, 2, []int{1, 9, 9}, 3)
	checkGradients(t, net, x, labels)
}

func TestGradCheckLRN(t *testing.T) {
	rng := tensor.NewRNG(5)
	lrn, err := NewLRN(LRNConfig{Name: "lrn1", Depth: 3, K: 1, Alpha: 0.3, Beta: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork("lrn-net", []int{4, 3, 3})
	if err := net.Add(
		lrn,
		NewFlatten("flat"),
		mustDense(t, "fc", 4*3*3, 3),
	); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x, labels := randomBatch(rng, 2, []int{4, 3, 3}, 3)
	checkGradients(t, net, x, labels)
}

func TestGradCheckSigmoid(t *testing.T) {
	rng := tensor.NewRNG(6)
	net := NewNetwork("sig-net", []int{5})
	if err := net.Add(mustDense(t, "fc1", 5, 4), mustAct(t, "sig", Sigmoid), mustDense(t, "fc2", 4, 2)); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x, labels := randomBatch(rng, 4, []int{5}, 2)
	checkGradients(t, net, x, labels)
}

func TestGradCheckConnTableConv(t *testing.T) {
	rng := tensor.NewRNG(7)
	// Partial connectivity: each of the 3 output maps sees 1-2 inputs.
	table := [][]bool{
		{true, false},
		{false, true},
		{true, true},
	}
	conv := mustConv(t, Conv2DConfig{Name: "mapconv", InC: 2, InH: 6, InW: 6, OutC: 3, Kernel: 3, Stride: 1, ConnTable: table})
	net := NewNetwork("mapconv-net", []int{2, 6, 6})
	if err := net.Add(conv, NewFlatten("flat"), mustDense(t, "fc", 3*4*4, 3)); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x, labels := randomBatch(rng, 2, []int{2, 6, 6}, 3)
	checkGradients(t, net, x, labels)

	// Masked weights must remain exactly zero after forward/backward.
	per := 9 // 3x3 kernel
	w := conv.weight.Value.Data()
	for oc, row := range table {
		for ic, on := range row {
			if on {
				continue
			}
			for k := 0; k < per; k++ {
				if w[oc*2*per+ic*per+k] != 0 {
					t.Fatalf("masked weight (%d,%d,%d) = %v, want 0", oc, ic, k, w[oc*2*per+ic*per+k])
				}
			}
		}
	}
}

func TestGradCheckResidual(t *testing.T) {
	rng := tensor.NewRNG(8)
	// Branch conv preserves [2,6,6] (pad 1, stride 1); tanh keeps the
	// finite-difference surface smooth through the skip add.
	res, err := NewResidual("res1", []int{2, 6, 6},
		mustConv(t, Conv2DConfig{Name: "res1.conv", InC: 2, InH: 6, InW: 6, OutC: 2, Kernel: 3, Stride: 1, Pad: 1}),
		mustAct(t, "res1.tanh", Tanh),
	)
	if err != nil {
		t.Fatal(err)
	}
	net := NewNetwork("res-net", []int{2, 6, 6})
	if err := net.Add(res, NewFlatten("flat"), mustDense(t, "fc", 2*6*6, 3)); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x, labels := randomBatch(rng, 3, []int{2, 6, 6}, 3)
	checkGradients(t, net, x, labels)
}

func TestGradCheckStackedResiduals(t *testing.T) {
	rng := tensor.NewRNG(9)
	mkRes := func(name string) *Residual {
		r, err := NewResidual(name, []int{2, 5, 5},
			mustConv(t, Conv2DConfig{Name: name + ".conv", InC: 2, InH: 5, InW: 5, OutC: 2, Kernel: 3, Stride: 1, Pad: 1}),
			mustAct(t, name+".tanh", Tanh),
		)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	net := NewNetwork("res-stack", []int{2, 5, 5})
	if err := net.Add(mkRes("res1"), mkRes("res2"), NewFlatten("flat"), mustDense(t, "fc", 2*5*5, 4)); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x, labels := randomBatch(rng, 2, []int{2, 5, 5}, 4)
	checkGradients(t, net, x, labels)
}

func TestResidualRejectsShapeChange(t *testing.T) {
	// A branch that changes the per-sample shape cannot take an identity
	// skip.
	_, err := NewResidual("bad", []int{2, 6, 6},
		mustConv(t, Conv2DConfig{Name: "bad.conv", InC: 2, InH: 6, InW: 6, OutC: 4, Kernel: 3, Stride: 1, Pad: 1}),
	)
	if err == nil {
		t.Fatal("shape-changing branch accepted")
	}
}
