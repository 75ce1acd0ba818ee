package nn

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestConv2DOutShape(t *testing.T) {
	tests := []struct {
		name string
		cfg  Conv2DConfig
		want []int
	}{
		{
			name: "tf mnist conv1",
			cfg:  Conv2DConfig{Name: "c", InC: 1, InH: 28, InW: 28, OutC: 32, Kernel: 5, Stride: 1, Pad: 2},
			want: []int{32, 28, 28},
		},
		{
			name: "caffe mnist conv1 (valid)",
			cfg:  Conv2DConfig{Name: "c", InC: 1, InH: 28, InW: 28, OutC: 20, Kernel: 5, Stride: 1},
			want: []int{20, 24, 24},
		},
		{
			name: "cifar conv 3ch",
			cfg:  Conv2DConfig{Name: "c", InC: 3, InH: 32, InW: 32, OutC: 64, Kernel: 5, Stride: 1, Pad: 2},
			want: []int{64, 32, 32},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			c, err := NewConv2D(tt.cfg)
			if err != nil {
				t.Fatalf("NewConv2D: %v", err)
			}
			got, err := c.OutShape([]int{tt.cfg.InC, tt.cfg.InH, tt.cfg.InW})
			if err != nil {
				t.Fatalf("OutShape: %v", err)
			}
			if !shapeEq(got, tt.want) {
				t.Fatalf("OutShape = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestConv2DRejectsBadInput(t *testing.T) {
	c, err := NewConv2D(Conv2DConfig{Name: "c", InC: 1, InH: 8, InW: 8, OutC: 2, Kernel: 3, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 3, 8, 8) // wrong channel count
	if _, err := c.Forward(x, true); !errors.Is(err, ErrShape) {
		t.Fatalf("Forward with wrong channels: err = %v, want ErrShape", err)
	}
	if _, err := c.Backward(tensor.New(2, 2, 6, 6)); !errors.Is(err, ErrNoForward) {
		t.Fatalf("Backward before forward: err = %v, want ErrNoForward", err)
	}
}

func TestPoolRejectsUnknownKind(t *testing.T) {
	if _, err := NewPool2D(Pool2DConfig{Name: "p", Kind: 0, InC: 1, InH: 4, InW: 4, Window: 2, Stride: 2}); err == nil {
		t.Fatal("NewPool2D accepted kind 0")
	}
}

func TestMaxPoolForwardValues(t *testing.T) {
	p, err := NewPool2D(Pool2DConfig{Name: "p", Kind: MaxPool, InC: 1, InH: 4, InW: 4, Window: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFrom([]float64{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 1, 4, 4)
	out, err := p.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{6, 8, 14, 16}
	for i, v := range out.Data() {
		if v != want[i] {
			t.Fatalf("maxpool[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestAvgPoolForwardValues(t *testing.T) {
	p, err := NewPool2D(Pool2DConfig{Name: "p", Kind: AvgPool, InC: 1, InH: 2, InW: 2, Window: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.MustFrom([]float64{1, 2, 3, 4}, 1, 1, 2, 2)
	out, err := p.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if out.Data()[0] != 2.5 {
		t.Fatalf("avgpool = %v, want 2.5", out.Data()[0])
	}
}

func TestActivationValues(t *testing.T) {
	x := tensor.MustFrom([]float64{-1, 0, 2}, 1, 3)
	tests := []struct {
		kind ActKind
		want []float64
	}{
		{ReLU, []float64{0, 0, 2}},
		{Tanh, []float64{math.Tanh(-1), 0, math.Tanh(2)}},
		{Sigmoid, []float64{1 / (1 + math.E), 0.5, 1 / (1 + math.Exp(-2))}},
	}
	for _, tt := range tests {
		t.Run(tt.kind.String(), func(t *testing.T) {
			a, err := NewActivation("a", tt.kind)
			if err != nil {
				t.Fatal(err)
			}
			out, err := a.Forward(x, true)
			if err != nil {
				t.Fatal(err)
			}
			for i, v := range out.Data() {
				if math.Abs(v-tt.want[i]) > 1e-12 {
					t.Fatalf("%v[%d] = %v, want %v", tt.kind, i, v, tt.want[i])
				}
			}
		})
	}
}

func TestDropoutInferenceIsIdentity(t *testing.T) {
	rng := tensor.NewRNG(11)
	d, err := NewDropout("drop", 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(4, 10)
	rng.FillNormal(x, 0, 1)
	out, err := d.Forward(x, false)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data() {
		if out.Data()[i] != x.Data()[i] {
			t.Fatal("inference dropout must be identity")
		}
	}
}

func TestDropoutTrainingStatistics(t *testing.T) {
	rng := tensor.NewRNG(12)
	const p = 0.4
	d, err := NewDropout("drop", p, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 20000)
	x.Fill(1)
	out, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	zeros := 0
	sum := 0.0
	for _, v := range out.Data() {
		if v == 0 {
			zeros++
		}
		sum += v
	}
	frac := float64(zeros) / float64(out.Len())
	if math.Abs(frac-p) > 0.02 {
		t.Fatalf("drop fraction = %v, want ≈%v", frac, p)
	}
	// Inverted dropout preserves the expectation.
	if mean := sum / float64(out.Len()); math.Abs(mean-1) > 0.03 {
		t.Fatalf("output mean = %v, want ≈1", mean)
	}
}

// TestDropoutBackwardConsistency verifies gradIn[i]*x[i] == gradOut[i]*y[i]
// which holds exactly when backward applies the same mask as forward.
func TestDropoutBackwardConsistency(t *testing.T) {
	rng := tensor.NewRNG(13)
	d, err := NewDropout("drop", 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(2, 50)
	rng.FillNormal(x, 0, 1)
	y, err := d.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	g := tensor.New(2, 50)
	rng.FillNormal(g, 0, 1)
	gi, err := d.Backward(g)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data() {
		lhs := gi.Data()[i] * x.Data()[i]
		rhs := g.Data()[i] * y.Data()[i]
		if math.Abs(lhs-rhs) > 1e-12 {
			t.Fatalf("mask mismatch at %d: %v != %v", i, lhs, rhs)
		}
	}
}

func TestDropoutRejectsBadConfig(t *testing.T) {
	rng := tensor.NewRNG(1)
	if _, err := NewDropout("d", 1.0, rng); err == nil {
		t.Fatal("accepted p=1")
	}
	if _, err := NewDropout("d", -0.1, rng); err == nil {
		t.Fatal("accepted p<0")
	}
	if _, err := NewDropout("d", 0.5, nil); err == nil {
		t.Fatal("accepted nil RNG")
	}
}

func TestSoftmaxCrossEntropy(t *testing.T) {
	logits := tensor.MustFrom([]float64{
		2, 1, 0.1,
		0, 0, 0,
	}, 2, 3)
	var sce SoftmaxCrossEntropy
	res, err := sce.Eval(logits, []int{0, 2})
	if err != nil {
		t.Fatal(err)
	}
	// Row sums of probabilities must be 1.
	for i := 0; i < 2; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			s += res.Probs.At(i, j)
		}
		if math.Abs(s-1) > 1e-12 {
			t.Fatalf("row %d prob sum = %v", i, s)
		}
	}
	// Uniform logits give loss ln(3) for that sample.
	wantRow2 := math.Log(3)
	p := res.Probs.At(1, 2)
	if math.Abs(-math.Log(p)-wantRow2) > 1e-12 {
		t.Fatalf("uniform row loss = %v, want %v", -math.Log(p), wantRow2)
	}
	// Gradient rows sum to zero (softmax simplex property).
	for i := 0; i < 2; i++ {
		s := 0.0
		for j := 0; j < 3; j++ {
			s += res.Grad.At(i, j)
		}
		if math.Abs(s) > 1e-12 {
			t.Fatalf("grad row %d sum = %v, want 0", i, s)
		}
	}
}

func TestSoftmaxCrossEntropyClamp(t *testing.T) {
	// A hopeless logit row produces a huge loss; the clamp caps it.
	logits := tensor.MustFrom([]float64{-500, 500}, 1, 2)
	sce := SoftmaxCrossEntropy{ClampLoss: CaffeLossClamp}
	res, err := sce.Eval(logits, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != CaffeLossClamp {
		t.Fatalf("clamped loss = %v, want %v", res.Loss, CaffeLossClamp)
	}
}

func TestSoftmaxCrossEntropyNonFiniteLogits(t *testing.T) {
	logits := tensor.MustFrom([]float64{math.NaN(), 1}, 1, 2)
	sce := SoftmaxCrossEntropy{ClampLoss: CaffeLossClamp}
	res, err := sce.Eval(logits, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if res.Loss != CaffeLossClamp {
		t.Fatalf("NaN-logit loss = %v, want clamp %v", res.Loss, CaffeLossClamp)
	}
	for _, g := range res.Grad.Data() {
		if math.IsNaN(g) || math.IsInf(g, 0) {
			t.Fatal("gradient must stay finite for non-finite logits")
		}
	}
}

func TestSoftmaxCrossEntropyErrors(t *testing.T) {
	var sce SoftmaxCrossEntropy
	if _, err := sce.Eval(tensor.New(2, 3), []int{0}); !errors.Is(err, ErrShape) {
		t.Fatalf("label count mismatch: %v", err)
	}
	if _, err := sce.Eval(tensor.New(1, 3), []int{7}); !errors.Is(err, ErrShape) {
		t.Fatalf("label out of range: %v", err)
	}
	if _, err := sce.Eval(tensor.New(6), []int{0}); !errors.Is(err, ErrShape) {
		t.Fatalf("non-2D logits: %v", err)
	}
}

// TestSoftmaxGradientProperty: the analytic softmax-xent gradient matches
// finite differences for random logits (property-based).
func TestSoftmaxGradientProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		n, c := 1+rng.Intn(4), 2+rng.Intn(5)
		logits := tensor.New(n, c)
		rng.FillNormal(logits, 0, 2)
		labels := make([]int, n)
		for i := range labels {
			labels[i] = rng.Intn(c)
		}
		var sce SoftmaxCrossEntropy
		res, err := sce.Eval(logits, labels)
		if err != nil {
			return false
		}
		const eps = 1e-6
		for k := 0; k < 5; k++ {
			i := rng.Intn(n * c)
			old := logits.Data()[i]
			logits.Data()[i] = old + eps
			rp, _ := sce.Eval(logits, labels)
			logits.Data()[i] = old - eps
			rm, _ := sce.Eval(logits, labels)
			logits.Data()[i] = old
			numeric := (rp.Loss - rm.Loss) / (2 * eps)
			if math.Abs(numeric-res.Grad.Data()[i]) > 1e-5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNetworkSummaryAndParamCount(t *testing.T) {
	rng := tensor.NewRNG(20)
	net := NewNetwork("lenet-ish", []int{1, 28, 28})
	conv1, err := NewConv2D(Conv2DConfig{Name: "conv1", InC: 1, InH: 28, InW: 28, OutC: 20, Kernel: 5, Stride: 1})
	if err != nil {
		t.Fatal(err)
	}
	pool1, err := NewPool2D(Pool2DConfig{Name: "pool1", Kind: MaxPool, InC: 20, InH: 24, InW: 24, Window: 2, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	fc, err := NewDense("fc", 20*12*12, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Add(conv1, pool1, NewFlatten("flat"), fc); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	wantParams := 20*1*5*5 + 20 + 10*20*12*12 + 10
	if got := net.ParamCount(); got != wantParams {
		t.Fatalf("ParamCount = %d, want %d", got, wantParams)
	}
	out, err := net.OutShape()
	if err != nil {
		t.Fatal(err)
	}
	if !shapeEq(out, []int{10}) {
		t.Fatalf("OutShape = %v, want [10]", out)
	}
	if s := net.Summary(); len(s) == 0 {
		t.Fatal("empty summary")
	}
	if net.FLOPsPerSample() <= 0 {
		t.Fatal("FLOPsPerSample must be positive")
	}
}

func TestNetworkAddRejectsIncompatibleLayer(t *testing.T) {
	net := NewNetwork("bad", []int{1, 28, 28})
	fc, err := NewDense("fc", 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Add(fc); err == nil {
		t.Fatal("Add accepted a dense layer on an image input")
	}
}

func TestNetworkPredict(t *testing.T) {
	rng := tensor.NewRNG(21)
	net := NewNetwork("tiny", []int{4})
	fc, err := NewDense("fc", 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Add(fc); err != nil {
		t.Fatal(err)
	}
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	x := tensor.New(5, 4)
	rng.FillNormal(x, 0, 1)
	preds, err := net.Predict(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(preds) != 5 {
		t.Fatalf("got %d predictions, want 5", len(preds))
	}
	for _, p := range preds {
		if p < 0 || p > 2 {
			t.Fatalf("prediction %d out of range", p)
		}
	}
}

func TestInitSchemes(t *testing.T) {
	for _, scheme := range []InitScheme{InitXavier, InitTruncatedNormal, InitGaussian} {
		t.Run(scheme.String(), func(t *testing.T) {
			rng := tensor.NewRNG(30)
			net := NewNetwork("n", []int{16})
			fc, err := NewDense("fc", 16, 16)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Add(fc); err != nil {
				t.Fatal(err)
			}
			if err := InitNetwork(net, InitConfig{Scheme: scheme, Sigma: 0.1, BiasConst: 0.25}, rng); err != nil {
				t.Fatal(err)
			}
			w := net.Params()[0]
			nonZero := 0
			for _, v := range w.Value.Data() {
				if v != 0 {
					nonZero++
				}
			}
			if nonZero == 0 {
				t.Fatal("weights all zero after init")
			}
			if scheme == InitTruncatedNormal {
				for _, v := range w.Value.Data() {
					if math.Abs(v) >= 0.2+1e-12 {
						t.Fatalf("truncated normal exceeded 2σ: %v", v)
					}
				}
			}
			bias := net.Params()[1]
			for _, v := range bias.Value.Data() {
				if v != 0.25 {
					t.Fatalf("bias = %v, want 0.25", v)
				}
			}
		})
	}
}

func TestInitRejectsNilRNG(t *testing.T) {
	net := NewNetwork("n", []int{4})
	if err := InitNetwork(net, InitConfig{Scheme: InitXavier}, nil); err == nil {
		t.Fatal("InitNetwork accepted nil RNG")
	}
}

func TestLRNForwardNormalizes(t *testing.T) {
	lrn, err := NewLRN(LRNConfig{Name: "lrn", Depth: 3, K: 2, Alpha: 1e-4, Beta: 0.75})
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.New(1, 4, 2, 2)
	x.Fill(1)
	out, err := lrn.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	// All activations positive and slightly shrunk.
	for _, v := range out.Data() {
		if v <= 0 || v >= 1 {
			t.Fatalf("LRN output %v outside (0,1)", v)
		}
	}
}

func TestFlattenRoundTrip(t *testing.T) {
	f := NewFlatten("flat")
	x := tensor.New(2, 3, 4, 5)
	out, err := f.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	if !shapeEq(out.Shape(), []int{2, 60}) {
		t.Fatalf("flatten shape = %v", out.Shape())
	}
	back, err := f.Backward(out)
	if err != nil {
		t.Fatal(err)
	}
	if !shapeEq(back.Shape(), []int{2, 3, 4, 5}) {
		t.Fatalf("backward shape = %v", back.Shape())
	}
}
