package adversarial

import (
	"errors"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/tensor"
)

// trainedMNISTNet trains a small conv net on a tiny synthetic MNIST split
// until it classifies reliably; shared across tests via sync-free helper
// with package-level memoization.
var (
	memoNet   *nn.Network
	memoTrain *data.Dataset
	memoTest  *data.Dataset
)

func trainedNet(t *testing.T) (*nn.Network, *data.Dataset) {
	t.Helper()
	if memoNet != nil {
		return memoNet, memoTest
	}
	train, test, err := data.SynthMNIST(data.SynthConfig{Train: 600, Test: 200, Seed: 5, Difficulty: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(17)
	net := nn.NewNetwork("attack-target", []int{1, 28, 28})
	conv, err := nn.NewConv2D(nn.Conv2DConfig{Name: "conv1", InC: 1, InH: 28, InW: 28, OutC: 6, Kernel: 5, Stride: 2})
	if err != nil {
		t.Fatal(err)
	}
	relu, err := nn.NewActivation("relu1", nn.ReLU)
	if err != nil {
		t.Fatal(err)
	}
	fc1, err := nn.NewDense("fc1", 6*12*12, 40)
	if err != nil {
		t.Fatal(err)
	}
	relu2, err := nn.NewActivation("relu2", nn.ReLU)
	if err != nil {
		t.Fatal(err)
	}
	fc2, err := nn.NewDense("fc2", 40, 10)
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Add(conv, relu, nn.NewFlatten("flat"), fc1, relu2, fc2); err != nil {
		t.Fatal(err)
	}
	if err := nn.InitNetwork(net, nn.InitConfig{Scheme: nn.InitXavier}, rng); err != nil {
		t.Fatal(err)
	}
	opt, err := optim.NewSGD(net.Params(), optim.SGDConfig{Schedule: optim.ConstantSchedule(0.05), Momentum: 0.9})
	if err != nil {
		t.Fatal(err)
	}
	batches, err := data.NewBatches(train, 32, rng)
	if err != nil {
		t.Fatal(err)
	}
	for batches.State().Epoch < 4 {
		x, labels, err := batches.Next()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.TrainStep(x, labels); err != nil {
			t.Fatal(err)
		}
		if err := opt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	memoNet, memoTrain, memoTest = net, train, test
	_ = memoTrain
	return net, test
}

func TestInputGradientMatchesFiniteDifference(t *testing.T) {
	net, test := trainedNet(t)
	x, y, err := test.Sample(0)
	if err != nil {
		t.Fatal(err)
	}
	grad, loss, err := InputGradient(net, x, y)
	if err != nil {
		t.Fatal(err)
	}
	if loss < 0 {
		t.Fatalf("loss = %v", loss)
	}
	const eps = 1e-5
	rng := tensor.NewRNG(3)
	lossAt := func() float64 {
		logits, err := net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		res, err := net.Loss(logits, []int{y})
		if err != nil {
			t.Fatal(err)
		}
		return res.Loss
	}
	for k := 0; k < 10; k++ {
		i := rng.Intn(x.Len())
		old := x.Data()[i]
		x.Data()[i] = old + eps
		lp := lossAt()
		x.Data()[i] = old - eps
		lm := lossAt()
		x.Data()[i] = old
		numeric := (lp - lm) / (2 * eps)
		if math.Abs(numeric-grad.Data()[i]) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("input grad[%d]: analytic %v numeric %v", i, grad.Data()[i], numeric)
		}
	}
}

func TestFGSMPerturbationBounded(t *testing.T) {
	net, test := trainedNet(t)
	x, y, err := test.Sample(1)
	if err != nil {
		t.Fatal(err)
	}
	const eps = 0.1
	adv, err := FGSM(net, x, y, eps)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x.Data() {
		d := math.Abs(adv.Data()[i] - x.Data()[i])
		// Clamping to [0,1] can shrink, never grow, the perturbation.
		if d > eps+1e-12 {
			t.Fatalf("pixel %d perturbed by %v > ε", i, d)
		}
		if adv.Data()[i] < 0 || adv.Data()[i] > 1 {
			t.Fatalf("pixel %d out of range: %v", i, adv.Data()[i])
		}
	}
}

func TestFGSMIncreasesLoss(t *testing.T) {
	net, test := trainedNet(t)
	// Averaged over samples, the FGSM step must not decrease the loss —
	// it ascends the loss gradient.
	worse, total := 0, 0
	for i := 0; i < 30; i++ {
		x, y, err := test.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		_, before, err := InputGradient(net, x, y)
		if err != nil {
			t.Fatal(err)
		}
		adv, err := FGSM(net, x, y, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		_, after, err := InputGradient(net, adv, y)
		if err != nil {
			t.Fatal(err)
		}
		total++
		if after > before {
			worse++
		}
	}
	if float64(worse)/float64(total) < 0.8 {
		t.Fatalf("FGSM increased loss on only %d/%d samples", worse, total)
	}
}

func TestFGSMRejectsBadEpsilon(t *testing.T) {
	net, test := trainedNet(t)
	x, y, err := test.Sample(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FGSM(net, x, y, 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("eps=0 err = %v", err)
	}
}

func TestRunFGSMSuccessGrowsWithEpsilon(t *testing.T) {
	net, test := trainedNet(t)
	small, err := RunFGSM(net, test, 10, 0.02, 3)
	if err != nil {
		t.Fatal(err)
	}
	large, err := RunFGSM(net, test, 10, 0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if large.MeanSuccess() < small.MeanSuccess() {
		t.Fatalf("success must grow with ε: %v -> %v", small.MeanSuccess(), large.MeanSuccess())
	}
	if large.MeanSuccess() < 0.5 {
		t.Fatalf("ε=0.5 success %v suspiciously low", large.MeanSuccess())
	}
	// Target distribution rows sum to 1 for classes with successes.
	for d := range large.TargetDist {
		sum := 0.0
		for _, v := range large.TargetDist[d] {
			sum += v
		}
		if sum != 0 && math.Abs(sum-1) > 1e-9 {
			t.Fatalf("class %d target distribution sums to %v", d, sum)
		}
		if large.TargetDist[d][d] != 0 {
			t.Fatalf("class %d 'landed' on itself", d)
		}
	}
}

func TestJacobianMatchesFiniteDifference(t *testing.T) {
	net, test := trainedNet(t)
	x, _, err := test.Sample(2)
	if err != nil {
		t.Fatal(err)
	}
	jac, err := Jacobian(net, x, 10)
	if err != nil {
		t.Fatal(err)
	}
	probAt := func(c int) float64 {
		logits, err := net.Forward(x, false)
		if err != nil {
			t.Fatal(err)
		}
		p, err := nn.Softmax(logits)
		if err != nil {
			t.Fatal(err)
		}
		return p.At(0, c)
	}
	const eps = 1e-5
	rng := tensor.NewRNG(4)
	for k := 0; k < 6; k++ {
		c := rng.Intn(10)
		i := rng.Intn(x.Len())
		old := x.Data()[i]
		x.Data()[i] = old + eps
		pp := probAt(c)
		x.Data()[i] = old - eps
		pm := probAt(c)
		x.Data()[i] = old
		numeric := (pp - pm) / (2 * eps)
		if math.Abs(numeric-jac.At(c, i)) > 1e-4*(1+math.Abs(numeric)) {
			t.Fatalf("jacobian[%d,%d]: analytic %v numeric %v", c, i, jac.At(c, i), numeric)
		}
	}
}

func TestSaliencyMapRules(t *testing.T) {
	// Hand-built Jacobian over 2 classes, 3 pixels; target class 0.
	// pixel 0: dF0>0, sum others <0 -> saliency dF0*|sum|
	// pixel 1: dF0<0 -> 0
	// pixel 2: sum others >0 -> 0
	jac := tensor.MustFrom([]float64{
		0.5, -0.2, 0.3, // class 0 gradients
		-0.4, 0.1, 0.2, // class 1 gradients
	}, 2, 3)
	s, err := SaliencyMap(jac, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s[0]-0.5*0.4) > 1e-12 {
		t.Fatalf("s[0] = %v, want 0.2", s[0])
	}
	if s[1] != 0 || s[2] != 0 {
		t.Fatalf("s[1,2] = %v,%v, want 0,0", s[1], s[2])
	}
	if _, err := SaliencyMap(jac, 5); !errors.Is(err, ErrConfig) {
		t.Fatal("bad target must error")
	}
}

func TestJSMACraftsTargetedExample(t *testing.T) {
	net, test := trainedNet(t)
	// Find a correctly classified sample and craft it toward another
	// class.
	for i := 0; i < test.Len(); i++ {
		x, y, err := test.Sample(i)
		if err != nil {
			t.Fatal(err)
		}
		preds, err := net.Predict(x)
		if err != nil {
			t.Fatal(err)
		}
		if preds[0] != y {
			continue
		}
		target := (y + 1) % 10
		out, err := JSMA(net, x, target, JSMAConfig{Theta: 0.4, MaxIters: 80, Classes: 10})
		if err != nil {
			t.Fatal(err)
		}
		if out.BackwardPasses == 0 {
			t.Fatal("no gradient work recorded")
		}
		if !out.Success {
			t.Skipf("JSMA failed on sample %d within budget (acceptable occasionally)", i)
		}
		advPred, err := net.Predict(out.Adversarial)
		if err != nil {
			t.Fatal(err)
		}
		if advPred[0] != target {
			t.Fatalf("success reported but prediction %d != target %d", advPred[0], target)
		}
		// Perturbation only ever increases pixels (positive theta) within
		// bounds.
		for j := range x.Data() {
			if out.Adversarial.Data()[j] < x.Data()[j]-1e-12 || out.Adversarial.Data()[j] > 1+1e-12 {
				t.Fatalf("pixel %d moved illegally", j)
			}
		}
		return
	}
	t.Fatal("no correctly classified sample found")
}

func TestRunJSMAMatrixShape(t *testing.T) {
	net, test := trainedNet(t)
	res, err := RunJSMA(net, test, 1, JSMAConfig{Theta: 0.5, MaxIters: 25, Classes: 10}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Source != 1 {
		t.Fatalf("source = %d", res.Source)
	}
	if res.Attempts[1] != 0 {
		t.Fatal("no attempts against the source class itself")
	}
	total := 0
	for tgt, a := range res.Attempts {
		if tgt != 1 && a != 1 {
			t.Fatalf("attempts[%d] = %d, want 1", tgt, a)
		}
		total += a
	}
	if total != 9 {
		t.Fatalf("total attempts = %d, want 9", total)
	}
	if res.MeanBackwardPasses <= 0 {
		t.Fatal("mean backward passes must be positive")
	}
	for tgt, s := range res.SuccessRate {
		if s < 0 || s > 1 {
			t.Fatalf("success rate[%d] = %v", tgt, s)
		}
	}
}

func TestRunJSMAConfigValidation(t *testing.T) {
	net, test := trainedNet(t)
	if _, err := RunJSMA(net, test, 0, JSMAConfig{}, 0); !errors.Is(err, ErrConfig) {
		t.Fatalf("perTarget=0 err = %v", err)
	}
	if _, err := JSMA(net, tensor.New(1, 1, 28, 28), 0, JSMAConfig{Theta: -1}); !errors.Is(err, ErrConfig) {
		t.Fatalf("negative theta err = %v", err)
	}
}
