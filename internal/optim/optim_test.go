package optim

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// quadParam builds a single parameter for minimizing f(w) = ½‖w - target‖².
func quadParam(dim int, rng *tensor.RNG) (*nn.Param, *tensor.Tensor) {
	p := &nn.Param{
		Name:  "w",
		Value: tensor.New(dim),
		Grad:  tensor.New(dim),
		Decay: true,
	}
	rng.FillNormal(p.Value, 0, 1)
	target := tensor.New(dim)
	rng.FillNormal(target, 0, 1)
	return p, target
}

// quadGrad writes ∂f/∂w = w - target into the parameter gradient.
func quadGrad(p *nn.Param, target *tensor.Tensor) {
	copy(p.Grad.Data(), p.Value.Data())
	for i, v := range target.Data() {
		p.Grad.Data()[i] -= v
	}
}

func quadLoss(p *nn.Param, target *tensor.Tensor) float64 {
	s := 0.0
	for i, v := range p.Value.Data() {
		d := v - target.Data()[i]
		s += 0.5 * d * d
	}
	return s
}

func TestSGDConvergesOnQuadratic(t *testing.T) {
	rng := tensor.NewRNG(1)
	p, target := quadParam(8, rng)
	opt, err := NewSGD([]*nn.Param{p}, SGDConfig{Schedule: ConstantSchedule(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		quadGrad(p, target)
		if err := opt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if l := quadLoss(p, target); l > 1e-8 {
		t.Fatalf("SGD final loss %v, want ≈0", l)
	}
	if opt.it != 200 {
		t.Fatalf("iteration = %d, want 200", opt.it)
	}
}

func TestSGDMomentumConvergesFasterThanPlain(t *testing.T) {
	run := func(momentum float64) float64 {
		rng := tensor.NewRNG(7)
		p, target := quadParam(16, rng)
		opt, err := NewSGD([]*nn.Param{p}, SGDConfig{Schedule: ConstantSchedule(0.02), Momentum: momentum})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 60; i++ {
			quadGrad(p, target)
			if err := opt.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return quadLoss(p, target)
	}
	plain := run(0)
	mom := run(0.9)
	if mom >= plain {
		t.Fatalf("momentum loss %v not better than plain %v", mom, plain)
	}
}

func TestAdamConvergesOnQuadratic(t *testing.T) {
	rng := tensor.NewRNG(2)
	p, target := quadParam(8, rng)
	opt, err := NewAdam([]*nn.Param{p}, AdamConfig{Schedule: ConstantSchedule(0.05)})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		quadGrad(p, target)
		if err := opt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if l := quadLoss(p, target); l > 1e-6 {
		t.Fatalf("Adam final loss %v, want ≈0", l)
	}
}

func TestWeightDecayShrinksWeights(t *testing.T) {
	p := &nn.Param{Name: "w", Value: tensor.New(4), Grad: tensor.New(4), Decay: true}
	p.Value.Fill(1)
	opt, err := NewSGD([]*nn.Param{p}, SGDConfig{Schedule: ConstantSchedule(0.1), WeightDecay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	// Zero task gradient: only decay acts. w' = w - lr*decay*w = 0.95.
	if err := opt.Step(); err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Value.Data() {
		if math.Abs(v-0.95) > 1e-12 {
			t.Fatalf("decayed weight = %v, want 0.95", v)
		}
	}
}

func TestWeightDecaySkipsBias(t *testing.T) {
	b := &nn.Param{Name: "b", Value: tensor.New(2), Grad: tensor.New(2), Decay: false}
	b.Value.Fill(1)
	opt, err := NewSGD([]*nn.Param{b}, SGDConfig{Schedule: ConstantSchedule(0.1), WeightDecay: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Step(); err != nil {
		t.Fatal(err)
	}
	for _, v := range b.Value.Data() {
		if v != 1 {
			t.Fatalf("bias changed to %v under weight decay", v)
		}
	}
}

func TestGradientsZeroedAfterStep(t *testing.T) {
	p := &nn.Param{Name: "w", Value: tensor.New(3), Grad: tensor.New(3), Decay: true}
	p.Grad.Fill(1)
	opt, err := NewSGD([]*nn.Param{p}, SGDConfig{Schedule: ConstantSchedule(0.1)})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Step(); err != nil {
		t.Fatal(err)
	}
	for _, v := range p.Grad.Data() {
		if v != 0 {
			t.Fatal("gradient not cleared after Step")
		}
	}
}

func TestClipNormLimitsUpdate(t *testing.T) {
	p := &nn.Param{Name: "w", Value: tensor.New(1), Grad: tensor.New(1), Decay: true}
	p.Grad.Data()[0] = 1000
	opt, err := NewSGD([]*nn.Param{p}, SGDConfig{Schedule: ConstantSchedule(1), ClipNorm: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := opt.Step(); err != nil {
		t.Fatal(err)
	}
	if got := p.Value.Data()[0]; math.Abs(got+1) > 1e-12 {
		t.Fatalf("clipped update moved weight to %v, want -1", got)
	}
}

func TestSchedules(t *testing.T) {
	t.Run("constant", func(t *testing.T) {
		s := ConstantSchedule(0.01)
		if s.At(0) != 0.01 || s.At(1e6) != 0.01 {
			t.Fatal("constant schedule varies")
		}
	})
	t.Run("step two-phase caffe cifar", func(t *testing.T) {
		// Paper Table III: 0.001 for phase 1 (8 epochs=4000 iters at
		// batch 100), then 0.0001.
		s := StepSchedule{Base: 0.001, Boundaries: []int{4000}, Factors: []float64{0.1}}
		if got := s.At(0); got != 0.001 {
			t.Fatalf("At(0) = %v", got)
		}
		if got := s.At(3999); got != 0.001 {
			t.Fatalf("At(3999) = %v", got)
		}
		if got := s.At(4000); math.Abs(got-0.0001) > 1e-15 {
			t.Fatalf("At(4000) = %v", got)
		}
	})
	t.Run("inverse decay monotone", func(t *testing.T) {
		s := InverseDecaySchedule{Base: 0.01, Gamma: 1e-4, Power: 0.75}
		prev := math.Inf(1)
		for it := 0; it < 10000; it += 500 {
			lr := s.At(it)
			if lr >= prev {
				t.Fatalf("inverse decay not strictly decreasing at %d", it)
			}
			prev = lr
		}
	})
}

func TestConfigValidation(t *testing.T) {
	p := &nn.Param{Name: "w", Value: tensor.New(1), Grad: tensor.New(1)}
	tests := []struct {
		name string
		make func() error
	}{
		{"sgd nil schedule", func() error { _, err := NewSGD([]*nn.Param{p}, SGDConfig{}); return err }},
		{"sgd bad momentum", func() error {
			_, err := NewSGD([]*nn.Param{p}, SGDConfig{Schedule: ConstantSchedule(0.1), Momentum: 1.5})
			return err
		}},
		{"sgd negative decay", func() error {
			_, err := NewSGD([]*nn.Param{p}, SGDConfig{Schedule: ConstantSchedule(0.1), WeightDecay: -1})
			return err
		}},
		{"adam nil schedule", func() error { _, err := NewAdam([]*nn.Param{p}, AdamConfig{}); return err }},
		{"adam bad beta", func() error {
			_, err := NewAdam([]*nn.Param{p}, AdamConfig{Schedule: ConstantSchedule(0.1), Beta1: 1.2})
			return err
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.make(); !errors.Is(err, ErrConfig) {
				t.Fatalf("err = %v, want ErrConfig", err)
			}
		})
	}
}

// TestAdamBoundedSteps: property — each Adam update moves a weight by at
// most lr/(1-ε) per coordinate (the well-known Adam step-size bound,
// approximately lr for bounded gradients).
func TestAdamBoundedSteps(t *testing.T) {
	f := func(seed uint64) bool {
		rng := tensor.NewRNG(seed)
		p := &nn.Param{Name: "w", Value: tensor.New(4), Grad: tensor.New(4), Decay: true}
		rng.FillNormal(p.Value, 0, 1)
		const lr = 0.01
		opt, err := NewAdam([]*nn.Param{p}, AdamConfig{Schedule: ConstantSchedule(lr)})
		if err != nil {
			return false
		}
		for it := 0; it < 20; it++ {
			before := p.Value.Clone()
			rng.FillNormal(p.Grad, 0, 10)
			if err := opt.Step(); err != nil {
				return false
			}
			for i := range p.Value.Data() {
				if math.Abs(p.Value.Data()[i]-before.Data()[i]) > 3*lr {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHighLearningRateDivergesOnQuadratic(t *testing.T) {
	// With lr > 2 the quadratic's gradient iteration diverges — this is
	// the mechanism behind the paper's Figure 5 (Caffe MNIST settings on
	// CIFAR-10 do not converge).
	rng := tensor.NewRNG(3)
	p, target := quadParam(4, rng)
	opt, err := NewSGD([]*nn.Param{p}, SGDConfig{Schedule: ConstantSchedule(2.5)})
	if err != nil {
		t.Fatal(err)
	}
	start := quadLoss(p, target)
	for i := 0; i < 50; i++ {
		quadGrad(p, target)
		if err := opt.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if end := quadLoss(p, target); end < start*10 {
		t.Fatalf("expected divergence: start %v end %v", start, end)
	}
}
