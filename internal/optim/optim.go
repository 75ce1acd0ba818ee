// Package optim implements the parameter-update rules the three framework
// simulacra default to: stochastic gradient descent with momentum, weight
// decay and per-phase learning-rate schedules (Caffe/Torch), and Adam
// (TensorFlow's MNIST default).
package optim

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// ErrConfig is returned (wrapped) for invalid optimizer configurations.
var ErrConfig = errors.New("optim: invalid configuration")

// Optimizer updates a fixed set of parameters from their accumulated
// gradients.
type Optimizer interface {
	// Step applies one update using the current gradients and clears
	// them. It advances any internal schedule by one iteration.
	Step() error
}

// Schedule maps an iteration index to a learning rate.
type Schedule interface {
	// At returns the learning rate for iteration it (0-based).
	At(it int) float64
}

// ConstantSchedule always returns its value.
type ConstantSchedule float64

// At implements Schedule.
func (c ConstantSchedule) At(int) float64 { return float64(c) }

// StepSchedule drops the learning rate by a multiplicative factor at fixed
// boundaries — Caffe's two-phase CIFAR-10 training (0.001 then 0.0001) is
// a StepSchedule with one boundary.
type StepSchedule struct {
	Base float64
	// Boundaries are iteration indices at which the rate is multiplied by
	// the corresponding Factors entry (must be the same length).
	Boundaries []int
	Factors    []float64
}

// At implements Schedule.
func (s StepSchedule) At(it int) float64 {
	lr := s.Base
	for i, b := range s.Boundaries {
		if it >= b {
			lr *= s.Factors[i]
		}
	}
	return lr
}

// InverseDecaySchedule implements Caffe's "inv" policy:
// lr = base · (1 + γ·it)^(-power). Caffe's MNIST solver uses γ=1e-4,
// power=0.75.
type InverseDecaySchedule struct {
	Base  float64
	Gamma float64
	Power float64
}

// At implements Schedule.
func (s InverseDecaySchedule) At(it int) float64 {
	return s.Base * math.Pow(1+s.Gamma*float64(it), -s.Power)
}

// SGDConfig configures NewSGD.
type SGDConfig struct {
	// Schedule provides the per-iteration learning rate. Required.
	Schedule Schedule
	// Momentum is the classical momentum coefficient (0 disables).
	Momentum float64
	// WeightDecay is the L2 coefficient applied to parameters with
	// Decay=true (Caffe-style regularization).
	WeightDecay float64
	// ClipNorm, when > 0, rescales the global gradient norm to at most
	// this value before the update.
	ClipNorm float64
}

// SGD is stochastic gradient descent with optional momentum and weight
// decay.
type SGD struct {
	cfg      SGDConfig
	params   []*nn.Param
	velocity []*tensor.Tensor
	it       int
}

var _ Optimizer = (*SGD)(nil)

// NewSGD constructs an SGD optimizer over params.
func NewSGD(params []*nn.Param, cfg SGDConfig) (*SGD, error) {
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("%w: SGD needs a schedule", ErrConfig)
	}
	if cfg.Momentum < 0 || cfg.Momentum >= 1 {
		return nil, fmt.Errorf("%w: momentum %v out of [0,1)", ErrConfig, cfg.Momentum)
	}
	if cfg.WeightDecay < 0 {
		return nil, fmt.Errorf("%w: negative weight decay", ErrConfig)
	}
	s := &SGD{cfg: cfg, params: params}
	if cfg.Momentum > 0 {
		s.velocity = make([]*tensor.Tensor, len(params))
		for i, p := range params {
			s.velocity[i] = tensor.New(p.Value.Shape()...)
		}
	}
	return s, nil
}

// Step implements Optimizer.
func (s *SGD) Step() error {
	lr := s.cfg.Schedule.At(s.it)
	s.it++
	clipScale := clipScale(s.params, s.cfg.ClipNorm)
	for i, p := range s.params {
		g := p.Grad
		if clipScale != 1 {
			tensor.Scale(g, clipScale)
		}
		if s.cfg.WeightDecay > 0 && p.Decay {
			if err := tensor.AXPY(s.cfg.WeightDecay, p.Value, g); err != nil {
				return fmt.Errorf("optim: sgd decay %s: %w", p.Name, err)
			}
		}
		if s.cfg.Momentum > 0 {
			v := s.velocity[i]
			// v = momentum·v + lr·g ; w -= v  (Caffe/Torch convention)
			tensor.Scale(v, s.cfg.Momentum)
			if err := tensor.AXPY(lr, g, v); err != nil {
				return fmt.Errorf("optim: sgd momentum %s: %w", p.Name, err)
			}
			if err := tensor.Sub(p.Value, v); err != nil {
				return fmt.Errorf("optim: sgd update %s: %w", p.Name, err)
			}
		} else {
			if err := tensor.AXPY(-lr, g, p.Value); err != nil {
				return fmt.Errorf("optim: sgd update %s: %w", p.Name, err)
			}
		}
		p.ZeroGrad()
	}
	return nil
}

// AdamConfig configures NewAdam. Zero values select the Kingma & Ba
// defaults (β1=0.9, β2=0.999, ε=1e-8).
type AdamConfig struct {
	Schedule Schedule
	Beta1    float64
	Beta2    float64
	Epsilon  float64
	// ClipNorm, when > 0, rescales the global gradient norm.
	ClipNorm float64
}

// Adam is the Adam optimizer [Kingma & Ba 2014], TensorFlow's default for
// the paper's MNIST configuration.
type Adam struct {
	cfg    AdamConfig
	params []*nn.Param
	m, v   []*tensor.Tensor
	it     int
}

var _ Optimizer = (*Adam)(nil)

// NewAdam constructs an Adam optimizer over params.
func NewAdam(params []*nn.Param, cfg AdamConfig) (*Adam, error) {
	if cfg.Schedule == nil {
		return nil, fmt.Errorf("%w: Adam needs a schedule", ErrConfig)
	}
	if cfg.Beta1 == 0 {
		cfg.Beta1 = 0.9
	}
	if cfg.Beta2 == 0 {
		cfg.Beta2 = 0.999
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-8
	}
	if cfg.Beta1 < 0 || cfg.Beta1 >= 1 || cfg.Beta2 < 0 || cfg.Beta2 >= 1 {
		return nil, fmt.Errorf("%w: betas (%v, %v) out of [0,1)", ErrConfig, cfg.Beta1, cfg.Beta2)
	}
	a := &Adam{cfg: cfg, params: params}
	a.m = make([]*tensor.Tensor, len(params))
	a.v = make([]*tensor.Tensor, len(params))
	for i, p := range params {
		a.m[i] = tensor.New(p.Value.Shape()...)
		a.v[i] = tensor.New(p.Value.Shape()...)
	}
	return a, nil
}

// Step implements Optimizer.
func (a *Adam) Step() error {
	lr := a.cfg.Schedule.At(a.it)
	a.it++
	t := float64(a.it)
	bc1 := 1 - math.Pow(a.cfg.Beta1, t)
	bc2 := 1 - math.Pow(a.cfg.Beta2, t)
	clip := clipScale(a.params, a.cfg.ClipNorm)
	for i, p := range a.params {
		g := p.Grad.Data()
		m := a.m[i].Data()
		v := a.v[i].Data()
		w := p.Value.Data()
		for j := range g {
			gj := g[j] * clip
			m[j] = a.cfg.Beta1*m[j] + (1-a.cfg.Beta1)*gj
			v[j] = a.cfg.Beta2*v[j] + (1-a.cfg.Beta2)*gj*gj
			mhat := m[j] / bc1
			vhat := v[j] / bc2
			w[j] -= lr * mhat / (math.Sqrt(vhat) + a.cfg.Epsilon)
		}
		p.ZeroGrad()
	}
	return nil
}

// clipScale returns the factor that rescales the concatenated gradient to
// norm at most clipNorm (1 when clipping is disabled or unnecessary).
func clipScale(params []*nn.Param, clipNorm float64) float64 {
	if clipNorm <= 0 {
		return 1
	}
	total := 0.0
	for _, p := range params {
		n := tensor.Norm2(p.Grad)
		total += n * n
	}
	norm := math.Sqrt(total)
	if norm <= clipNorm {
		return 1
	}
	return clipNorm / norm
}
