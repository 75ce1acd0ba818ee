// Package nn implements the neural-network substrate shared by all three
// framework simulacra: layers with explicit Forward/Backward passes,
// parameter containers, weight initialization and the softmax
// cross-entropy loss.
//
// Every layer follows the same contract: Forward consumes a batch-major
// input tensor and caches whatever it needs for the corresponding
// Backward, which consumes the gradient of the loss with respect to the
// layer output and returns the gradient with respect to the layer input,
// accumulating parameter gradients along the way; Backprop, told that
// nothing reads a layer's input gradient, accumulates the same parameter
// gradients and may skip computing it. Layers are stateful and not safe
// for concurrent use; each training run owns its own network.
package nn

import (
	"errors"
	"fmt"

	"repro/internal/tensor"
)

// ErrShape is returned (wrapped) when an input does not match the shape a
// layer was constructed for.
var ErrShape = errors.New("nn: shape mismatch")

// ErrNoForward is returned by Backward when no Forward has been run.
var ErrNoForward = errors.New("nn: backward before forward")

// Param is one learnable parameter tensor together with its gradient
// accumulator and metadata consumed by optimizers.
type Param struct {
	// Name identifies the parameter for debugging and reports, e.g.
	// "conv1.weight".
	Name string
	// Value is the parameter tensor, updated in place by optimizers.
	Value *tensor.Tensor
	// Grad accumulates ∂loss/∂Value across a mini-batch. Optimizers zero
	// it after each step.
	Grad *tensor.Tensor
	// Decay reports whether weight decay (L2 regularization) applies;
	// biases conventionally opt out.
	Decay bool
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.Grad.Zero() }

// Layer is one differentiable stage of a network.
type Layer interface {
	// Name returns a short identifier such as "conv1" or "relu2".
	Name() string
	// Forward computes the layer output for a batch-major input. When
	// train is false the layer runs in inference mode (e.g. dropout
	// becomes the identity).
	Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error)
	// Backward consumes ∂loss/∂output and returns ∂loss/∂input,
	// accumulating parameter gradients. Backprop wraps it for callers
	// that may not read ∂loss/∂input.
	Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error)
	// Params returns the layer's learnable parameters (possibly empty).
	Params() []*Param
	// OutShape returns the per-sample output shape for a per-sample input
	// shape (excluding the batch dimension).
	OutShape(in []int) ([]int, error)
	// FLOPsPerSample estimates the floating-point operations of one
	// forward pass for a single sample with the given per-sample input
	// shape; the cost model assumes backward ≈ 2× forward.
	FLOPsPerSample(in []int) int64
}

// Backprop runs l's gradient op for gradOut. With wantIn it is
// l.Backward. Without it, it accumulates the same parameter gradients,
// bit for bit, and returns a nil input gradient: callers pass false for
// the layers that read the network input, whose input gradient has no
// consumer, and Conv2D then skips its dX GEMM, col2im and gradient
// buffer while any other layer runs Backward and drops the result.
func Backprop(l Layer, gradOut *tensor.Tensor, wantIn bool) (*tensor.Tensor, error) {
	if c, ok := l.(*Conv2D); ok {
		return c.backward(gradOut, wantIn)
	}
	gradIn, err := l.Backward(gradOut)
	if !wantIn {
		gradIn = nil
	}
	return gradIn, err
}

// shapeEq reports whether two shape slices are identical.
func shapeEq(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// batchOf returns the leading (batch) dimension and the per-sample shape.
func batchOf(x *tensor.Tensor) (int, []int, error) {
	if x.Dims() < 1 {
		return 0, nil, fmt.Errorf("%w: input must have a batch dimension", ErrShape)
	}
	s := x.Shape()
	return s[0], s[1:], nil
}

func newParam(name string, shape []int, decay bool) *Param {
	return &Param{
		Name:  name,
		Value: tensor.New(shape...),
		Grad:  tensor.New(shape...),
		Decay: decay,
	}
}
