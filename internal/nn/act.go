package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Activation is an elementwise nonlinearity layer. It works on inputs of
// any shape and preserves them.
type Activation struct {
	name string
	kind ActKind

	lastOutput *tensor.Tensor // cached for backward (all kinds are
	// expressible through their output)
	lastInput *tensor.Tensor

	// Persistent buffers reused across iterations.
	outBuf    *tensor.Tensor
	gradInBuf *tensor.Tensor
}

var _ Layer = (*Activation)(nil)

// ActKind selects the nonlinearity.
type ActKind int

// Supported activation functions. ReLU is the TensorFlow/Caffe default in
// the paper's architectures; Tanh is Torch's.
const (
	ReLU ActKind = iota + 1
	Tanh
	Sigmoid
)

// String implements fmt.Stringer.
func (k ActKind) String() string {
	switch k {
	case ReLU:
		return "relu"
	case Tanh:
		return "tanh"
	case Sigmoid:
		return "sigmoid"
	default:
		return fmt.Sprintf("ActKind(%d)", int(k))
	}
}

// NewActivation constructs an activation layer of the given kind.
func NewActivation(name string, kind ActKind) (*Activation, error) {
	switch kind {
	case ReLU, Tanh, Sigmoid:
		return &Activation{name: name, kind: kind}, nil
	default:
		return nil, fmt.Errorf("activation %q: unknown kind %d", name, kind)
	}
}

// Name implements Layer.
func (a *Activation) Name() string { return a.name }

// Kind returns the nonlinearity kind.
func (a *Activation) Kind() ActKind { return a.kind }

// Params implements Layer.
func (a *Activation) Params() []*Param { return nil }

// OutShape implements Layer.
func (a *Activation) OutShape(in []int) ([]int, error) {
	return append([]int(nil), in...), nil
}

// FLOPsPerSample implements Layer. Transcendental activations are charged
// a higher per-element cost than ReLU's single comparison.
func (a *Activation) FLOPsPerSample(in []int) int64 {
	n := int64(tensor.Volume(in))
	switch a.kind {
	case ReLU:
		return n
	default:
		return 8 * n
	}
}

// Forward implements Layer.
func (a *Activation) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	a.outBuf = reuseBufLike(a.outBuf, x)
	out := a.outBuf
	o, xd := out.Data(), x.Data()
	switch a.kind {
	case ReLU:
		// The comparison picks an all-ones or a zero mask for the bits,
		// which compiles to a conditional move rather than a jump, so
		// random signs cost no mispredictions. NaN, ±0 and negatives
		// map to +0.
		o = o[:len(xd)]
		for i, v := range xd {
			m := uint64(0)
			if v > 0 {
				m = ^uint64(0)
			}
			o[i] = math.Float64frombits(math.Float64bits(v) & m)
		}
	case Tanh:
		for i, v := range xd {
			o[i] = math.Tanh(v)
		}
	case Sigmoid:
		for i, v := range xd {
			o[i] = 1 / (1 + math.Exp(-v))
		}
	}
	a.lastInput = x
	a.lastOutput = out
	return out, nil
}

// AdoptFused records that a producer layer (conv/dense) already applied
// this activation inside its GEMM epilogue and produced out. The layer
// caches out as both its input and output so Backward works unchanged
// without Forward having run. This is exact for ReLU: the backward mask
// tests x ≤ 0, and relu(x) ≤ 0 ⟺ x ≤ 0, so masking on the fused output
// yields bit-identical gradients.
func (a *Activation) AdoptFused(out *tensor.Tensor) {
	a.lastInput = out
	a.lastOutput = out
}

// Backward implements Layer.
func (a *Activation) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if a.lastOutput == nil {
		return nil, fmt.Errorf("activation %q: %w", a.name, ErrNoForward)
	}
	if gradOut.Len() != a.lastOutput.Len() {
		return nil, fmt.Errorf("activation %q backward: %w", a.name, ErrShape)
	}
	a.gradInBuf = reuseBufLike(a.gradInBuf, gradOut)
	gradIn := a.gradInBuf
	y := a.lastOutput.Data()
	g, gout := gradIn.Data(), gradOut.Data()
	switch a.kind {
	case ReLU:
		// Branch-free like Forward: x ≤ 0 (±0 included, NaN not)
		// clears the mask.
		x := a.lastInput.Data()[:len(gout)]
		g = g[:len(gout)]
		for i, v := range gout {
			m := ^uint64(0)
			if x[i] <= 0 {
				m = 0
			}
			g[i] = math.Float64frombits(math.Float64bits(v) & m)
		}
	case Tanh:
		for i, v := range gout {
			g[i] = v * (1 - y[i]*y[i])
		}
	case Sigmoid:
		for i, v := range gout {
			g[i] = v * y[i] * (1 - y[i])
		}
	}
	return gradIn, nil
}

// ReleaseBuffers drops cached state and persistent buffers.
func (a *Activation) ReleaseBuffers() {
	a.lastInput = nil
	a.lastOutput = nil
	a.outBuf = nil
	a.gradInBuf = nil
}

// Flatten reshapes [N, ...] inputs to [N, D]. It is a pure view layer with
// no parameters and no cost.
type Flatten struct {
	name      string
	lastShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten constructs a flatten layer.
func NewFlatten(name string) *Flatten { return &Flatten{name: name} }

// Name implements Layer.
func (f *Flatten) Name() string { return f.name }

// Params implements Layer.
func (f *Flatten) Params() []*Param { return nil }

// OutShape implements Layer.
func (f *Flatten) OutShape(in []int) ([]int, error) {
	return []int{tensor.Volume(in)}, nil
}

// FLOPsPerSample implements Layer.
func (f *Flatten) FLOPsPerSample([]int) int64 { return 0 }

// Forward implements Layer.
func (f *Flatten) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, sample, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	f.lastShape = x.Shape()
	return x.Reshape(n, tensor.Volume(sample))
}

// Backward implements Layer.
func (f *Flatten) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if f.lastShape == nil {
		return nil, fmt.Errorf("flatten %q: %w", f.name, ErrNoForward)
	}
	return gradOut.Reshape(f.lastShape...)
}
