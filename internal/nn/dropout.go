package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Dropout implements inverted dropout: during training each element is
// zeroed with probability p and survivors are scaled by 1/(1-p); during
// inference it is the identity. TensorFlow's MNIST default uses dropout as
// its regularizer — the paper's Table IX contrasts it with Caffe's weight
// decay.
type Dropout struct {
	name string
	p    float64
	rng  *tensor.RNG

	lastMask *tensor.Tensor
	training bool

	maskBuf   *tensor.Tensor
	outBuf    *tensor.Tensor
	gradInBuf *tensor.Tensor
}

var _ Layer = (*Dropout)(nil)

// NewDropout constructs a dropout layer with drop probability p drawing
// its masks from rng.
func NewDropout(name string, p float64, rng *tensor.RNG) (*Dropout, error) {
	if p < 0 || p >= 1 {
		return nil, fmt.Errorf("dropout %q: probability %v out of [0,1)", name, p)
	}
	if rng == nil {
		return nil, fmt.Errorf("dropout %q: nil RNG", name)
	}
	return &Dropout{name: name, p: p, rng: rng}, nil
}

// Name implements Layer.
func (d *Dropout) Name() string { return d.name }

// RNG exposes the layer's mask generator so training checkpoints can
// capture and restore its state: resuming a run must draw the same mask
// sequence an uninterrupted run would have drawn.
func (d *Dropout) RNG() *tensor.RNG { return d.rng }

// Params implements Layer.
func (d *Dropout) Params() []*Param { return nil }

// OutShape implements Layer.
func (d *Dropout) OutShape(in []int) ([]int, error) {
	return append([]int(nil), in...), nil
}

// FLOPsPerSample implements Layer.
func (d *Dropout) FLOPsPerSample(in []int) int64 {
	return int64(tensor.Volume(in))
}

// Forward implements Layer.
func (d *Dropout) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	d.training = train
	if !train || d.p == 0 {
		d.lastMask = nil
		return x, nil
	}
	keep := 1 - d.p
	scale := 1 / keep
	d.maskBuf = reuseBufLike(d.maskBuf, x)
	d.outBuf = reuseBufLike(d.outBuf, x)
	mask, out := d.maskBuf, d.outBuf
	m := mask.Data()
	o := out.Data()
	for i, v := range x.Data() {
		if d.rng.Float64() < keep {
			m[i] = scale
			o[i] = v * scale
		} else {
			m[i] = 0
			o[i] = 0
		}
	}
	d.lastMask = mask
	return out, nil
}

// Backward implements Layer.
func (d *Dropout) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if !d.training || d.lastMask == nil {
		return gradOut, nil
	}
	if gradOut.Len() != d.lastMask.Len() {
		return nil, fmt.Errorf("dropout %q backward: %w", d.name, ErrShape)
	}
	d.gradInBuf = reuseBufLike(d.gradInBuf, gradOut)
	gradIn := d.gradInBuf
	m := d.lastMask.Data()
	g := gradIn.Data()
	for i, v := range gradOut.Data() {
		g[i] = v * m[i]
	}
	return gradIn, nil
}

// ReleaseBuffers drops cached state and persistent buffers.
func (d *Dropout) ReleaseBuffers() {
	d.lastMask = nil
	d.maskBuf = nil
	d.outBuf = nil
	d.gradInBuf = nil
}
