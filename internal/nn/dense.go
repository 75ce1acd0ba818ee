package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Dense is a fully connected layer: y = x·Wᵀ + b with W of shape
// [Out, In]. Inputs are [N, In]; use Flatten before a Dense layer that
// follows convolutions.
type Dense struct {
	name    string
	in, out int
	weight  *Param // [Out, In]
	bias    *Param // [Out]

	// fusedAct, when set to ReLU (SetFusedActivation), is applied inside
	// the forward GEMM's bias epilogue.
	fusedAct ActKind

	lastInput *tensor.Tensor
	outBuf    *tensor.Tensor
	gradInBuf *tensor.Tensor
	dwBuf     *tensor.Tensor
}

var _ Layer = (*Dense)(nil)

// NewDense constructs a fully connected layer mapping in features to out
// features.
func NewDense(name string, in, out int) (*Dense, error) {
	if in <= 0 || out <= 0 {
		return nil, fmt.Errorf("dense %q: %w: %d -> %d", name, ErrShape, in, out)
	}
	return &Dense{
		name:   name,
		in:     in,
		out:    out,
		weight: newParam(name+".weight", []int{out, in}, true),
		bias:   newParam(name+".bias", []int{out}, false),
	}, nil
}

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.weight, d.bias} }

// InFeatures returns the input width.
func (d *Dense) InFeatures() int { return d.in }

// OutFeatures returns the output width.
func (d *Dense) OutFeatures() int { return d.out }

// OutShape implements Layer.
func (d *Dense) OutShape(in []int) ([]int, error) {
	if len(in) != 1 || in[0] != d.in {
		return nil, fmt.Errorf("dense %q: %w: input %v, want [%d]", d.name, ErrShape, in, d.in)
	}
	return []int{d.out}, nil
}

// FLOPsPerSample implements Layer.
func (d *Dense) FLOPsPerSample(in []int) int64 {
	return 2*int64(d.in)*int64(d.out) + int64(d.out)
}

// SetFusedActivation asks the layer to apply an activation inside its
// GEMM epilogue; only ReLU is fusable (see Conv2D.SetFusedActivation).
func (d *Dense) SetFusedActivation(k ActKind) bool {
	if k == ReLU {
		d.fusedAct = ReLU
		return true
	}
	d.fusedAct = 0
	return false
}

// FusedActivation returns the currently fused activation kind (0 = none).
func (d *Dense) FusedActivation() ActKind { return d.fusedAct }

// ReleaseBuffers drops cached state and persistent buffers.
func (d *Dense) ReleaseBuffers() {
	d.lastInput = nil
	d.outBuf = nil
	d.gradInBuf = nil
	d.dwBuf = nil
}

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, sample, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if _, err := d.OutShape(sample); err != nil {
		return nil, err
	}
	d.outBuf = reuseBufUninit(d.outBuf, n, d.out)
	out := d.outBuf
	x2 := x.MustReshape(n, d.in)
	b := d.bias.Value.Data()
	od := out.Data()
	fuseReLU := d.fusedAct == ReLU
	// out = x · Wᵀ, with bias (and fused ReLU) applied per completed row
	// block while it is cache-hot.
	tensor.GemmTransB(od, x2.Data(), d.weight.Value.Data(), n, d.in, d.out, false,
		func(lo, hi int) {
			for i := lo; i < hi; i++ {
				row := od[i*d.out : (i+1)*d.out]
				if fuseReLU {
					// Branch-free, as in Conv2D's epilogue.
					b := b[:len(row)]
					for j, v := range row {
						v += b[j]
						m := ^uint64(0)
						if v < 0 {
							m = 0
						}
						row[j] = math.Float64frombits(math.Float64bits(v) & m)
					}
				} else {
					for j := range row {
						row[j] += b[j]
					}
				}
			}
		})
	d.lastInput = x2
	return out, nil
}

// Backward implements Layer.
func (d *Dense) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if d.lastInput == nil {
		return nil, fmt.Errorf("dense %q: %w", d.name, ErrNoForward)
	}
	n := d.lastInput.Dim(0)
	if gradOut.Len() != n*d.out {
		return nil, fmt.Errorf("dense %q backward: %w: grad %v", d.name, ErrShape, gradOut.Shape())
	}
	g2 := gradOut.MustReshape(n, d.out)
	// dW += gᵀ · x  ([Out,N]·[N,In]); TransA with A = g2 (N×Out). The
	// scratch dW is a persistent buffer: GemmTransA overwrites it fully.
	d.dwBuf = reuseBufUninit(d.dwBuf, d.out, d.in)
	dw := d.dwBuf
	tensor.GemmTransA(dw.Data(), g2.Data(), d.lastInput.Data(), d.out, n, d.in)
	if err := tensor.Add(d.weight.Grad, dw); err != nil {
		return nil, err
	}
	// dB += column sums of g.
	db := d.bias.Grad.Data()
	for i := 0; i < n; i++ {
		row := g2.Data()[i*d.out : (i+1)*d.out]
		for j, v := range row {
			db[j] += v
		}
	}
	// dX = g · W  ([N,Out]·[Out,In]).
	d.gradInBuf = reuseBufUninit(d.gradInBuf, n, d.in)
	gradIn := d.gradInBuf
	tensor.Gemm(gradIn.Data(), g2.Data(), d.weight.Value.Data(), n, d.out, d.in, false)
	return gradIn, nil
}
