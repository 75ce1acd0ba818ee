package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Int8 quantized inference.
//
// Quantize freezes a trained float Network into a QuantizedNetwork: the
// GEMM-bearing layers (Dense, Conv2D) are replaced by int8 counterparts
// whose weights are quantized once, per-tensor symmetric, at freeze
// time; activations are quantized dynamically per call (one scale per
// activation tensor) so no calibration pass is needed. Every other
// layer — pooling, activations, LRN, flatten, dropout (identity at
// inference) — runs its float forward unchanged, and activations flow
// between stages as float64, which keeps the numerics auditable: the
// only approximation anywhere is the two quantization round-offs
// feeding each int8 GEMM.
//
// The result is inference-only: there is no backward pass, and weights
// are snapshots — later training of the source network does not follow.

// quantStage is one stage of the quantized forward pass.
type quantStage interface {
	Name() string
	Forward(x *tensor.Tensor) (*tensor.Tensor, error)
}

// QuantizedNetwork is the int8 inference-only counterpart of a trained
// Network. Not safe for concurrent use, like Network itself.
type QuantizedNetwork struct {
	name   string
	stages []quantStage
}

// Quantize freezes a trained network into its int8 inference form.
func Quantize(net *Network) (*QuantizedNetwork, error) {
	stages, err := quantizeLayers(net.Layers())
	if err != nil {
		return nil, fmt.Errorf("quantize %q: %w", net.Name(), err)
	}
	return &QuantizedNetwork{name: net.Name() + "-int8", stages: stages}, nil
}

func quantizeLayers(layers []Layer) ([]quantStage, error) {
	stages := make([]quantStage, 0, len(layers))
	for _, l := range layers {
		switch t := l.(type) {
		case *Dense:
			stages = append(stages, newQuantDense(t))
		case *Conv2D:
			stages = append(stages, newQuantConv2D(t))
		case *Residual:
			branch, err := quantizeLayers(t.Branch())
			if err != nil {
				return nil, err
			}
			stages = append(stages, &quantResidual{name: t.Name(), branch: branch})
		default:
			stages = append(stages, quantFloatStage{l})
		}
	}
	return stages, nil
}

// NumStages returns the number of top-level stages (the dispatch count
// the executor charges per inference batch).
func (q *QuantizedNetwork) NumStages() int { return len(q.stages) }

// ForwardWithHook runs the quantized inference pass and returns logits.
// A non-nil hook is called before each stage dispatch; a non-nil error
// from it aborts the pass.
// The executor layer uses it for fault injection and op accounting.
func (q *QuantizedNetwork) ForwardWithHook(x *tensor.Tensor, hook func(stage string) error) (*tensor.Tensor, error) {
	cur := x
	var err error
	for _, s := range q.stages {
		if hook != nil {
			if err = hook(s.Name()); err != nil {
				return nil, err
			}
		}
		if cur, err = s.Forward(cur); err != nil {
			return nil, fmt.Errorf("quantized %q: stage %q: %w", q.name, s.Name(), err)
		}
	}
	return cur, nil
}

// ReleaseBuffers drops persistent activation buffers in every stage.
func (q *QuantizedNetwork) ReleaseBuffers() {
	for _, s := range q.stages {
		if r, ok := s.(bufferReleaser); ok {
			r.ReleaseBuffers()
		}
	}
}

// quantFloatStage runs a float layer's inference forward unchanged.
type quantFloatStage struct{ l Layer }

func (s quantFloatStage) Name() string { return s.l.Name() }
func (s quantFloatStage) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	return s.l.Forward(x, false)
}
func (s quantFloatStage) ReleaseBuffers() {
	if r, ok := s.l.(bufferReleaser); ok {
		r.ReleaseBuffers()
	}
}

// quantResidual is the skip-connection block over quantized branch
// stages: y = x + F̃(x) with the add in float.
type quantResidual struct {
	name   string
	branch []quantStage
	outBuf *tensor.Tensor
}

func (s *quantResidual) Name() string { return s.name }

func (s *quantResidual) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	cur := x
	var err error
	for _, b := range s.branch {
		if cur, err = b.Forward(cur); err != nil {
			return nil, fmt.Errorf("residual %q: stage %q: %w", s.name, b.Name(), err)
		}
	}
	if cur.Len() != x.Len() {
		return nil, fmt.Errorf("residual %q: %w: skip %v vs branch %v", s.name, ErrShape, x.Shape(), cur.Shape())
	}
	s.outBuf = reuseBufLike(s.outBuf, x)
	od, xd, fd := s.outBuf.Data(), x.Data(), cur.Data()
	for i := range od {
		od[i] = xd[i] + fd[i]
	}
	return s.outBuf, nil
}

func (s *quantResidual) ReleaseBuffers() {
	s.outBuf = nil
	for _, b := range s.branch {
		if r, ok := b.(bufferReleaser); ok {
			r.ReleaseBuffers()
		}
	}
}

// QuantDense is the int8 Dense forward: y = dequant(qx·qWᵀ) + b.
type QuantDense struct {
	name    string
	in, out int
	wq      []int8
	wp      tensor.QuantParams
	bias    []float64

	xq     []int8
	acc    []int32
	outBuf *tensor.Tensor
}

func newQuantDense(d *Dense) *QuantDense {
	w := d.weight.Value.Data()
	p := tensor.ChooseQuantParams(w)
	wq := make([]int8, len(w))
	tensor.QuantizeInt8(wq, w, p)
	bias := append([]float64(nil), d.bias.Value.Data()...)
	return &QuantDense{name: d.Name(), in: d.in, out: d.out, wq: wq, wp: p, bias: bias}
}

func (d *QuantDense) Name() string { return d.name }

func (d *QuantDense) ReleaseBuffers() {
	d.xq = nil
	d.acc = nil
	d.outBuf = nil
}

func (d *QuantDense) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	n, sample, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if len(sample) != 1 || sample[0] != d.in {
		return nil, fmt.Errorf("quant dense %q: %w: input %v, want [%d]", d.name, ErrShape, sample, d.in)
	}
	xd := x.Data()
	// Dynamic per-tensor activation quantization: one scale for the batch.
	px := tensor.ChooseQuantParams(xd)
	if cap(d.xq) < len(xd) {
		d.xq = make([]int8, len(xd))
	}
	d.xq = d.xq[:len(xd)]
	tensor.QuantizeInt8(d.xq, xd, px)
	if cap(d.acc) < n*d.out {
		d.acc = make([]int32, n*d.out)
	}
	d.acc = d.acc[:n*d.out]
	tensor.GemmInt8TransB(d.acc, d.xq, d.wq, n, d.in, d.out)
	s := px.Scale * d.wp.Scale
	d.outBuf = reuseBufUninit(d.outBuf, n, d.out)
	od := d.outBuf.Data()
	for i := 0; i < n; i++ {
		row := od[i*d.out : (i+1)*d.out]
		arow := d.acc[i*d.out : (i+1)*d.out]
		for j := range row {
			row[j] = s*float64(arow[j]) + d.bias[j]
		}
	}
	return d.outBuf, nil
}

// QuantConv2D is the int8 convolution forward: per sample, the
// quantized image lowers through Im2RowInt8 and one int8 GEMM against
// the frozen weights, then dequantizes with bias while the tile is hot.
type QuantConv2D struct {
	name string
	geom tensor.ConvGeom
	wq   []int8 // [OutC, C·KH·KW]
	wp   tensor.QuantParams
	bias []float64

	xq     []int8
	outBuf *tensor.Tensor
	// rows and acc are the lowering and accumulator scratch, kept across
	// calls for the batches one worker runs whole (batch 1 in serving).
	rows []int8
	acc  []int32
}

func newQuantConv2D(c *Conv2D) *QuantConv2D {
	// Conn-table masks are already burned into the weights (ApplyMask
	// runs every float forward) and 0 quantizes to 0, so the mask needs
	// no separate int8 representation.
	c.ApplyMask()
	w := c.weight.Value.Data()
	p := tensor.ChooseQuantParams(w)
	wq := make([]int8, len(w))
	tensor.QuantizeInt8(wq, w, p)
	bias := append([]float64(nil), c.bias.Value.Data()...)
	return &QuantConv2D{name: c.Name(), geom: c.geom, wq: wq, wp: p, bias: bias}
}

func (c *QuantConv2D) Name() string { return c.name }

func (c *QuantConv2D) ReleaseBuffers() {
	c.xq = nil
	c.outBuf = nil
	c.rows = nil
	c.acc = nil
}

func (c *QuantConv2D) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	n, sample, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	g := c.geom
	want := []int{g.InC, g.InH, g.InW}
	if !shapeEq(sample, want) {
		return nil, fmt.Errorf("quant conv2d %q: %w: input %v, want %v", c.name, ErrShape, sample, want)
	}
	outH, outW := g.OutH(), g.OutW()
	kVol := g.InC * g.KH * g.KW
	imgLen := g.InC * g.InH * g.InW
	planeOut := outH * outW
	outLen := g.OutC * planeOut

	xd := x.Data()
	px := tensor.ChooseQuantParams(xd)
	if cap(c.xq) < len(xd) {
		c.xq = make([]int8, len(xd))
	}
	c.xq = c.xq[:len(xd)]
	tensor.QuantizeInt8(c.xq, xd, px)

	c.outBuf = reuseBufUninit(c.outBuf, n, g.OutC, outH, outW)
	od := c.outBuf.Data()
	s := px.Scale * c.wp.Scale
	bias := c.bias
	wq := c.wq
	xq := c.xq
	if len(c.rows) != planeOut*kVol {
		c.rows = make([]int8, planeOut*kVol)
		c.acc = make([]int32, g.OutC*planeOut)
	}
	tensor.ParallelFor(n, func(lo, hi int) {
		rows, acc := c.rows, c.acc
		if hi-lo < n { // one of several concurrent chunks
			rows = make([]int8, planeOut*kVol)
			acc = make([]int32, g.OutC*planeOut)
		}
		for i := lo; i < hi; i++ {
			tensor.Im2RowInt8(rows, xq[i*imgLen:(i+1)*imgLen], g)
			tensor.GemmInt8TransB(acc, wq, rows, g.OutC, kVol, planeOut)
			dst := od[i*outLen : (i+1)*outLen]
			for oc := 0; oc < g.OutC; oc++ {
				b := bias[oc]
				arow := acc[oc*planeOut : (oc+1)*planeOut]
				drow := dst[oc*planeOut : (oc+1)*planeOut]
				for j := range drow {
					drow[j] = s*float64(arow[j]) + b
				}
			}
		}
	})
	return c.outBuf, nil
}
