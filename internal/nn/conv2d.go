package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Conv2D is a 2-D convolution layer lowered to GEMM through im2col.
//
// Inputs are batch-major [N, C, H, W]; outputs are [N, OutC, OutH, OutW].
// An optional connection table restricts which (output, input) channel
// pairs are connected, mirroring Torch's SpatialConvolutionMap used on CPU
// for CIFAR-10 (the paper's Section III.B observation).
type Conv2D struct {
	name   string
	geom   tensor.ConvGeom
	weight *Param // [OutC, InC*KH*KW]
	bias   *Param // [OutC]
	// mask is nil for fully connected channels; otherwise it has weight's
	// shape with 1 where a connection exists and 0 elsewhere.
	mask *tensor.Tensor

	// fusedAct, when set to ReLU by an executor (SetFusedActivation),
	// makes Forward apply the activation inside the GEMM bias epilogue
	// while the output tile is cache-hot.
	fusedAct ActKind

	// Cached forward state for Backward, plus persistent output and
	// gradient buffers reused across iterations.
	lastInput *tensor.Tensor
	outBuf    *tensor.Tensor
	gradInBuf *tensor.Tensor
}

var _ Layer = (*Conv2D)(nil)

// Conv2DConfig configures NewConv2D.
type Conv2DConfig struct {
	Name     string
	InC      int
	InH, InW int
	OutC     int
	Kernel   int // square kernel size
	Stride   int
	Pad      int
	// ConnTable, if non-nil, is OutC rows of InC booleans selecting which
	// input channels feed each output channel (SpatialConvolutionMap
	// semantics). Nil means full connectivity.
	ConnTable [][]bool
}

// NewConv2D constructs a convolution layer. Weights start at zero; call an
// initializer from init.go before training.
func NewConv2D(cfg Conv2DConfig) (*Conv2D, error) {
	g := tensor.ConvGeom{
		InC: cfg.InC, InH: cfg.InH, InW: cfg.InW,
		KH: cfg.Kernel, KW: cfg.Kernel,
		StrideH: cfg.Stride, StrideW: cfg.Stride,
		PadH: cfg.Pad, PadW: cfg.Pad,
		OutC: cfg.OutC,
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("conv2d %q: %w", cfg.Name, err)
	}
	kVol := g.InC * g.KH * g.KW
	c := &Conv2D{
		name:   cfg.Name,
		geom:   g,
		weight: newParam(cfg.Name+".weight", []int{g.OutC, kVol}, true),
		bias:   newParam(cfg.Name+".bias", []int{g.OutC}, false),
	}
	if cfg.ConnTable != nil {
		if len(cfg.ConnTable) != g.OutC {
			return nil, fmt.Errorf("conv2d %q: %w: connection table has %d rows, want %d", cfg.Name, ErrShape, len(cfg.ConnTable), g.OutC)
		}
		mask := tensor.New(g.OutC, kVol)
		per := g.KH * g.KW
		for oc, row := range cfg.ConnTable {
			if len(row) != g.InC {
				return nil, fmt.Errorf("conv2d %q: %w: connection row %d has %d cols, want %d", cfg.Name, ErrShape, oc, len(row), g.InC)
			}
			for ic, on := range row {
				if !on {
					continue
				}
				base := oc*kVol + ic*per
				for k := 0; k < per; k++ {
					mask.Data()[base+k] = 1
				}
			}
		}
		c.mask = mask
	}
	return c, nil
}

// Name implements Layer.
func (c *Conv2D) Name() string { return c.name }

// Params implements Layer.
func (c *Conv2D) Params() []*Param { return []*Param{c.weight, c.bias} }

// Geom returns the convolution geometry (used by the cost model and
// reports).
func (c *Conv2D) Geom() tensor.ConvGeom { return c.geom }

// ApplyMask re-zeroes masked weights. Optimizers that update weights in
// place call this indirectly via MaskedParams; the layer also applies the
// mask lazily at Forward so plain optimizers stay correct.
func (c *Conv2D) ApplyMask() {
	if c.mask == nil {
		return
	}
	w, m := c.weight.Value.Data(), c.mask.Data()
	for i := range w {
		w[i] *= m[i]
	}
}

// SetFusedActivation asks the layer to apply an activation inside its
// GEMM epilogue. Only ReLU can be fused (it is idempotent and its
// backward mask is unchanged by the fusion, so numerics stay
// bit-identical whether or not a following Activation layer also runs).
// It reports whether the layer accepted the fusion; any other kind
// clears it.
func (c *Conv2D) SetFusedActivation(k ActKind) bool {
	if k == ReLU {
		c.fusedAct = ReLU
		return true
	}
	c.fusedAct = 0
	return false
}

// FusedActivation returns the currently fused activation kind (0 = none).
func (c *Conv2D) FusedActivation() ActKind { return c.fusedAct }

// ReleaseBuffers drops the cached forward state (input reference, output
// and gradient buffers). Call it when a trained network goes dormant in a
// cache; the next Forward reallocates. Buffers are dropped for the GC
// rather than recycled, because callers may still hold the tensors the
// last Forward/Backward returned.
func (c *Conv2D) ReleaseBuffers() {
	c.lastInput = nil
	c.outBuf = nil
	c.gradInBuf = nil
}

// OutShape implements Layer.
func (c *Conv2D) OutShape(in []int) ([]int, error) {
	want := []int{c.geom.InC, c.geom.InH, c.geom.InW}
	if !shapeEq(in, want) {
		return nil, fmt.Errorf("conv2d %q: %w: input %v, want %v", c.name, ErrShape, in, want)
	}
	return []int{c.geom.OutC, c.geom.OutH(), c.geom.OutW()}, nil
}

// mapConvCostFactor scales the cost estimate of connection-table
// convolutions. Torch's SpatialConvolutionMap computes only the connected
// channel pairs but does so with scalar loops instead of GEMM, which on
// CPUs is an order of magnitude less efficient; with the fan-in ratios the
// paper's network uses, the net effect is ≈8× the cost of the equivalent
// dense GEMM convolution.
const mapConvCostFactor = 8

// FLOPsPerSample implements Layer: 2·MACs for the GEMM plus the bias
// adds, in GEMM-normalized cost units (see mapConvCostFactor).
func (c *Conv2D) FLOPsPerSample(in []int) int64 {
	g := c.geom
	outPix := int64(g.OutH() * g.OutW())
	kVol := int64(g.InC * g.KH * g.KW)
	cost := 2*int64(g.OutC)*kVol*outPix + int64(g.OutC)*outPix
	if c.mask != nil {
		cost *= mapConvCostFactor
	}
	return cost
}

// Forward implements Layer.
func (c *Conv2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, sample, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if _, err := c.OutShape(sample); err != nil {
		return nil, err
	}
	c.ApplyMask()
	g := c.geom
	outH, outW := g.OutH(), g.OutW()
	kVol := g.InC * g.KH * g.KW
	imgLen := g.InC * g.InH * g.InW
	outLen := g.OutC * outH * outW
	planeOut := outH * outW

	c.outBuf = reuseBufUninit(c.outBuf, n, g.OutC, outH, outW)
	out := c.outBuf
	xd, od := x.Data(), out.Data()
	w := c.weight.Value.Data()
	bias := c.bias.Value.Data()
	fuseReLU := c.fusedAct == ReLU
	// The loop body is error-free by construction (shapes were validated
	// above and the flat-slice kernels cannot fail), so there is no shared
	// error slot for the workers to race on — the old firstErr data race
	// is gone structurally.
	tensor.ParallelFor(n, func(lo, hi int) {
		// Per-worker im2col scratch from the arena; every element is
		// written by Im2Col (including padding zeros) before the GEMM
		// reads it. The column matrix is the GEMM's k-major B operand.
		// GemmWholeK, not Gemm: the forward GEMM reduces the whole k
		// extent per output, GemmTransB's rounding, with no kc panels.
		cols := tensor.GetUninit(kVol, planeOut)
		defer tensor.Put(cols)
		cd := cols.Data()
		var dst []float64
		// Bias (and, when fused, ReLU) runs as a GEMM epilogue over each
		// completed block of output rows while the tile is cache-hot,
		// replacing the old second full pass over the output tensor.
		epi := func(rlo, rhi int) {
			for oc := rlo; oc < rhi; oc++ {
				b := bias[oc]
				row := dst[oc*planeOut : (oc+1)*planeOut]
				if fuseReLU {
					// v < 0 clears the mask: a conditional move, not a
					// jump (see Activation.Forward); -0 and NaN pass.
					for j, v := range row {
						v += b
						m := ^uint64(0)
						if v < 0 {
							m = 0
						}
						row[j] = math.Float64frombits(math.Float64bits(v) & m)
					}
				} else {
					for j := range row {
						row[j] += b
					}
				}
			}
		}
		for i := lo; i < hi; i++ {
			tensor.Im2Col(cd, xd[i*imgLen:(i+1)*imgLen], g)
			dst = od[i*outLen : (i+1)*outLen]
			tensor.GemmWholeK(dst, w, cd, g.OutC, kVol, planeOut, false, epi)
		}
	})
	c.lastInput = x
	return out, nil
}

// Backward implements Layer.
func (c *Conv2D) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	return c.backward(gradOut, true)
}

// backward accumulates dW and dB and, with wantIn, returns dX. Without
// it the dX GEMM, its col2im and the gradIn buffer are skipped; dW and
// dB are bit-identical either way (see Backprop).
func (c *Conv2D) backward(gradOut *tensor.Tensor, wantIn bool) (*tensor.Tensor, error) {
	if c.lastInput == nil {
		return nil, fmt.Errorf("conv2d %q: %w", c.name, ErrNoForward)
	}
	g := c.geom
	n := c.lastInput.Dim(0)
	outH, outW := g.OutH(), g.OutW()
	kVol := g.InC * g.KH * g.KW
	imgLen := g.InC * g.InH * g.InW
	outLen := g.OutC * outH * outW
	if gradOut.Len() != n*outLen {
		return nil, fmt.Errorf("conv2d %q backward: %w: grad %v", c.name, ErrShape, gradOut.Shape())
	}

	planeOut := outH * outW
	var gradIn *tensor.Tensor
	if wantIn {
		c.gradInBuf = reuseBufUninit(c.gradInBuf, n, g.InC, g.InH, g.InW)
		gradIn = c.gradInBuf
		gradIn.Zero() // Col2Im accumulates
	}

	// The batch loop is parallelized over a fixed number of shards, each
	// with its own dW/dB accumulators reduced in shard order afterwards.
	// The shard partition depends only on (n, convBackwardShards) — never
	// on core count — so gradients are deterministic across machines.
	shards := convBackwardShards
	partW := make([]*tensor.Tensor, shards)
	partB := make([]*tensor.Tensor, shards)
	xd, god := c.lastInput.Data(), gradOut.Data()
	w := c.weight.Value.Data()
	tensor.ParallelShards(n, shards, func(s, lo, hi int) {
		dw := tensor.Get(g.OutC, kVol)
		db := tensor.Get(g.OutC)
		// One scratch matrix serves both the recomputed im2col columns
		// and (after dW no longer needs them) the dcol of the same shape.
		col := tensor.GetUninit(kVol, planeOut)
		cd, dwd, dbd := col.Data(), dw.Data(), db.Data()
		for i := lo; i < hi; i++ {
			gs := god[i*outLen : (i+1)*outLen]
			// Recompute the columns instead of retaining them from
			// Forward: im2col is cheap next to the GEMMs, and dropping
			// the retained per-sample matrices removes the dominant
			// live-heap cost of training.
			tensor.Im2Col(cd, xd[i*imgLen:(i+1)*imgLen], g)
			// dW += gradSample · colᵀ  (OutC×outPix · outPix×kVol)
			tensor.GemmTransB(dwd, gs, cd, g.OutC, planeOut, kVol, true, nil)
			// dB += row sums of gradSample.
			for oc := 0; oc < g.OutC; oc++ {
				sum := 0.0
				for _, v := range gs[oc*planeOut : (oc+1)*planeOut] {
					sum += v
				}
				dbd[oc] += sum
			}
			// dX = col2im(Wᵀ · gradSample), overwriting the column
			// scratch in place; GemmTransA reads W as the stored Wᵀ.
			if wantIn {
				tensor.GemmTransA(cd, w, gs, kVol, g.OutC, planeOut)
				tensor.Col2Im(gradIn.Data()[i*imgLen:(i+1)*imgLen], cd, g)
			}
		}
		tensor.Put(col)
		partW[s], partB[s] = dw, db
	})
	for s := range partW {
		pw, pb := partW[s], partB[s]
		if pw == nil {
			continue // n < shards leaves trailing shards unused
		}
		if c.mask != nil {
			if err := tensor.Mul(pw, c.mask); err != nil {
				return nil, fmt.Errorf("conv2d %q backward mask: %w", c.name, err)
			}
		}
		if err := tensor.Add(c.weight.Grad, pw); err != nil {
			return nil, fmt.Errorf("conv2d %q backward: %w", c.name, err)
		}
		if err := tensor.Add(c.bias.Grad, pb); err != nil {
			return nil, fmt.Errorf("conv2d %q backward: %w", c.name, err)
		}
		tensor.Put(pw)
		tensor.Put(pb)
	}
	return gradIn, nil
}

// convBackwardShards fixes the number of parallel shards the backward
// batch loop splits into. It is a constant, not GOMAXPROCS, so the
// per-shard gradient accumulation order — and therefore every trained
// weight — is identical on every machine.
const convBackwardShards = 4
