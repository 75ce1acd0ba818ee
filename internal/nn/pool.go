package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// PoolKind selects the pooling reduction.
type PoolKind int

// Supported pooling reductions.
const (
	MaxPool PoolKind = iota + 1
	AvgPool
)

// String implements fmt.Stringer.
func (k PoolKind) String() string {
	switch k {
	case MaxPool:
		return "max"
	case AvgPool:
		return "avg"
	default:
		return fmt.Sprintf("PoolKind(%d)", int(k))
	}
}

// Pool2D is a 2-D spatial pooling layer (max or average) over [N,C,H,W]
// inputs. Window size and stride may differ, matching the paper's
// MaxPooling(3×3) stride-2 configurations.
type Pool2D struct {
	name   string
	kind   PoolKind
	geom   tensor.ConvGeom // OutC unused; channels pass through
	argmax []int32         // flat in-plane index of each max, for backward
	lastN  int

	outBuf    *tensor.Tensor
	gradInBuf *tensor.Tensor
}

var _ Layer = (*Pool2D)(nil)

// Pool2DConfig configures NewPool2D.
type Pool2DConfig struct {
	Name     string
	Kind     PoolKind
	InC      int
	InH, InW int
	Window   int
	Stride   int
	Pad      int
}

// NewPool2D constructs a pooling layer.
func NewPool2D(cfg Pool2DConfig) (*Pool2D, error) {
	if cfg.Kind != MaxPool && cfg.Kind != AvgPool {
		return nil, fmt.Errorf("pool2d %q: unknown kind %d", cfg.Name, cfg.Kind)
	}
	g := tensor.ConvGeom{
		InC: cfg.InC, InH: cfg.InH, InW: cfg.InW,
		KH: cfg.Window, KW: cfg.Window,
		StrideH: cfg.Stride, StrideW: cfg.Stride,
		PadH: cfg.Pad, PadW: cfg.Pad,
		OutC: cfg.InC,
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("pool2d %q: %w", cfg.Name, err)
	}
	if g.InH*g.InW > math.MaxInt32 {
		return nil, fmt.Errorf("pool2d %q: %w: %d×%d plane overflows the int32 argmax", cfg.Name, ErrShape, g.InH, g.InW)
	}
	return &Pool2D{name: cfg.Name, kind: cfg.Kind, geom: g}, nil
}

// Name implements Layer.
func (p *Pool2D) Name() string { return p.name }

// Params implements Layer.
func (p *Pool2D) Params() []*Param { return nil }

// OutShape implements Layer.
func (p *Pool2D) OutShape(in []int) ([]int, error) {
	want := []int{p.geom.InC, p.geom.InH, p.geom.InW}
	if !shapeEq(in, want) {
		return nil, fmt.Errorf("pool2d %q: %w: input %v, want %v", p.name, ErrShape, in, want)
	}
	return []int{p.geom.InC, p.geom.OutH(), p.geom.OutW()}, nil
}

// FLOPsPerSample implements Layer: one comparison/add per window element.
func (p *Pool2D) FLOPsPerSample(in []int) int64 {
	g := p.geom
	return int64(g.InC) * int64(g.OutH()*g.OutW()) * int64(g.KH*g.KW)
}

// Forward implements Layer.
func (p *Pool2D) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, sample, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if _, err := p.OutShape(sample); err != nil {
		return nil, err
	}
	g := p.geom
	outH, outW := g.OutH(), g.OutW()
	planeIn := g.InH * g.InW
	planeOut := outH * outW
	p.outBuf = reuseBufUninit(p.outBuf, n, g.InC, outH, outW)
	out := p.outBuf
	if p.kind == MaxPool && len(p.argmax) != n*g.InC*planeOut {
		p.argmax = make([]int32, n*g.InC*planeOut)
	}
	p.lastN = n
	xd, od := x.Data(), out.Data()
	tensor.ParallelFor(n*g.InC, func(lo, hi int) {
		for pc := lo; pc < hi; pc++ {
			in := xd[pc*planeIn : (pc+1)*planeIn]
			dst := od[pc*planeOut : (pc+1)*planeOut]
			if p.kind == MaxPool {
				p.maxPlane(dst, p.argmax[pc*planeOut:(pc+1)*planeOut], in)
			} else {
				p.avgPlane(dst, in)
			}
		}
	})
	return out, nil
}

// interior returns the outputs [lo, hi) along one axis whose windows lie
// wholly inside the input: o·stride − pad ≥ 0 and o·stride − pad + k ≤ in.
func interior(in, k, stride, pad, out int) (lo, hi int) {
	lo = min((pad+stride-1)/stride, out)
	if in-k+pad < 0 {
		return lo, lo
	}
	return lo, max(lo, min(out, (in-k+pad)/stride+1))
}

// maxPlane max-pools one channel plane into dst and records each
// window's argmax. Every window is scanned ky then kx, seeded with its
// first in-bounds element and replaced only on a strict >, so ties keep
// the earliest index and a NaN seed stays. Interior windows, the whole
// plane for unpadded pooling, run that scan in maxRow.
func (p *Pool2D) maxPlane(dst []float64, am []int32, in []float64) {
	g := p.geom
	outH, outW := g.OutH(), g.OutW()
	yLo, yHi := interior(g.InH, g.KH, g.StrideH, g.PadH, outH)
	xLo, xHi := interior(g.InW, g.KW, g.StrideW, g.PadW, outW)
	for oy := 0; oy < outH; oy++ {
		d, a := dst[oy*outW:(oy+1)*outW], am[oy*outW:(oy+1)*outW]
		lo, hi := outW, outW // the row's interior windows, if any
		if oy >= yLo && oy < yHi {
			lo, hi = xLo, xHi
			base := (oy*g.StrideH-g.PadH)*g.InW + lo*g.StrideW - g.PadW
			maxRow(d[lo:hi], a[lo:hi], in, base, g.StrideW, g.InW, g.KH, g.KW)
		}
		p.maxEdges(d, a, in, oy, 0, lo)
		p.maxEdges(d, a, in, oy, hi, outW)
	}
}

// maxRow max-pools a run of interior windows, window ox spanning kh rows
// of kw elements from in[base + ox·stride], ld apart. It scans row
// slices without per-element bounds tests and keeps the running max as
// bits, so each update is an integer select on v > best that compiles to
// a conditional move: on random inputs a jump would mispredict about
// twice per window.
func maxRow(d []float64, a []int32, in []float64, base, stride, ld, kh, kw int) {
	a = a[:len(d)]
	for ox := range d {
		o := base + ox*stride
		best, bits, bestIdx := in[o], math.Float64bits(in[o]), o
		for ky := 0; ky < kh; ky++ {
			r := o + ky*ld
			for kx, v := range in[r : r+kw] {
				vb := math.Float64bits(v)
				if v > best {
					bits = vb
				}
				if v > best {
					bestIdx = r + kx
				}
				best = math.Float64frombits(bits)
			}
		}
		d[ox], a[ox] = best, int32(bestIdx)
	}
}

// maxEdges max-pools windows from..to−1 of output row oy, which overlap
// the padding, testing each element's bounds; the argmax stays −1 for a
// window with no element in bounds.
func (p *Pool2D) maxEdges(d []float64, a []int32, in []float64, oy, from, to int) {
	g := p.geom
	for ox := from; ox < to; ox++ {
		best, bestIdx := 0.0, -1
		for ky := 0; ky < g.KH; ky++ {
			iy := oy*g.StrideH - g.PadH + ky
			if iy < 0 || iy >= g.InH {
				continue
			}
			for kx := 0; kx < g.KW; kx++ {
				ix := ox*g.StrideW - g.PadW + kx
				if ix < 0 || ix >= g.InW {
					continue
				}
				v := in[iy*g.InW+ix]
				if bestIdx < 0 || v > best {
					best, bestIdx = v, iy*g.InW+ix
				}
			}
		}
		d[ox], a[ox] = best, int32(bestIdx)
	}
}

// avgPlane average-pools one channel plane into dst: each window sums
// its in-bounds elements ky then kx from +0 and scales by 1/(KH·KW).
func (p *Pool2D) avgPlane(dst, in []float64) {
	g := p.geom
	outH, outW := g.OutH(), g.OutW()
	inv := 1.0 / float64(g.KH*g.KW)
	for oy := 0; oy < outH; oy++ {
		for ox := 0; ox < outW; ox++ {
			s := 0.0
			for ky := 0; ky < g.KH; ky++ {
				iy := oy*g.StrideH - g.PadH + ky
				if iy < 0 || iy >= g.InH {
					continue
				}
				for kx := 0; kx < g.KW; kx++ {
					ix := ox*g.StrideW - g.PadW + kx
					if ix < 0 || ix >= g.InW {
						continue
					}
					s += in[iy*g.InW+ix]
				}
			}
			dst[oy*outW+ox] = s * inv
		}
	}
}

// Backward implements Layer.
func (p *Pool2D) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if p.lastN == 0 {
		return nil, fmt.Errorf("pool2d %q: %w", p.name, ErrNoForward)
	}
	g := p.geom
	n := p.lastN
	outH, outW := g.OutH(), g.OutW()
	planeIn := g.InH * g.InW
	planeOut := outH * outW
	if gradOut.Len() != n*g.InC*planeOut {
		return nil, fmt.Errorf("pool2d %q backward: %w: grad %v", p.name, ErrShape, gradOut.Shape())
	}
	p.gradInBuf = reuseBufUninit(p.gradInBuf, n, g.InC, g.InH, g.InW)
	gradIn := p.gradInBuf
	gradIn.Zero() // the scatter below accumulates
	inv := 1.0 / float64(g.KH*g.KW)
	tensor.ParallelFor(n*g.InC, func(lo, hi int) {
		for pc := lo; pc < hi; pc++ {
			gin := gradIn.Data()[pc*planeIn : (pc+1)*planeIn]
			gout := gradOut.Data()[pc*planeOut : (pc+1)*planeOut]
			if p.kind == MaxPool {
				// Scatter in output order, as overlapping windows
				// accumulate into shared inputs.
				am := p.argmax[pc*planeOut : (pc+1)*planeOut]
				for oi, gv := range gout {
					if idx := am[oi]; gv != 0 && idx >= 0 {
						gin[idx] += gv
					}
				}
				continue
			}
			for oy := 0; oy < outH; oy++ {
				for ox := 0; ox < outW; ox++ {
					gv := gout[oy*outW+ox]
					if gv == 0 {
						continue
					}
					for ky := 0; ky < g.KH; ky++ {
						iy := oy*g.StrideH - g.PadH + ky
						if iy < 0 || iy >= g.InH {
							continue
						}
						for kx := 0; kx < g.KW; kx++ {
							ix := ox*g.StrideW - g.PadW + kx
							if ix < 0 || ix >= g.InW {
								continue
							}
							gin[iy*g.InW+ix] += gv * inv
						}
					}
				}
			}
		}
	})
	return gradIn, nil
}

// ReleaseBuffers drops cached state and persistent buffers.
func (p *Pool2D) ReleaseBuffers() {
	p.argmax = nil
	p.lastN = 0
	p.outBuf = nil
	p.gradInBuf = nil
}
