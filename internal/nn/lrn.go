package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// LRN is across-channel local response normalization:
//
//	b[c] = a[c] / (k + α·Σ_{c'∈window(c)} a[c']²)^β
//
// TensorFlow's CIFAR-10 default network (paper Table V) interleaves LRN
// with its convolution layers; Caffe and Torch defaults do not use it.
type LRN struct {
	name  string
	depth int // window size (total channels considered, centered)
	k     float64
	alpha float64
	beta  float64

	lastInput *tensor.Tensor
	lastDenom *tensor.Tensor // d[c] = k + α·Σ a²  (pre-exponent)
	lastPow   *tensor.Tensor // d^(−β), cached to keep math.Pow out of Backward
	lastShape []int

	outBuf    *tensor.Tensor
	gradInBuf *tensor.Tensor
}

var _ Layer = (*LRN)(nil)

// LRNConfig configures NewLRN. Zero values select the TensorFlow CIFAR-10
// tutorial constants (depth 9, k=1, α=0.001/9, β=0.75).
type LRNConfig struct {
	Name  string
	Depth int
	K     float64
	Alpha float64
	Beta  float64
}

// NewLRN constructs a local response normalization layer.
func NewLRN(cfg LRNConfig) (*LRN, error) {
	l := &LRN{name: cfg.Name, depth: cfg.Depth, k: cfg.K, alpha: cfg.Alpha, beta: cfg.Beta}
	if l.depth == 0 {
		l.depth = 9
	}
	if l.k == 0 {
		l.k = 1
	}
	if l.alpha == 0 {
		l.alpha = 0.001 / 9.0
	}
	if l.beta == 0 {
		l.beta = 0.75
	}
	if l.depth < 1 {
		return nil, fmt.Errorf("lrn %q: depth %d < 1", cfg.Name, l.depth)
	}
	return l, nil
}

// Name implements Layer.
func (l *LRN) Name() string { return l.name }

// Params implements Layer.
func (l *LRN) Params() []*Param { return nil }

// OutShape implements Layer.
func (l *LRN) OutShape(in []int) ([]int, error) {
	if len(in) != 3 {
		return nil, fmt.Errorf("lrn %q: %w: want [C,H,W], got %v", l.name, ErrShape, in)
	}
	return append([]int(nil), in...), nil
}

// FLOPsPerSample implements Layer.
func (l *LRN) FLOPsPerSample(in []int) int64 {
	return int64(tensor.Volume(in)) * int64(l.depth+8)
}

func (l *LRN) window(c, channels int) (lo, hi int) {
	half := l.depth / 2
	lo = c - half
	if lo < 0 {
		lo = 0
	}
	hi = c + half
	if hi > channels-1 {
		hi = channels - 1
	}
	return lo, hi
}

// Forward implements Layer.
func (l *LRN) Forward(x *tensor.Tensor, _ bool) (*tensor.Tensor, error) {
	n, sample, err := batchOf(x)
	if err != nil {
		return nil, err
	}
	if _, err := l.OutShape(sample); err != nil {
		return nil, err
	}
	channels, h, w := sample[0], sample[1], sample[2]
	plane := h * w
	vol := channels * plane
	// All three full-size temporaries persist across iterations; every
	// element is written below before any read.
	l.outBuf = reuseBufLike(l.outBuf, x)
	l.lastDenom = reuseBufLike(l.lastDenom, x)
	l.lastPow = reuseBufLike(l.lastPow, x)
	xd, od, dd, pd := x.Data(), l.outBuf.Data(), l.lastDenom.Data(), l.lastPow.Data()
	tensor.ParallelFor(n, func(lo, hi int) {
		// Per-worker scratch: one sample's squares, each computed once.
		sqBuf := tensor.GetUninit(vol)
		defer tensor.Put(sqBuf)
		sq := sqBuf.Data()[:vol]
		for i := lo; i < hi; i++ {
			xs := xd[i*vol:][:vol]
			for j, v := range xs {
				sq[j] = v * v
			}
			for c := 0; c < channels; c++ {
				o := i*vol + c*plane
				// Each element's window sum, in place of its
				// denominator.
				s := dd[o : o+plane]
				wlo, whi := l.window(c, channels)
				sumRows(s, sq, wlo, whi)
				xc, pw, y := xs[c*plane:(c+1)*plane], pd[o:o+plane], od[o:o+plane]
				for p, sv := range s {
					d := l.k + l.alpha*sv
					var pv float64
					if l.beta == 0.75 {
						// d^(−3/4) = 1/√(d·√d): two sqrts beat Pow in the
						// hot path and are exact for the default β.
						pv = 1 / math.Sqrt(d*math.Sqrt(d))
					} else {
						pv = math.Pow(d, -l.beta)
					}
					s[p], pw[p], y[p] = d, pv, xc[p]*pv
				}
			}
		}
	})
	l.lastInput = x
	l.lastShape = x.Shape()
	return l.outBuf, nil
}

// Backward implements Layer.
func (l *LRN) Backward(gradOut *tensor.Tensor) (*tensor.Tensor, error) {
	if l.lastInput == nil {
		return nil, fmt.Errorf("lrn %q: %w", l.name, ErrNoForward)
	}
	if gradOut.Len() != l.lastInput.Len() {
		return nil, fmt.Errorf("lrn %q backward: %w", l.name, ErrShape)
	}
	n := l.lastShape[0]
	channels, h, w := l.lastShape[1], l.lastShape[2], l.lastShape[3]
	plane := h * w
	vol := channels * plane
	l.gradInBuf = reuseBufUninit(l.gradInBuf, l.lastShape...)
	a := l.lastInput.Data()
	d := l.lastDenom.Data()
	dp := l.lastPow.Data()
	g := gradOut.Data()
	gi := l.gradInBuf.Data()
	coef := 2 * l.alpha * l.beta
	tensor.ParallelFor(n, func(lo, hi int) {
		// Per-worker scratch: one sample's cross terms and one row of
		// their window sums.
		buf := tensor.GetUninit(vol + plane)
		defer tensor.Put(buf)
		term, cross := buf.Data()[:vol], buf.Data()[vol:][:plane]
		for i := lo; i < hi; i++ {
			base := i * vol
			// Every output j contributes g·a·d^(−β)/d to each input
			// in its window; d^(−β−1) = d^(−β)/d avoids a Pow per
			// term. Compute each term once, in the order
			// ((g·a)·dp)/d.
			gs, as, dps, ds := g[base:base+vol], a[base:base+vol], dp[base:base+vol], d[base:base+vol]
			for j, gv := range gs {
				term[j] = gv * as[j] * dps[j] / ds[j]
			}
			for c := 0; c < channels; c++ {
				// Window symmetry: c ∈ window(j) ⟺ j ∈ window(c) for a
				// centered window clipped at the edges, so the terms
				// that reach c are those of c's own window.
				wlo, whi := l.window(c, channels)
				sumRows(cross, term, wlo, whi)
				o := c * plane
				gc, ac, dpc, out := gs[o:][:plane], as[o:][:plane], dps[o:][:plane], gi[base+o:][:plane]
				for p, cv := range cross {
					// Direct term, reusing the cached d^(−β), minus the
					// cross terms.
					out[p] = gc[p]*dpc[p] - coef*ac[p]*cv
				}
			}
		}
	})
	return l.gradInBuf, nil
}

// sumRows sets each s[p] to the sum over channels lo..hi of
// rows[c·len(s)+p], added from +0 in ascending channel order as a
// per-element loop adds it. Four channel rows go per pass: one load and
// store of s per four adds instead of per add.
//
// Over rows of squares this gives the bits of the per-element
// s += v*v only where Go does not fuse a multiply and an add, as on
// amd64. On arm64, ppc64, s390x, riscv64 and loong64 the compiler fuses
// that loop's v*v into the sum, so there the separately rounded squares
// can move a window sum's last bit.
func sumRows(s, rows []float64, lo, hi int) {
	plane := len(s)
	clear(s)
	c := lo
	for ; c+3 <= hi; c += 4 {
		r0 := rows[c*plane:][:plane]
		r1 := rows[(c+1)*plane:][:plane]
		r2 := rows[(c+2)*plane:][:plane]
		r3 := rows[(c+3)*plane:][:plane]
		for p := range s {
			s[p] = s[p] + r0[p] + r1[p] + r2[p] + r3[p]
		}
	}
	for ; c <= hi; c++ {
		r := rows[c*plane:][:plane]
		for p := range s {
			s[p] += r[p]
		}
	}
}

// ReleaseBuffers drops cached state and persistent buffers.
func (l *LRN) ReleaseBuffers() {
	l.lastInput = nil
	l.lastDenom = nil
	l.lastPow = nil
	l.lastShape = nil
	l.outBuf = nil
	l.gradInBuf = nil
}
