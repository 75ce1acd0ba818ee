package nn

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// Scalar references for the non-GEMM layers: Activation's, Pool2D's and
// LRN's loops as they stood before the branch-free, bounds-check-free
// and shared-term rewrites, kept verbatim apart from running serially
// and from the conversion in refLRNForward's sum of squares. The layers
// must reproduce them bit for bit; gemm_ref_test.go in internal/tensor
// plays the same part for the GEMM kernels.

func refActForward(kind ActKind, o, xd []float64) {
	switch kind {
	case ReLU:
		for i, v := range xd {
			if v > 0 {
				o[i] = v
			} else {
				o[i] = 0
			}
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
}

// refActBackward takes the cached input x and output y.
func refActBackward(kind ActKind, g, gout, x, y []float64) {
	switch kind {
	case ReLU:
		for i, v := range gout {
			if x[i] <= 0 {
				g[i] = 0
			} else {
				g[i] = v
			}
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
}

func refPoolForward(kind PoolKind, g tensor.ConvGeom, n int, xd, od []float64, argmax []int) {
	outH, outW := g.OutH(), g.OutW()
	planeIn := g.InH * g.InW
	planeOut := outH * outW
	inv := 1.0 / float64(g.KH*g.KW)
	for pc := 0; pc < n*g.InC; pc++ {
		in := xd[pc*planeIn : (pc+1)*planeIn]
		dst := od[pc*planeOut : (pc+1)*planeOut]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				oi := oy*outW + ox
				switch kind {
				case MaxPool:
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
					dst[oi] = best
					argmax[pc*planeOut+oi] = bestIdx
				case AvgPool:
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
					dst[oi] = s * inv
				}
			}
		}
	}
}

// refPoolBackward accumulates into gi, which the caller zeroes.
func refPoolBackward(kind PoolKind, g tensor.ConvGeom, n int, gi, god []float64, argmax []int) {
	outH, outW := g.OutH(), g.OutW()
	planeIn := g.InH * g.InW
	planeOut := outH * outW
	inv := 1.0 / float64(g.KH*g.KW)
	for pc := 0; pc < n*g.InC; pc++ {
		gin := gi[pc*planeIn : (pc+1)*planeIn]
		gout := god[pc*planeOut : (pc+1)*planeOut]
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				oi := oy*outW + ox
				gv := gout[oi]
				if gv == 0 {
					continue
				}
				switch kind {
				case MaxPool:
					if idx := argmax[pc*planeOut+oi]; idx >= 0 {
						gin[idx] += gv
					}
				case AvgPool:
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
	}
}

func refLRNForward(l *LRN, n, channels, plane int, xd, out, denom, dpow []float64) {
	for i := 0; i < n; i++ {
		base := i * channels * plane
		for c := 0; c < channels; c++ {
			wlo, whi := l.window(c, channels)
			for p := 0; p < plane; p++ {
				s := 0.0
				for cc := wlo; cc <= whi; cc++ {
					v := xd[base+cc*plane+p]
					// The old loop read s += v * v. The conversion
					// keeps the compiler from fusing the square into
					// the sum: on amd64, where Go fuses no multiply
					// and add, this is the old arithmetic exactly. On
					// arm64, ppc64, s390x, riscv64 and loong64 the old
					// loop fused it, and the rewrite, which squares
					// each input once, does not reproduce that.
					s += float64(v * v)
				}
				d := l.k + l.alpha*s
				var pw float64
				if l.beta == 0.75 {
					pw = 1 / math.Sqrt(d*math.Sqrt(d))
				} else {
					pw = math.Pow(d, -l.beta)
				}
				idx := base + c*plane + p
				denom[idx] = d
				dpow[idx] = pw
				out[idx] = xd[idx] * pw
			}
		}
	}
}

func refLRNBackward(l *LRN, n, channels, plane int, a, d, dp, g, gi []float64) {
	for i := 0; i < n; i++ {
		base := i * channels * plane
		for c := 0; c < channels; c++ {
			wlo, whi := l.window(c, channels)
			for p := 0; p < plane; p++ {
				ci := base + c*plane + p
				sum := g[ci] * dp[ci]
				cross := 0.0
				for j := wlo; j <= whi; j++ {
					ji := base + j*plane + p
					cross += g[ji] * a[ji] * dp[ji] / d[ji]
				}
				sum -= 2 * l.alpha * l.beta * a[ci] * cross
				gi[ci] = sum
			}
		}
	}
}

// refValues draws n inputs for the non-GEMM layers: small integers
// (ties in every pooling window), ±0, ±Inf, NaN, subnormals and normal
// values.
func refValues(rng *tensor.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		switch r := rng.Intn(24); {
		case r < 6:
			v[i] = float64(rng.Intn(5) - 2)
		case r < 7:
			v[i] = math.Copysign(0, -1)
		case r < 8:
			v[i] = math.Inf(1 - 2*rng.Intn(2))
		case r < 9:
			v[i] = math.NaN()
		case r < 10:
			v[i] = (rng.Float64()*2 - 1) * 1e-310
		default:
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// sameFloats fails unless got and want agree bit for bit, NaN payloads
// aside: which operand's payload an instruction keeps is not fixed by Go.
func sameFloats(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", what, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(g != g && w != w) {
			t.Fatalf("%s: [%d] = %v (%#x), reference %v (%#x)", what, i, g, math.Float64bits(g), w, math.Float64bits(w))
		}
	}
}

// TestNonGemmLayersMatchReference: Activation, Pool2D and LRN reproduce
// their reference loops bit for bit on ragged shapes and non-finite
// inputs, at one and two workers: forward outputs, max and average pool
// input gradients (and so the argmax), LRN's cached d and d^(−β), and
// every input gradient.
func TestNonGemmLayersMatchReference(t *testing.T) {
	for _, procs := range []int{1, 2} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			rng := tensor.NewRNG(uint64(500 + procs))
			for trial := 0; trial < 120; trial++ {
				n := 1 + rng.Intn(3)
				c, h, w := 1+rng.Intn(12), 1+rng.Intn(17), 1+rng.Intn(17)
				x := refValues(rng, n*c*h*w)
				checkActRef(t, procs, n, c, h, w, x, rng)
				checkPoolRef(t, procs, n, c, h, w, x, rng)
				checkLRNRef(t, procs, n, c, h, w, x, rng)
			}
		}()
	}
}

func checkActRef(t *testing.T, procs, n, c, h, w int, x []float64, rng *tensor.RNG) {
	t.Helper()
	xt, err := tensor.From(x, n, c, h, w)
	if err != nil {
		t.Fatal(err)
	}
	gout := refValues(rng, len(x))
	gt, _ := tensor.From(gout, n, c, h, w)
	for _, kind := range []ActKind{ReLU, Tanh, Sigmoid} {
		a, err := NewActivation("act", kind)
		if err != nil {
			t.Fatal(err)
		}
		y, err := a.Forward(xt, true)
		if err != nil {
			t.Fatal(err)
		}
		gi, err := a.Backward(gt)
		if err != nil {
			t.Fatal(err)
		}
		wantY, wantG := make([]float64, len(x)), make([]float64, len(x))
		refActForward(kind, wantY, x)
		refActBackward(kind, wantG, gout, x, wantY)
		what := fmt.Sprintf("procs %d %v [%d,%d,%d,%d]", procs, kind, n, c, h, w)
		sameFloats(t, what+" forward", y.Data(), wantY)
		sameFloats(t, what+" backward", gi.Data(), wantG)
	}
}

func checkPoolRef(t *testing.T, procs, n, c, h, w int, x []float64, rng *tensor.RNG) {
	t.Helper()
	cfg := Pool2DConfig{
		Name: "pool", InC: c, InH: h, InW: w,
		Window: 2 + rng.Intn(2), Stride: 1 + rng.Intn(3), Pad: rng.Intn(2),
	}
	xt, err := tensor.From(x, n, c, h, w)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []PoolKind{MaxPool, AvgPool} {
		cfg.Kind = kind
		p, err := NewPool2D(cfg)
		if err != nil {
			continue // the window does not fit this plane
		}
		g := p.geom
		y, err := p.Forward(xt, true)
		if err != nil {
			t.Fatal(err)
		}
		gout := refValues(rng, y.Len())
		gt, _ := tensor.From(gout, y.Shape()...)
		gi, err := p.Backward(gt)
		if err != nil {
			t.Fatal(err)
		}
		wantY, wantG := make([]float64, y.Len()), make([]float64, len(x))
		argmax := make([]int, y.Len())
		refPoolForward(kind, g, n, x, wantY, argmax)
		refPoolBackward(kind, g, n, wantG, gout, argmax)
		what := fmt.Sprintf("procs %d %v pool %+v", procs, kind, cfg)
		sameFloats(t, what+" forward", y.Data(), wantY)
		sameFloats(t, what+" backward", gi.Data(), wantG)
	}
}

func checkLRNRef(t *testing.T, procs, n, c, h, w int, x []float64, rng *tensor.RNG) {
	t.Helper()
	xt, err := tensor.From(x, n, c, h, w)
	if err != nil {
		t.Fatal(err)
	}
	depth := []int{1, 3, 5, 9}[rng.Intn(4)]
	beta := []float64{0.75, 0.5}[rng.Intn(2)]
	l, err := NewLRN(LRNConfig{Name: "lrn", Depth: depth, Alpha: 0.05, Beta: beta})
	if err != nil {
		t.Fatal(err)
	}
	y, err := l.Forward(xt, true)
	if err != nil {
		t.Fatal(err)
	}
	gout := refValues(rng, len(x))
	gt, _ := tensor.From(gout, n, c, h, w)
	gi, err := l.Backward(gt)
	if err != nil {
		t.Fatal(err)
	}
	wantY, wantD, wantP, wantG := make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x)), make([]float64, len(x))
	plane := h * w
	refLRNForward(l, n, c, plane, x, wantY, wantD, wantP)
	refLRNBackward(l, n, c, plane, x, wantD, wantP, gout, wantG)
	what := fmt.Sprintf("procs %d lrn depth %d β %v [%d,%d,%d,%d]", procs, depth, beta, n, c, h, w)
	sameFloats(t, what+" forward", y.Data(), wantY)
	sameFloats(t, what+" d", l.lastDenom.Data(), wantD)
	sameFloats(t, what+" d^-β", l.lastPow.Data(), wantP)
	sameFloats(t, what+" backward", gi.Data(), wantG)
}
