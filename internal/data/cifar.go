package data

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// CIFAR-10 geometry constants (identical to the real corpus).
const (
	CIFARSize    = 32
	CIFARClasses = 10
)

// rgb is a colour triple in [0,1].
type rgb struct{ r, g, b float64 }

// cifarClass parameterizes the procedural generator for one class. Each
// class combines a background palette, a foreground shape family and a
// texture frequency; per-sample jitter plus heavy noise produces the
// within-class variance that makes the dataset substantially harder than
// the synthetic MNIST.
type cifarClass struct {
	name      string
	skyTop    rgb // background gradient endpoints
	skyBottom rgb
	body      rgb // foreground colour
	shape     int // one of the shape kinds below
	texFreq   float64
	texAmp    float64
}

// Foreground shape kinds.
const (
	shapeBlob = iota
	shapeWideBlob
	shapeBoxWheels
	shapeTwoTriangles
	shapeLeggedBody
	shapeRing
	shapeHullDeck
	shapeTallBlob
	shapeDiagonal
	shapeLowTexture
)

// cifarClasses mirrors the ten CIFAR-10 categories with procedural
// stand-ins that preserve coarse colour/structure statistics (sky for
// airplanes/birds, water for ships, road for vehicles, fur textures for
// animals).
var cifarClasses = [CIFARClasses]cifarClass{
	{name: "airplane", skyTop: rgb{0.45, 0.65, 0.95}, skyBottom: rgb{0.75, 0.85, 0.98}, body: rgb{0.85, 0.86, 0.90}, shape: shapeDiagonal, texFreq: 2, texAmp: 0.05},
	{name: "automobile", skyTop: rgb{0.55, 0.55, 0.58}, skyBottom: rgb{0.30, 0.30, 0.32}, body: rgb{0.80, 0.15, 0.12}, shape: shapeBoxWheels, texFreq: 3, texAmp: 0.06},
	{name: "bird", skyTop: rgb{0.50, 0.72, 0.92}, skyBottom: rgb{0.80, 0.88, 0.95}, body: rgb{0.55, 0.40, 0.28}, shape: shapeBlob, texFreq: 5, texAmp: 0.10},
	{name: "cat", skyTop: rgb{0.60, 0.55, 0.48}, skyBottom: rgb{0.45, 0.40, 0.35}, body: rgb{0.72, 0.58, 0.40}, shape: shapeTwoTriangles, texFreq: 9, texAmp: 0.18},
	{name: "deer", skyTop: rgb{0.40, 0.55, 0.32}, skyBottom: rgb{0.30, 0.42, 0.25}, body: rgb{0.58, 0.42, 0.24}, shape: shapeLeggedBody, texFreq: 6, texAmp: 0.14},
	{name: "dog", skyTop: rgb{0.58, 0.52, 0.46}, skyBottom: rgb{0.40, 0.36, 0.30}, body: rgb{0.46, 0.33, 0.22}, shape: shapeWideBlob, texFreq: 7, texAmp: 0.16},
	{name: "frog", skyTop: rgb{0.30, 0.45, 0.25}, skyBottom: rgb{0.22, 0.35, 0.18}, body: rgb{0.38, 0.62, 0.25}, shape: shapeLowTexture, texFreq: 10, texAmp: 0.20},
	{name: "horse", skyTop: rgb{0.55, 0.62, 0.45}, skyBottom: rgb{0.42, 0.46, 0.30}, body: rgb{0.48, 0.30, 0.18}, shape: shapeTallBlob, texFreq: 5, texAmp: 0.12},
	{name: "ship", skyTop: rgb{0.55, 0.70, 0.90}, skyBottom: rgb{0.15, 0.35, 0.60}, body: rgb{0.70, 0.70, 0.72}, shape: shapeHullDeck, texFreq: 3, texAmp: 0.08},
	{name: "truck", skyTop: rgb{0.60, 0.60, 0.62}, skyBottom: rgb{0.35, 0.35, 0.36}, body: rgb{0.90, 0.75, 0.15}, shape: shapeBoxWheels, texFreq: 2, texAmp: 0.05},
}

// valueNoise is a smooth 2-D value-noise field sampled from a coarse
// deterministic lattice with bilinear interpolation.
type valueNoise struct {
	grid []float64
	n    int
}

func newValueNoise(n int, rng *tensor.RNG) *valueNoise {
	g := make([]float64, (n+1)*(n+1))
	for i := range g {
		g[i] = rng.Float64()*2 - 1
	}
	return &valueNoise{grid: g, n: n}
}

// at samples the field at (x, y) ∈ [0,1]².
func (v *valueNoise) at(x, y float64) float64 {
	fx := x * float64(v.n)
	fy := y * float64(v.n)
	ix, iy := int(fx), int(fy)
	if ix >= v.n {
		ix = v.n - 1
	}
	if iy >= v.n {
		iy = v.n - 1
	}
	tx, ty := fx-float64(ix), fy-float64(iy)
	// Smoothstep weights avoid lattice artifacts.
	tx = tx * tx * (3 - 2*tx)
	ty = ty * ty * (3 - 2*ty)
	w := v.n + 1
	v00 := v.grid[iy*w+ix]
	v10 := v.grid[iy*w+ix+1]
	v01 := v.grid[(iy+1)*w+ix]
	v11 := v.grid[(iy+1)*w+ix+1]
	return (v00*(1-tx)+v10*tx)*(1-ty) + (v01*(1-tx)+v11*tx)*ty
}

// shapeMask returns foreground coverage in [0,1] for shape kind at pixel
// (x,y) ∈ [0,1]², given the per-sample centre (cx,cy) and size s.
func shapeMask(kind int, x, y, cx, cy, s float64) float64 {
	soft := func(d, edge float64) float64 {
		// 1 inside, linear falloff across `edge`.
		if d <= 0 {
			return 1
		}
		if d >= edge {
			return 0
		}
		return 1 - d/edge
	}
	dx, dy := x-cx, y-cy
	switch kind {
	case shapeBlob:
		return soft(math.Sqrt(dx*dx+dy*dy)-s*0.45, 0.08)
	case shapeWideBlob:
		return soft(math.Sqrt(dx*dx/(1.9*1.9)+dy*dy)-s*0.35, 0.08)
	case shapeTallBlob:
		return soft(math.Sqrt(dx*dx+dy*dy/(1.6*1.6))-s*0.38, 0.08)
	case shapeDiagonal:
		// Elongated fuselage along the main diagonal plus a wing bar.
		u := (dx + dy) / math.Sqrt2
		w := (dx - dy) / math.Sqrt2
		fus := soft(math.Sqrt(u*u/(2.6*2.6)+w*w)-s*0.28, 0.05)
		wing := soft(math.Sqrt(w*w/(2.0*2.0)+u*u)-s*0.16, 0.04)
		return math.Max(fus, wing)
	case shapeBoxWheels:
		box := 0.0
		if math.Abs(dx) < s*0.55 && dy > -s*0.30 && dy < s*0.18 {
			box = 1
		}
		wheelL := soft(math.Hypot(dx+s*0.32, dy-s*0.30)-s*0.14, 0.04)
		wheelR := soft(math.Hypot(dx-s*0.32, dy-s*0.30)-s*0.14, 0.04)
		return math.Max(box, math.Max(wheelL, wheelR))
	case shapeTwoTriangles:
		// A round head with two triangular ears.
		head := soft(math.Sqrt(dx*dx+dy*dy)-s*0.38, 0.07)
		ear := func(ox float64) float64 {
			ex, ey := dx-ox, dy+s*0.42
			if ey > 0 || ey < -s*0.42 {
				return 0
			}
			half := s * 0.16 * (1 + ey/(s*0.42))
			if math.Abs(ex) < half {
				return 1
			}
			return 0
		}
		return math.Max(head, math.Max(ear(-s*0.28), ear(s*0.28)))
	case shapeLeggedBody:
		body := soft(math.Sqrt(dx*dx/(1.8*1.8)+dy*dy)-s*0.30, 0.06)
		legs := 0.0
		for _, ox := range []float64{-0.30, -0.10, 0.10, 0.30} {
			lx := dx - ox*s
			if math.Abs(lx) < s*0.045 && dy > s*0.18 && dy < s*0.75 {
				legs = 1
			}
		}
		return math.Max(body, legs)
	case shapeRing:
		d := math.Abs(math.Sqrt(dx*dx+dy*dy) - s*0.38)
		return soft(d-s*0.10, 0.05)
	case shapeHullDeck:
		hull := 0.0
		// Trapezoidal hull in the lower half.
		if dy > 0 && dy < s*0.35 {
			half := s * (0.62 - 0.5*dy/s)
			if math.Abs(dx) < half {
				hull = 1
			}
		}
		deck := 0.0
		if math.Abs(dx) < s*0.22 && dy < 0 && dy > -s*0.38 {
			deck = 1
		}
		return math.Max(hull, deck)
	case shapeLowTexture:
		// Squat wide blob hugging the bottom (frog posture).
		return soft(math.Sqrt(dx*dx/(1.7*1.7)+(dy-s*0.15)*(dy-s*0.15)/(0.7*0.7))-s*0.34, 0.09)
	default:
		return 0
	}
}

// SynthCIFAR10 generates the synthetic CIFAR-10 train and test splits.
func SynthCIFAR10(cfg SynthConfig) (train, test *Dataset, err error) {
	cfg, err = cfg.normalized()
	if err != nil {
		return nil, nil, fmt.Errorf("data: SynthCIFAR10: %w", err)
	}
	gen := func(name string, n int, rng *tensor.RNG) *Dataset {
		sp := cfg.Obs.Span("data.generate."+name, "data")
		defer sp.End()
		ds := &Dataset{
			Name:        name,
			Classes:     CIFARClasses,
			SampleShape: []int{3, CIFARSize, CIFARSize},
			Images:      tensor.New(n, 3, CIFARSize, CIFARSize),
			Labels:      make([]int, n),
		}
		diff := cfg.Difficulty
		// Above difficulty 1.0, class palettes blend toward neutral gray,
		// shrinking the between-class colour separation and forcing
		// classifiers onto shape/texture cues.
		grayMix := 0.0
		if diff > 1 {
			grayMix = (diff - 1) * 1.4
			if grayMix > 0.8 {
				grayMix = 0.8
			}
		}
		toGray := func(c rgb) rgb {
			return rgb{
				r: c.r + (0.5-c.r)*grayMix,
				g: c.g + (0.5-c.g)*grayMix,
				b: c.b + (0.5-c.b)*grayMix,
			}
		}
		plane := CIFARSize * CIFARSize
		for i := 0; i < n; i++ {
			c := i % CIFARClasses
			cl := cifarClasses[c]
			cl.skyTop = toGray(cl.skyTop)
			cl.skyBottom = toGray(cl.skyBottom)
			cl.body = toGray(cl.body)
			// Per-sample jitter.
			cx := 0.5 + (rng.Float64()*2-1)*0.16*diff
			cy := 0.5 + (rng.Float64()*2-1)*0.16*diff
			size := 0.55 * (1 + (rng.Float64()*2-1)*0.30*diff)
			hueJit := 0.22 * diff
			jr := (rng.Float64()*2 - 1) * hueJit
			jg := (rng.Float64()*2 - 1) * hueJit
			jb := (rng.Float64()*2 - 1) * hueJit
			texture := newValueNoise(2+int(cl.texFreq), rng)
			lum := newValueNoise(3, rng)
			noiseStd := 0.06 + 0.16*diff

			base := i * 3 * plane
			img := ds.Images.Data()[base : base+3*plane]
			for py := 0; py < CIFARSize; py++ {
				for px := 0; px < CIFARSize; px++ {
					x := (float64(px) + 0.5) / CIFARSize
					y := (float64(py) + 0.5) / CIFARSize
					// Background vertical gradient.
					br := cl.skyTop.r + (cl.skyBottom.r-cl.skyTop.r)*y
					bg := cl.skyTop.g + (cl.skyBottom.g-cl.skyTop.g)*y
					bb := cl.skyTop.b + (cl.skyBottom.b-cl.skyTop.b)*y
					// Foreground.
					m := shapeMask(cl.shape, x, y, cx, cy, size)
					tex := cl.texAmp * texture.at(x, y)
					fr := cl.body.r + tex + jr
					fg := cl.body.g + tex + jg
					fb := cl.body.b + tex + jb
					// Global illumination field + pixel noise.
					light := 1 + 0.18*diff*lum.at(x, y)
					pi := py*CIFARSize + px
					put := func(ch int, bgv, fgv float64) {
						v := (bgv*(1-m) + fgv*m) * light
						v += noiseStd * rng.NormFloat64()
						if v < 0 {
							v = 0
						} else if v > 1 {
							v = 1
						}
						img[ch*plane+pi] = v
					}
					put(0, br, fr)
					put(1, bg, fg)
					put(2, bb, fb)
				}
			}
			ds.Labels[i] = c
		}
		return ds
	}
	base := tensor.NewRNG(cfg.Seed ^ 0x6369666172) // decorrelate from the MNIST streams
	train = gen("synth-cifar10-train", cfg.Train, base.Split())
	test = gen("synth-cifar10-test", cfg.Test, base.Split())
	return train, test, nil
}
