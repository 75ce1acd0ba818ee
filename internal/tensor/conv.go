package tensor

import "fmt"

// ConvGeom describes the geometry of a 2-D convolution or pooling window:
// input channels/height/width, kernel size, stride and symmetric padding.
type ConvGeom struct {
	InC, InH, InW int // input channels, height, width
	KH, KW        int // kernel height, width
	StrideH       int
	StrideW       int
	PadH, PadW    int
	OutC          int // output channels (ignored by pooling)
}

// OutH returns the output height implied by the geometry.
func (g ConvGeom) OutH() int { return (g.InH+2*g.PadH-g.KH)/g.StrideH + 1 }

// OutW returns the output width implied by the geometry.
func (g ConvGeom) OutW() int { return (g.InW+2*g.PadW-g.KW)/g.StrideW + 1 }

// Validate returns an error if the geometry produces an empty or negative
// output plane.
func (g ConvGeom) Validate() error {
	if g.InC <= 0 || g.InH <= 0 || g.InW <= 0 {
		return fmt.Errorf("%w: conv geometry has empty input %dx%dx%d", ErrShape, g.InC, g.InH, g.InW)
	}
	if g.KH <= 0 || g.KW <= 0 || g.StrideH <= 0 || g.StrideW <= 0 {
		return fmt.Errorf("%w: conv geometry kernel %dx%d stride %dx%d", ErrShape, g.KH, g.KW, g.StrideH, g.StrideW)
	}
	if g.OutH() <= 0 || g.OutW() <= 0 {
		return fmt.Errorf("%w: conv geometry yields empty output %dx%d", ErrShape, g.OutH(), g.OutW())
	}
	return nil
}

// Im2Col lowers one image (C×H×W flat slice) into a column matrix with
// (C*KH*KW) rows and (OutH*OutW) columns so that convolution becomes a
// single GEMM: weights(outC × C*KH*KW) · cols = output(outC × OutH*OutW).
//
// col must have length C*KH*KW*OutH*OutW. Padding positions contribute 0.
// With horizontal stride 1 each output row is one contiguous run of the
// input row between zero margins, copied whole.
func Im2Col(col, img []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	colIdx := 0
	for c := 0; c < g.InC; c++ {
		plane := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				lo, hi := g.validCols(kw, outW)
				for oy := 0; oy < outH; oy++ {
					dst := col[colIdx : colIdx+outW]
					colIdx += outW
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= g.InH {
						clear(dst)
						continue
					}
					src := plane[iy*g.InW : (iy+1)*g.InW]
					clear(dst[:lo])
					clear(dst[hi:])
					if g.StrideW == 1 && lo < hi {
						copy(dst[lo:hi], src[lo-g.PadW+kw:])
						continue
					}
					for ox := lo; ox < hi; ox++ {
						dst[ox] = src[ox*g.StrideW-g.PadW+kw]
					}
				}
			}
		}
	}
}

// validCols returns the output columns [lo, hi) whose input column
// ox*StrideW - PadW + kw lies inside the image.
func (g ConvGeom) validCols(kw, outW int) (lo, hi int) {
	s, off := g.StrideW, g.PadW-kw // ix = ox*s - off
	lo = min(max((off+s-1)/s, 0), outW)
	hi = min(max((g.InW+off+s-1)/s, lo), outW)
	return lo, hi
}

// Col2Im is the adjoint of Im2Col: it scatters (accumulates) a column
// matrix back into an image gradient. img must be zeroed by the caller if
// fresh accumulation is desired. Every pixel receives its terms in the
// same order whatever the stride; with stride 1 each output row's valid
// run is added to the input row in one pass.
func Col2Im(img, col []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	colIdx := 0
	for c := 0; c < g.InC; c++ {
		plane := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				lo, hi := g.validCols(kw, outW)
				for oy := 0; oy < outH; oy++ {
					src := col[colIdx : colIdx+outW]
					colIdx += outW
					iy := oy*g.StrideH - g.PadH + kh
					if iy < 0 || iy >= g.InH {
						continue
					}
					dst := plane[iy*g.InW : (iy+1)*g.InW]
					if g.StrideW == 1 && lo < hi {
						d := dst[lo-g.PadW+kw:]
						s := src[lo:hi]
						d = d[:len(s)]
						for x := 0; x < len(s); x++ {
							d[x] += s[x]
						}
						continue
					}
					for ox := lo; ox < hi; ox++ {
						dst[ox*g.StrideW-g.PadW+kw] += src[ox]
					}
				}
			}
		}
	}
}

// ConvDirect computes a 2-D convolution of one image without the im2col
// lowering. It exists as the ablation baseline for
// BenchmarkConvAlgorithms; the layer implementations use the GEMM path.
//
// weights is outC×(inC*KH*KW) row-major, out is outC×OutH×OutW flat.
func ConvDirect(out, img, weights, bias []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	kVol := g.InC * g.KH * g.KW
	for oc := 0; oc < g.OutC; oc++ {
		w := weights[oc*kVol : (oc+1)*kVol]
		b := 0.0
		if bias != nil {
			b = bias[oc]
		}
		for oy := 0; oy < outH; oy++ {
			for ox := 0; ox < outW; ox++ {
				s := b
				wi := 0
				for c := 0; c < g.InC; c++ {
					plane := img[c*g.InH*g.InW : (c+1)*g.InH*g.InW]
					for kh := 0; kh < g.KH; kh++ {
						iy := oy*g.StrideH - g.PadH + kh
						for kw := 0; kw < g.KW; kw++ {
							ix := ox*g.StrideW - g.PadW + kw
							if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
								s += w[wi] * plane[iy*g.InW+ix]
							}
							wi++
						}
					}
				}
				out[(oc*outH+oy)*outW+ox] = s
			}
		}
	}
}
