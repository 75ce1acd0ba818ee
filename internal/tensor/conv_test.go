package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConvGeomOutput(t *testing.T) {
	tests := []struct {
		name           string
		g              ConvGeom
		wantH, wantW   int
		wantValidateOK bool
	}{
		{
			name:           "mnist conv1 same-pad",
			g:              ConvGeom{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, OutC: 32},
			wantH:          28,
			wantW:          28,
			wantValidateOK: true,
		},
		{
			name:           "valid conv no pad",
			g:              ConvGeom{InC: 1, InH: 28, InW: 28, KH: 5, KW: 5, StrideH: 1, StrideW: 1, OutC: 20},
			wantH:          24,
			wantW:          24,
			wantValidateOK: true,
		},
		{
			name:           "pool stride 2",
			g:              ConvGeom{InC: 32, InH: 28, InW: 28, KH: 2, KW: 2, StrideH: 2, StrideW: 2, OutC: 32},
			wantH:          14,
			wantW:          14,
			wantValidateOK: true,
		},
		{
			name:           "kernel larger than input",
			g:              ConvGeom{InC: 1, InH: 3, InW: 3, KH: 5, KW: 5, StrideH: 1, StrideW: 1, OutC: 1},
			wantH:          -1,
			wantW:          -1,
			wantValidateOK: false,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.g.OutH(); got != tt.wantH {
				t.Errorf("OutH = %d, want %d", got, tt.wantH)
			}
			if got := tt.g.OutW(); got != tt.wantW {
				t.Errorf("OutW = %d, want %d", got, tt.wantW)
			}
			if err := tt.g.Validate(); (err == nil) != tt.wantValidateOK {
				t.Errorf("Validate err = %v, want ok=%v", err, tt.wantValidateOK)
			}
		})
	}
}

// convViaIm2Col runs the GEMM convolution path for a single image.
func convViaIm2Col(img, weights, bias []float64, g ConvGeom) []float64 {
	outH, outW := g.OutH(), g.OutW()
	kVol := g.InC * g.KH * g.KW
	col := make([]float64, kVol*outH*outW)
	Im2Col(col, img, g)
	out := make([]float64, g.OutC*outH*outW)
	Gemm(out, weights, col, g.OutC, kVol, outH*outW, false)
	if bias != nil {
		for oc := 0; oc < g.OutC; oc++ {
			for i := 0; i < outH*outW; i++ {
				out[oc*outH*outW+i] += bias[oc]
			}
		}
	}
	return out
}

func TestIm2ColConvMatchesDirect(t *testing.T) {
	rng := NewRNG(2026)
	geoms := []ConvGeom{
		{InC: 1, InH: 8, InW: 8, KH: 3, KW: 3, StrideH: 1, StrideW: 1, OutC: 4},
		{InC: 3, InH: 10, InW: 10, KH: 5, KW: 5, StrideH: 1, StrideW: 1, PadH: 2, PadW: 2, OutC: 6},
		{InC: 2, InH: 9, InW: 7, KH: 3, KW: 2, StrideH: 2, StrideW: 2, PadH: 1, PadW: 0, OutC: 5},
	}
	for gi, g := range geoms {
		img := make([]float64, g.InC*g.InH*g.InW)
		kVol := g.InC * g.KH * g.KW
		weights := make([]float64, g.OutC*kVol)
		bias := make([]float64, g.OutC)
		for i := range img {
			img[i] = rng.NormFloat64()
		}
		for i := range weights {
			weights[i] = rng.NormFloat64()
		}
		for i := range bias {
			bias[i] = rng.NormFloat64()
		}
		direct := make([]float64, g.OutC*g.OutH()*g.OutW())
		ConvDirect(direct, img, weights, bias, g)
		gemm := convViaIm2Col(img, weights, bias, g)
		for i := range direct {
			if math.Abs(direct[i]-gemm[i]) > 1e-9 {
				t.Fatalf("geom %d: direct[%d]=%v gemm=%v", gi, i, direct[i], gemm[i])
			}
		}
	}
}

// TestCol2ImAdjoint verifies the adjoint property <im2col(x), y> ==
// <x, col2im(y)> which is exactly what makes the convolution backward pass
// correct.
func TestCol2ImAdjoint(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 4 + rng.Intn(6), InW: 4 + rng.Intn(6),
			KH: 1 + rng.Intn(3), KW: 1 + rng.Intn(3),
			StrideH: 1 + rng.Intn(2), StrideW: 1 + rng.Intn(2),
			PadH: rng.Intn(2), PadW: rng.Intn(2),
			OutC: 1,
		}
		if g.Validate() != nil {
			return true // skip degenerate geometry
		}
		imgLen := g.InC * g.InH * g.InW
		colLen := g.InC * g.KH * g.KW * g.OutH() * g.OutW()
		x := make([]float64, imgLen)
		y := make([]float64, colLen)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		for i := range y {
			y[i] = rng.NormFloat64()
		}
		colX := make([]float64, colLen)
		Im2Col(colX, x, g)
		lhs := 0.0
		for i := range y {
			lhs += colX[i] * y[i]
		}
		imY := make([]float64, imgLen)
		Col2Im(imY, y, g)
		rhs := 0.0
		for i := range x {
			rhs += x[i] * imY[i]
		}
		return math.Abs(lhs-rhs) < 1e-8*(1+math.Abs(lhs))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestIm2ColPaddingZeros(t *testing.T) {
	// A 1x1 image with a 3x3 kernel and pad 1: the column matrix holds the
	// pixel in the center position and zeros elsewhere.
	g := ConvGeom{InC: 1, InH: 1, InW: 1, KH: 3, KW: 3, StrideH: 1, StrideW: 1, PadH: 1, PadW: 1, OutC: 1}
	col := make([]float64, 9)
	Im2Col(col, []float64{5}, g)
	for i, v := range col {
		want := 0.0
		if i == 4 { // center of the 3x3 kernel window
			want = 5
		}
		if v != want {
			t.Fatalf("col[%d] = %v, want %v", i, v, want)
		}
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(123), NewRNG(123)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give the same stream")
		}
	}
	c := NewRNG(124)
	same := 0
	a2 := NewRNG(123)
	for i := 0; i < 100; i++ {
		if a2.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds gave %d/100 identical draws", same)
	}
}

func TestRNGUniformRange(t *testing.T) {
	rng := NewRNG(5)
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		v := rng.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("uniform mean = %v, want ≈0.5", mean)
	}
}

func TestRNGNormalMoments(t *testing.T) {
	rng := NewRNG(6)
	const n = 40000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := rng.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.03 {
		t.Fatalf("normal mean = %v, want ≈0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Fatalf("normal variance = %v, want ≈1", variance)
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	rng := NewRNG(9)
	p := rng.Perm(50)
	seen := make(map[int]bool, 50)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("Perm produced invalid/duplicate element %d", v)
		}
		seen[v] = true
	}
}

// Element-at-a-time lowerings: the definitions Im2Col, Im2RowInt8 and
// Col2Im must reproduce exactly.
func naiveIm2Col(col, img []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	i := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy, ix := oy*g.StrideH-g.PadH+kh, ox*g.StrideW-g.PadW+kw
						col[i] = 0
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							col[i] = img[(c*g.InH+iy)*g.InW+ix]
						}
						i++
					}
				}
			}
		}
	}
}

func naiveIm2Row(row, img []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	kVol := g.InC * g.KH * g.KW
	col := make([]float64, kVol*outH*outW)
	naiveIm2Col(col, img, g)
	for p := 0; p < kVol; p++ {
		for j := 0; j < outH*outW; j++ {
			row[j*kVol+p] = col[p*outH*outW+j]
		}
	}
}

func naiveCol2Im(img, col []float64, g ConvGeom) {
	outH, outW := g.OutH(), g.OutW()
	i := 0
	for c := 0; c < g.InC; c++ {
		for kh := 0; kh < g.KH; kh++ {
			for kw := 0; kw < g.KW; kw++ {
				for oy := 0; oy < outH; oy++ {
					for ox := 0; ox < outW; ox++ {
						iy, ix := oy*g.StrideH-g.PadH+kh, ox*g.StrideW-g.PadW+kw
						if iy >= 0 && iy < g.InH && ix >= 0 && ix < g.InW {
							img[(c*g.InH+iy)*g.InW+ix] += col[i]
						}
						i++
					}
				}
			}
		}
	}
}

// TestLoweringRunsMatchElementwise: Im2Col's and Col2Im's contiguous-run
// fast paths and Im2RowInt8's row-at-a-time order produce the
// element-at-a-time results exactly, over strides, paddings (including
// padding wider than the kernel reach) and kernels wider than the image.
func TestLoweringRunsMatchElementwise(t *testing.T) {
	rng := NewRNG(21)
	for trial := 0; trial < 300; trial++ {
		g := ConvGeom{
			InC: 1 + rng.Intn(3), InH: 1 + rng.Intn(9), InW: 1 + rng.Intn(9),
			KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(4), PadW: rng.Intn(4),
		}
		if trial%2 == 0 {
			g.StrideH, g.StrideW = 1, 1
		}
		if g.Validate() != nil {
			continue
		}
		img := diffValues(rng, g.InC*g.InH*g.InW)
		n := g.InC * g.KH * g.KW * g.OutH() * g.OutW()
		got, want := diffValues(rng, n), make([]float64, n)
		Im2Col(got, img, g)
		naiveIm2Col(want, img, g)
		sameBits(t, "Im2Col", g, got, want)
		img8 := make([]int8, len(img))
		for i := range img8 {
			img8[i] = int8(rng.Intn(255) - 127)
			img[i] = float64(img8[i])
		}
		got8 := make([]int8, n)
		Im2RowInt8(got8, img8, g)
		naiveIm2Row(want, img, g)
		for i, v := range got8 {
			if float64(v) != want[i] {
				t.Fatalf("Im2RowInt8 %+v: [%d] = %d, want %v", g, i, v, want[i])
			}
		}
		col := diffValues(rng, n)
		base := diffValues(rng, len(img))
		gotImg, wantImg := append([]float64(nil), base...), append([]float64(nil), base...)
		Col2Im(gotImg, col, g)
		naiveCol2Im(wantImg, col, g)
		sameBits(t, "Col2Im", g, gotImg, wantImg)
	}
}

func sameBits(t *testing.T, what string, g ConvGeom, got, want []float64) {
	t.Helper()
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s %+v: [%d] = %v, want %v", what, g, i, got[i], want[i])
		}
	}
}
