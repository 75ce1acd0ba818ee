package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// TestQuantConvMatchesLoweredGemm: QuantConv2D's outputs must equal, bit
// for bit, the lowering and int8 GEMM over C·KH·KW run on their own
// followed by the same dequantization, for reduction lengths below,
// between and on the vector kernels' block multiples (the GEMM reads
// every k tail itself, so the layer spreads no rows), at batch 1 and
// with concurrent sample chunks.
func TestQuantConvMatchesLoweredGemm(t *testing.T) {
	cfgs := []Conv2DConfig{
		{Name: "k25", InC: 1, InH: 9, InW: 9, OutC: 5, Kernel: 5, Stride: 1, Pad: 2},
		{Name: "k27", InC: 3, InH: 7, InW: 8, OutC: 4, Kernel: 3, Stride: 2, Pad: 1},
		{Name: "k16", InC: 16, InH: 5, InW: 5, OutC: 3, Kernel: 1, Stride: 1, Pad: 0},
		{Name: "k50", InC: 2, InH: 6, InW: 6, OutC: 6, Kernel: 5, Stride: 1, Pad: 0},
	}
	for ci, cfg := range cfgs {
		c, err := NewConv2D(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rng := tensor.NewRNG(uint64(60 + ci))
		rng.FillNormal(c.weight.Value, 0, 0.5)
		rng.FillNormal(c.bias.Value, 0, 0.5)
		q := newQuantConv2D(c)
		g := c.geom
		kVol, plane := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
		imgLen, outLen := g.InC*g.InH*g.InW, g.OutC*plane
		w := c.weight.Value.Data()
		wp := tensor.ChooseQuantParams(w)
		wq := make([]int8, len(w))
		tensor.QuantizeInt8(wq, w, wp)
		for _, n := range []int{1, 3} {
			x := tensor.New(n, g.InC, g.InH, g.InW)
			rng.FillNormal(x, 0, 1)
			got, err := q.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			xp := tensor.ChooseQuantParams(x.Data())
			xq := make([]int8, x.Len())
			tensor.QuantizeInt8(xq, x.Data(), xp)
			rows, acc := make([]int8, plane*kVol), make([]int32, outLen)
			s := xp.Scale * wp.Scale
			for i := 0; i < n; i++ {
				tensor.Im2RowInt8(rows, xq[i*imgLen:(i+1)*imgLen], g)
				tensor.GemmInt8TransB(acc, wq, rows, g.OutC, kVol, plane)
				for oc := 0; oc < g.OutC; oc++ {
					for j := 0; j < plane; j++ {
						want := s*float64(acc[oc*plane+j]) + c.bias.Value.Data()[oc]
						if v := got.Data()[i*outLen+oc*plane+j]; math.Float64bits(v) != math.Float64bits(want) {
							t.Fatalf("%s batch %d: out[%d][%d][%d] = %v, unpadded %v", cfg.Name, n, i, oc, j, v, want)
						}
					}
				}
			}
		}
	}
}
