package tensor_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// TestLayersMatchReference: Conv2D and Dense, run through every
// micro-kernel the host supports, produce the forward output and the
// weight, bias and input gradients that the scalar GEMM reference gives
// when it replays the layers' lowering, sharding and accumulation order,
// bit for bit. With ReLU fused into the GEMM epilogue the forward output
// is the reference's followed by `v += b; if v < 0 { v = 0 }`.
func TestLayersMatchReference(t *testing.T) {
	convs := []nn.Conv2DConfig{
		{InC: 3, InH: 9, InW: 9, OutC: 6, Kernel: 3, Stride: 1, Pad: 1},  // odd n, 2 remainder rows, axpy dX
		{InC: 4, InH: 8, InW: 7, OutC: 20, Kernel: 5, Stride: 1, Pad: 2}, // tile dX, k%4 tails
		{InC: 2, InH: 11, InW: 10, OutC: 9, Kernel: 3, Stride: 2, Pad: 0},
	}
	for _, kern := range tensor.KernelsOnHost() {
		fma := kern != "portable"
		tensor.WithKernel(kern, func() {
			for _, fused := range []bool{false, true} {
				for ci, cfg := range convs {
					cfg.Name = "conv"
					checkConv(t, kern, ci, cfg, fma, fused)
				}
				checkDense(t, kern, 7, 37, 10, fma, fused)
				checkDense(t, kern, 20, 64, 33, fma, fused)
			}
		})
	}
}

func values(rng *tensor.RNG, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(7) > 0 {
			v[i] = rng.NormFloat64()
		}
	}
	return v
}

// addBias is the bias epilogue as the layers wrote it before the
// branch-free rewrite: v += b, then, with ReLU fused, v < 0 becomes +0.
func addBias(v, b float64, relu bool) float64 {
	v += b
	if relu && v < 0 {
		v = 0
	}
	return v
}

func equalBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: [%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

func checkConv(t *testing.T, kern string, ci int, cfg nn.Conv2DConfig, fma, fused bool) {
	layer, err := nn.NewConv2D(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fused {
		layer.SetFusedActivation(nn.ReLU)
	}
	g := layer.Geom()
	rng := tensor.NewRNG(uint64(40 + ci))
	const batch = 6
	kVol, plane := g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	imgLen, outLen := g.InC*g.InH*g.InW, g.OutC*plane
	w, bias := layer.Params()[0].Value.Data(), layer.Params()[1].Value.Data()
	copy(w, values(rng, len(w)))
	copy(bias, values(rng, len(bias)))
	x, err := tensor.From(values(rng, batch*imgLen), batch, g.InC, g.InH, g.InW)
	if err != nil {
		t.Fatal(err)
	}
	gradOut, err := tensor.From(values(rng, batch*outLen), batch, g.OutC, g.OutH(), g.OutW())
	if err != nil {
		t.Fatal(err)
	}
	out, err := layer.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	gotOut := append([]float64(nil), out.Data()...)
	gradIn, err := layer.Backward(gradOut)
	if err != nil {
		t.Fatal(err)
	}

	// Forward: per sample, weights · im2col columns, then the bias.
	wantOut := make([]float64, batch*outLen)
	col := make([]float64, kVol*plane)
	for i := 0; i < batch; i++ {
		tensor.Im2Col(col, x.Data()[i*imgLen:(i+1)*imgLen], g)
		o := wantOut[i*outLen : (i+1)*outLen]
		tensor.RefGemmWholeK(o, w, col, g.OutC, kVol, plane, false, fma)
		for oc := 0; oc < g.OutC; oc++ {
			for j := range o[oc*plane : (oc+1)*plane] {
				o[oc*plane+j] = addBias(o[oc*plane+j], bias[oc], fused)
			}
		}
	}
	// Backward: four fixed sample shards with their own dW and dB,
	// added to the (zero) gradients in shard order.
	wantDW, wantDB := make([]float64, len(w)), make([]float64, g.OutC)
	wantDX := make([]float64, batch*imgLen)
	chunk := (batch + 3) / 4
	for lo := 0; lo < batch; lo += chunk {
		dw, db := make([]float64, len(w)), make([]float64, g.OutC)
		for i := lo; i < min(lo+chunk, batch); i++ {
			gs := gradOut.Data()[i*outLen : (i+1)*outLen]
			tensor.Im2Col(col, x.Data()[i*imgLen:(i+1)*imgLen], g)
			tensor.RefGemmTransB(dw, gs, col, g.OutC, plane, kVol, true, fma)
			for oc := range db {
				sum := 0.0
				for _, v := range gs[oc*plane : (oc+1)*plane] {
					sum += v
				}
				db[oc] += sum
			}
			tensor.RefGemmTransA(col, w, gs, kVol, g.OutC, plane, fma)
			tensor.Col2Im(wantDX[i*imgLen:(i+1)*imgLen], col, g)
		}
		for j := range dw {
			wantDW[j] += dw[j]
		}
		for j := range db {
			wantDB[j] += db[j]
		}
	}
	name := fmt.Sprintf("%s %s %d fused=%v", kern, layer.Name(), ci, fused)
	equalBits(t, name+" forward", gotOut, wantOut)
	equalBits(t, name+" dW", layer.Params()[0].Grad.Data(), wantDW)
	equalBits(t, name+" dB", layer.Params()[1].Grad.Data(), wantDB)
	equalBits(t, name+" dX", gradIn.Data(), wantDX)
}

func checkDense(t *testing.T, kern string, batch, in, out int, fma, fused bool) {
	layer, err := nn.NewDense("fc", in, out)
	if err != nil {
		t.Fatal(err)
	}
	if fused {
		layer.SetFusedActivation(nn.ReLU)
	}
	rng := tensor.NewRNG(uint64(batch*in + out))
	w, bias := layer.Params()[0].Value.Data(), layer.Params()[1].Value.Data()
	copy(w, values(rng, len(w)))
	copy(bias, values(rng, len(bias)))
	x, err := tensor.From(values(rng, batch*in), batch, in)
	if err != nil {
		t.Fatal(err)
	}
	gradOut, err := tensor.From(values(rng, batch*out), batch, out)
	if err != nil {
		t.Fatal(err)
	}
	y, err := layer.Forward(x, true)
	if err != nil {
		t.Fatal(err)
	}
	gotY := append([]float64(nil), y.Data()...)
	gradIn, err := layer.Backward(gradOut)
	if err != nil {
		t.Fatal(err)
	}

	wantY := make([]float64, batch*out)
	tensor.RefGemmTransB(wantY, x.Data(), w, batch, in, out, false, fma)
	for i := 0; i < batch; i++ {
		for j := 0; j < out; j++ {
			wantY[i*out+j] = addBias(wantY[i*out+j], bias[j], fused)
		}
	}
	wantDW := make([]float64, len(w))
	tensor.RefGemmTransA(wantDW, gradOut.Data(), x.Data(), out, batch, in, fma)
	for j := range wantDW {
		wantDW[j] = 0 + wantDW[j] // added to the zero gradient
	}
	wantDB := make([]float64, out)
	for i := 0; i < batch; i++ {
		for j := range wantDB {
			wantDB[j] += gradOut.Data()[i*out+j]
		}
	}
	wantDX := make([]float64, batch*in)
	tensor.RefGemm(wantDX, gradOut.Data(), w, batch, out, in, false, fma)
	name := fmt.Sprintf("%s dense %dx%d fused=%v", kern, batch, in, fused)
	equalBits(t, name+" forward", gotY, wantY)
	equalBits(t, name+" dW", layer.Params()[0].Grad.Data(), wantDW)
	equalBits(t, name+" dB", layer.Params()[1].Grad.Data(), wantDB)
	equalBits(t, name+" dX", gradIn.Data(), wantDX)
}
