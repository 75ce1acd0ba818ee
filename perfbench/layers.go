package main

import (
	"fmt"
	"time"

	"repro/internal/framework"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// frameworkOf maps a column to its framework id.
var frameworkOf = map[string]framework.ID{
	colTF:    framework.TensorFlow,
	colCaffe: framework.Caffe,
	colTorch: framework.Torch,
	colInt8:  framework.Int8,
}

// kindOf classifies a layer for the nn.*.{conv,dense,pool,other} sums.
func kindOf(l nn.Layer) string {
	switch l.(type) {
	case *nn.Conv2D:
		return "conv"
	case *nn.Dense:
		return "dense"
	case *nn.Pool2D:
		return "pool"
	default:
		return "other"
	}
}

// int8KindOf classifies a quantized stage by the float layer it was
// frozen from; pooling folds into "other" on the int8 column.
func int8KindOf(net *nn.Network) map[string]string {
	m := make(map[string]string)
	for _, l := range net.Layers() {
		k := kindOf(l)
		if k == "pool" {
			k = "other"
		}
		m[l.Name()] = k
	}
	return m
}

// layerProbe times a network's layers one by one, outside any executor:
// the layer-level counterpart of the column's timed operation.
type layerProbe struct {
	net    *nn.Network
	layers []nn.Layer
	keys   []string // per-layer span key suffix: "<kind>.<col>"
}

func newLayerProbe(col string, net *nn.Network) *layerProbe {
	p := &layerProbe{net: net, layers: net.Layers()}
	for _, l := range p.layers {
		p.keys = append(p.keys, kindOf(l)+"."+col)
	}
	return p
}

// train runs Forward (training mode) and Backward through every layer on
// x, one span per layer call under nn.fwd_ms / nn.bwd_ms, then clears the
// accumulated gradients.
func (p *layerProbe) train(tr *tracer, x *tensor.Tensor, labels []int) error {
	cur := x
	for i, l := range p.layers {
		sp := tr.begin("nn.fwd_ms." + p.keys[i])
		next, err := l.Forward(cur, true)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe forward %s: %w", l.Name(), err)
		}
		cur = next
	}
	res, err := p.net.Loss(cur, labels)
	if err != nil {
		return err
	}
	grad := res.Grad
	for i := len(p.layers) - 1; i >= 0; i-- {
		sp := tr.begin("nn.bwd_ms." + p.keys[i])
		prev, err := p.layers[i].Backward(grad)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe backward %s: %w", p.layers[i].Name(), err)
		}
		grad = prev
	}
	p.net.ZeroGrads()
	return nil
}

// infer runs inference-mode Forward through every layer, one span per
// layer under nn.fwd_us.
func (p *layerProbe) infer(tr *tracer, x *tensor.Tensor) error {
	cur := x
	for i, l := range p.layers {
		sp := tr.begin("nn.fwd_us." + p.keys[i])
		next, err := l.Forward(cur, false)
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("probe forward %s: %w", l.Name(), err)
		}
		cur = next
	}
	return nil
}

// convFLOPs is the forward FLOP count of one sample through the net's
// convolutions.
func convFLOPs(net *nn.Network) int64 {
	cur := net.InShape()
	var total int64
	for _, l := range net.Layers() {
		if kindOf(l) == "conv" {
			total += l.FLOPsPerSample(cur)
		}
		next, err := l.OutShape(cur)
		if err != nil {
			return total
		}
		cur = next
	}
	return total
}

// sumKinds adds the per-kind medians of a metric family, e.g. the
// nn.fwd_us.{conv,dense,pool,other}.<col> entries of m.
func sumKinds(m map[string]float64, prefix, col string) float64 {
	var s float64
	for _, k := range kinds {
		s += m[prefix+k+"."+col]
	}
	return s
}

// gemmCeilings times the GEMM entry points at the layer shapes the
// workloads run and records them in the owning workloads' metrics:
// tensor.gemm_gflops (train-cifar) is tensor.GemmTransB, the conv
// forward's GEMM, at the lowered shape of TF CIFAR-10's most expensive
// convolution; tensor.gemm_b1_gflops and tensor.int8_gemm_gops
// (infer-b1) are GemmTransB and GemmInt8TransB at the batch-1 shape of
// TF MNIST's fc1.
func gemmCeilings(train, infer map[string]float64) error {
	in, err := framework.InputFor(framework.CIFAR10)
	if err != nil {
		return err
	}
	cifar, err := framework.BuildNetwork(framework.TensorFlow, framework.CIFAR10, in, framework.NetworkOptions{})
	if err != nil {
		return err
	}
	var conv *nn.Conv2D
	var best int64
	cur := cifar.InShape()
	for _, l := range cifar.Layers() {
		if c, ok := l.(*nn.Conv2D); ok {
			if f := c.FLOPsPerSample(cur); f > best {
				conv, best = c, f
			}
		}
		if cur, err = l.OutShape(cur); err != nil {
			return err
		}
	}
	if conv == nil {
		return fmt.Errorf("TF CIFAR-10 net has no convolution")
	}
	g := conv.Geom()
	m, k, n := g.OutC, g.InC*g.KH*g.KW, g.OutH()*g.OutW()
	a, b, c := fill(m*k), fill(n*k), make([]float64, m*n)
	train["tensor.gemm_gflops"] = rate(2*m*k*n, func() { tensor.GemmTransB(c, a, b, m, k, n, false, nil) })

	mnistIn, err := framework.InputFor(framework.MNIST)
	if err != nil {
		return err
	}
	mnist, err := framework.BuildNetwork(framework.TensorFlow, framework.MNIST, mnistIn, framework.NetworkOptions{})
	if err != nil {
		return err
	}
	var fc *nn.Dense
	for _, l := range mnist.Layers() {
		if d, ok := l.(*nn.Dense); ok && fc == nil {
			fc = d
		}
	}
	if fc == nil {
		return fmt.Errorf("TF MNIST net has no dense layer")
	}
	shape := fc.Params()[0].Value.Shape() // [out, in]
	n, k = shape[0], shape[1]
	x, w, y := fill(k), fill(n*k), make([]float64, n)
	infer["tensor.gemm_b1_gflops"] = rate(2*k*n, func() { tensor.GemmTransB(y, x, w, 1, k, n, false, nil) })
	xq, wq, yq := make([]int8, k), make([]int8, n*k), make([]int32, n)
	for i := range wq {
		wq[i] = int8(i%255 - 127)
	}
	for i := range xq {
		xq[i] = int8(i%127 - 63)
	}
	infer["tensor.int8_gemm_gops"] = rate(2*k*n, func() { tensor.GemmInt8TransB(yq, xq, wq, 1, k, n) })
	return nil
}

// fill returns n deterministic values in [-1, 1).
func fill(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i%97)/48.5 - 1
	}
	return out
}

// rate times f repeatedly for about 300ms after a warm-up call and
// returns ops/1e9 over the median call time.
func rate(ops int, f func()) float64 {
	f()
	var ts []float64
	deadline := time.Now().Add(300 * time.Millisecond)
	for len(ts) < 5 || time.Now().Before(deadline) {
		start := time.Now()
		f()
		ts = append(ts, time.Since(start).Seconds())
	}
	return float64(ops) / median(ts) / 1e9
}

// predictCheck remembers each request's first answer, so a repeated
// request that gets a different answer is caught.
type predictCheck struct {
	first    map[int][]int
	mismatch int
}

func (p *predictCheck) observe(req int, preds []int) {
	if p.first == nil {
		p.first = make(map[int][]int)
	}
	prev, ok := p.first[req]
	if !ok {
		p.first[req] = append([]int(nil), preds...)
		return
	}
	for i := range prev {
		if i >= len(preds) || preds[i] != prev[i] {
			p.mismatch++
			return
		}
	}
}
