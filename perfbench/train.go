package main

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/data"
	"repro/internal/device"
	"repro/internal/engine"
	"repro/internal/framework"
	"repro/internal/nn"
	"repro/internal/optim"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// train-cifar: the three CIFAR-10 baseline cells, each under its own
// Table III defaults (TF batch 128, SGD with weight decay and LR decay;
// Caffe batch 100, momentum, raw ±128 inputs; Torch batch 1, plain SGD),
// stepping interleaved in a fixed order. The int8 column is the quantized
// validation of the TF model in training: freeze its current weights and
// predict one held-out batch.

// Per-round repetitions. The TF step is the longest operation; the
// shorter ones repeat so each column collects enough samples for a
// steady mean: Torch's batch-1 step is ~100× shorter than TF's.
var trainReps = map[string]int{colTF: 1, colInt8: 3, colCaffe: 2, colTorch: 16}

// valBatch is the int8 validation batch: small enough that freezing and
// validating stays a minor share of a round next to the TF step.
const valBatch = 10

type trainCol struct {
	name    string
	net     *nn.Network
	exec    engine.Executor
	opt     optim.Optimizer
	batches *data.Batches
	prep    framework.Preprocessing
	params  []*nn.Param
	iter    int
	losses  []float64
	probe   *layerProbe
	// probeX/probeY is one preprocessed batch the layer probe reuses.
	probeX *tensor.Tensor
	probeY []int
	batch  int
	flops  int64 // conv forward FLOPs per sample
	disp   int   // executor train dispatches per step
}

type trainBench struct {
	cols       []*trainCol
	tf         *trainCol
	valX       *tensor.Tensor
	int8Builds int
	warmLosses string
}

func newTrainBench(ctx context.Context, opt options, tr *tracer) (bench, error) {
	nTrain, nTest := 256, 128
	if opt.tiny {
		nTrain, nTest = 128, 100
	}
	sp := tr.begin("data.synth_s")
	trainSet, testSet, err := data.SynthCIFAR10(data.SynthConfig{
		Train: nTrain, Test: nTest, Seed: opt.seed, Difficulty: 1.25,
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	in, err := framework.InputFor(framework.CIFAR10)
	if err != nil {
		return nil, err
	}
	b := &trainBench{}
	rng := tensor.NewRNG(opt.seed ^ 0xc1fa)
	// The probes draw from their own stream, so tracing changes neither
	// the trained models nor the batch order.
	probeRNG := tensor.NewRNG(opt.seed ^ 0x9b0be)
	for _, name := range floatCols {
		fw := frameworkOf[name]
		d, err := framework.Defaults(fw, framework.CIFAR10)
		if err != nil {
			return nil, err
		}
		batch := d.BatchSize
		if opt.tiny && batch > 16 {
			batch = 16
		}
		build := func(rng *tensor.RNG) (*nn.Network, error) {
			sp := tr.begin("framework.build_ms")
			defer tr.end(sp)
			net, err := framework.BuildNetwork(fw, framework.CIFAR10, in, framework.NetworkOptions{
				Device: device.GPU, RNG: rng.Split(),
			})
			if err != nil {
				return nil, err
			}
			return net, nn.InitNetwork(net, d.Init, rng.Split())
		}
		net, err := build(rng)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		sp := tr.begin("engine.build_ms." + name)
		exec, err := framework.NewExecutor(fw, net, batch)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		o, err := d.NewOptimizer(net.Params(), d.MaxIters)
		if err != nil {
			return nil, err
		}
		batches, err := data.NewBatches(trainSet, batch, rng.Split())
		if err != nil {
			return nil, err
		}
		c := &trainCol{
			name: name, net: net, exec: exec, opt: o, batches: batches,
			prep: framework.PreprocessingFor(fw, framework.CIFAR10), params: net.Params(),
			batch: batch, flops: convFLOPs(net), disp: exec.Stats().TrainDispatches,
		}
		if tr != nil {
			// The probe gets its own copy of the architecture, so timing
			// layers one by one never touches the trained model's weights,
			// caches or dropout stream.
			pnet, err := build(probeRNG)
			if err != nil {
				return nil, err
			}
			c.probe = newLayerProbe(name, pnet)
			idx := make([]int, batch)
			for i := range idx {
				idx[i] = i % trainSet.Len()
			}
			if c.probeX, c.probeY, err = trainSet.Slice(idx); err != nil {
				return nil, err
			}
			framework.ApplyPreprocessing(c.prep, c.probeX)
		}
		b.cols = append(b.cols, c)
		if name == colTF {
			b.tf = c
		}
	}
	idx := make([]int, min(valBatch, testSet.Len()))
	for i := range idx {
		idx[i] = i
	}
	if b.valX, _, err = testSet.Slice(idx); err != nil {
		return nil, err
	}
	framework.ApplyPreprocessing(framework.PreprocessingFor(framework.TensorFlow, framework.CIFAR10), b.valX)

	// Warm-up: one untimed round. Its losses fingerprint the set-up.
	var fp []string
	for _, col := range b.columns() {
		for r := 0; r < col.reps; r++ {
			if err := col.op(ctx, nil); err != nil {
				return nil, fmt.Errorf("warm-up %s: %w", col.name, err)
			}
		}
	}
	for _, c := range b.cols {
		fp = append(fp, fmt.Sprintf("%s:%x", c.name, lossBits(c.losses)))
	}
	b.warmLosses = strings.Join(fp, ",")
	return b, nil
}

// lossBits folds a loss sequence's exact bit patterns into one word.
func lossBits(ls []float64) uint64 {
	h := uint64(1469598103934665603)
	for _, l := range ls {
		h ^= math.Float64bits(l)
		h *= 1099511628211
	}
	return h
}

func (b *trainBench) columns() []column {
	var cols []column
	for _, c := range b.cols {
		cols = append(cols, column{name: c.name, reps: trainReps[c.name], op: c.step, probe: c.layers})
		if c.name == colTF {
			cols = append(cols, column{name: colInt8, reps: trainReps[colInt8], op: b.validateInt8})
		}
	}
	return cols
}

// step is one training step: Batches.Next, preprocessing, TrainBatch,
// the loss and gradient checks, and Optimizer.Step.
func (c *trainCol) step(ctx context.Context, tr *tracer) error {
	sp := tr.begin("data.next_ms." + c.name)
	x, labels, err := c.batches.Next()
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("framework.prep_ms." + c.name)
	framework.ApplyPreprocessing(c.prep, x)
	tr.end(sp)
	sp = tr.begin("engine.step_ms." + c.name)
	res, err := c.exec.TrainBatch(ctx, x, labels)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("resilience.check_ms." + c.name)
	err = resilience.CheckLoss(c.iter, res.Loss)
	if err == nil {
		err = resilience.CheckGrads(c.iter, c.params)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("optim.step_ms." + c.name)
	err = c.opt.Step()
	tr.end(sp)
	if err != nil {
		return err
	}
	c.iter++
	c.losses = append(c.losses, res.Loss)
	return nil
}

// layers is the traced-only probe: every layer's Forward and Backward on
// the column's batch, on the probe's copy of the network.
func (c *trainCol) layers(_ context.Context, tr *tracer) error {
	return c.probe.train(tr, c.probeX, c.probeY)
}

// validateInt8 freezes the TF column's current weights into the int8
// executor and predicts the held-out validation batch.
func (b *trainBench) validateInt8(ctx context.Context, tr *tracer) error {
	sp := tr.begin("train.int8_freeze_ms")
	exec, err := framework.NewExecutor(framework.Int8, b.tf.net, valBatch)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("train.int8_predict_ms")
	preds, err := exec.Predict(ctx, b.valX)
	tr.end(sp)
	if err != nil {
		return err
	}
	if len(preds) != b.valX.Dim(0) {
		return fmt.Errorf("int8 validation returned %d predictions for %d inputs", len(preds), b.valX.Dim(0))
	}
	for _, p := range preds {
		if p < 0 || p >= 10 {
			return fmt.Errorf("int8 validation predicted class %d", p)
		}
	}
	b.int8Builds++
	return nil
}

func (b *trainBench) fingerprint() string { return b.warmLosses }

func (b *trainBench) check(chk *checks) {
	for _, c := range b.cols {
		finite := true
		for _, l := range c.losses {
			if math.IsNaN(l) || math.IsInf(l, 0) {
				finite = false
			}
		}
		chk.expect(finite, "%s: every training loss is finite", c.name)
		chk.expect(c.iter > 0, "%s: trained at least one step", c.name)
	}
	chk.expect(b.int8Builds > 0, "int8: validated at least once")
}

func (b *trainBench) layerMetrics(m map[string]float64) {
	for _, c := range b.cols {
		n := c.name
		m["engine.train_dispatches."+n] = float64(c.disp)
		fwdBwd := sumKinds(m, "nn.fwd_ms.", n) + sumKinds(m, "nn.bwd_ms.", n)
		if _, ok := m["engine.step_ms."+n]; ok && c.probe != nil {
			m["engine.overhead_ms."+n] = m["engine.step_ms."+n] - fwdBwd
		}
		convMS := m["nn.fwd_ms.conv."+n] + m["nn.bwd_ms.conv."+n]
		if convMS > 0 {
			m["nn.conv_gflops."+n] = float64(c.flops) * float64(c.batch) * 3 / (convMS / 1e3) / 1e9
		}
	}
}

func (b *trainBench) close() {
	for _, c := range b.cols {
		c.net.ReleaseBuffers()
	}
	b.cols = nil
	tensor.ArenaRelease()
}
