package engine

import (
	"context"
	"fmt"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// LayerwiseExecutor is the Caffe-style executor: layers run strictly
// sequentially over pre-sized blobs, with the solver's loss clamp enabled.
// It has the smallest per-iteration bookkeeping of the three executors.
type LayerwiseExecutor struct {
	net       *nn.Network
	batchHint int
	blobBytes int64

	// opNames are the per-op span names, one per layer, built once so
	// the dispatch loops allocate nothing.
	opNames []string

	// adopts[i], when non-nil, marks layer i as an in-place activation
	// (Caffe's top==bottom ReLU): the producing conv/dense layer applies
	// it inside its GEMM epilogue, and layer i's dispatch just adopts the
	// result. The layer is still dispatched, hooked and counted — Caffe
	// does not fuse dispatches, it fuses memory.
	adopts []*nn.Activation

	tr        *obs.Tracer
	dispTrain *obs.Counter
	dispInfer *obs.Counter
	hook      OpHook
}

var _ Executor = (*LayerwiseExecutor)(nil)

// NewLayerwise constructs a layerwise executor. batchHint sizes the blob
// (activation memory) model; it is the batch size the net will train
// with. The network's loss is clamped at Caffe's ln(FLT_MAX) bound. A nil
// tracer disables instrumentation at negligible cost.
func NewLayerwise(net *nn.Network, batchHint int, tr *obs.Tracer) (*LayerwiseExecutor, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	if batchHint <= 0 {
		batchHint = 1
	}
	e := &LayerwiseExecutor{
		net:       net,
		batchHint: batchHint,
		tr:        tr,
		dispTrain: tr.Counter(CounterTrainDispatch("layerwise")),
		dispInfer: tr.Counter(CounterInferDispatch("layerwise")),
	}
	net.SetLossClamp(nn.CaffeLossClamp)
	// Pre-size the blob arena: every layer's output activation (and its
	// gradient) for the hint batch, 8 bytes per float64.
	build := tr.Span("layerwise.build", CatEngine)
	defer build.End()
	cur := net.InShape()
	layers := net.Layers()
	bytes := int64(tensor.Volume(cur)) * int64(batchHint) * 8
	e.adopts = make([]*nn.Activation, len(layers))
	for i, l := range layers {
		next, err := l.OutShape(cur)
		if err != nil {
			return nil, fmt.Errorf("engine: layerwise blob sizing at %q: %w", l.Name(), err)
		}
		bytes += 2 * int64(tensor.Volume(next)) * int64(batchHint) * 8
		cur = next
		e.opNames = append(e.opNames, OpSpanName("layerwise", l.Name()))
		// Mark in-place activations: a ReLU directly after a conv/dense
		// layer runs inside that layer's GEMM epilogue (Caffe's
		// top==bottom in-place ReLU).
		if act, ok := l.(*nn.Activation); ok && i > 0 {
			if prev, ok := layers[i-1].(fusable); ok && prev.SetFusedActivation(act.Kind()) {
				e.adopts[i] = act
			}
		}
	}
	e.blobBytes = bytes
	return e, nil
}

// Name implements Executor.
func (e *LayerwiseExecutor) Name() string { return "layerwise" }

// Network implements Executor.
func (e *LayerwiseExecutor) Network() *nn.Network { return e.net }

// SetOpHook implements Executor.
func (e *LayerwiseExecutor) SetOpHook(h OpHook) { e.hook = h }

// forward walks the layer chain sequentially — the same computation
// nn.Network.Forward performs, unrolled so each blob-to-blob layer
// dispatch passes through the op hook.
func (e *LayerwiseExecutor) forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	cur := x
	for i, l := range e.net.Layers() {
		if e.hook != nil {
			if err := e.hook("layerwise.forward"); err != nil {
				return nil, fmt.Errorf("engine: layerwise forward dispatch: %w", err)
			}
		}
		sp := e.tr.OpSpan(e.opNames[i], CatOp)
		if a := e.adopts[i]; a != nil {
			// In-place activation: the previous layer already applied it
			// in its GEMM epilogue. The dispatch (hook, span, counter)
			// still happens; the kernel is a no-op adoption.
			a.AdoptFused(cur)
			sp.End()
			continue
		}
		next, err := l.Forward(cur, train)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("engine: layerwise forward %q: %w", l.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// backward walks the chain in reverse, mirroring nn.Network.TrainStep's
// backward: layer 0 reads the network input and skips its input gradient.
func (e *LayerwiseExecutor) backward(grad *tensor.Tensor) error {
	layers := e.net.Layers()
	cur := grad
	for i := len(layers) - 1; i >= 0; i-- {
		if e.hook != nil {
			if err := e.hook("layerwise.backward"); err != nil {
				return fmt.Errorf("engine: layerwise backward dispatch: %w", err)
			}
		}
		sp := e.tr.OpSpan(e.opNames[i], CatOp)
		prev, err := nn.Backprop(layers[i], cur, i > 0)
		sp.End()
		if err != nil {
			return fmt.Errorf("engine: layerwise backward %q: %w", layers[i].Name(), err)
		}
		cur = prev
	}
	return nil
}

// TrainBatch implements Executor. The phases are the same
// forward/loss/backward sequence nn.Network.TrainStep runs, unrolled here
// so each phase is spanned and its layer dispatches counted.
func (e *LayerwiseExecutor) TrainBatch(ctx context.Context, x *tensor.Tensor, labels []int) (res nn.LossResult, err error) {
	defer recoverPanic("layerwise", &err)
	if err := ctxErr(ctx); err != nil {
		return nn.LossResult{}, err
	}
	n := int64(len(e.net.Layers()))
	fwd := e.tr.Span("layerwise.forward", CatEngine)
	logits, err := e.forward(x, true)
	fwd.End()
	if err != nil {
		return nn.LossResult{}, err
	}
	e.dispTrain.Add(n)
	res, err = e.net.Loss(logits, labels)
	if err != nil {
		return nn.LossResult{}, err
	}
	if err := ctxErr(ctx); err != nil {
		return nn.LossResult{}, err
	}
	bwd := e.tr.Span("layerwise.backward", CatEngine)
	err = e.backward(res.Grad)
	bwd.End()
	if err != nil {
		return nn.LossResult{}, err
	}
	// One dispatch per layer backward plus the solver-step dispatch.
	e.dispTrain.Add(n + 1)
	return res, nil
}

// Logits implements Executor.
func (e *LayerwiseExecutor) Logits(ctx context.Context, x *tensor.Tensor) (out *tensor.Tensor, err error) {
	defer recoverPanic("layerwise", &err)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	out, err = e.forward(x, false)
	if err != nil {
		return nil, err
	}
	e.dispInfer.Add(int64(len(e.net.Layers())))
	return out, nil
}

// Predict implements Executor.
func (e *LayerwiseExecutor) Predict(ctx context.Context, x *tensor.Tensor) ([]int, error) {
	return predict(ctx, e, e.tr, "layerwise.predict", x)
}

// Stats implements Executor.
func (e *LayerwiseExecutor) Stats() Stats {
	n := len(e.net.Layers())
	return Stats{
		// One dispatch per layer forward, one per layer backward, one
		// solver step. No fusion, but also no per-op framework wrapper.
		TrainDispatches: 2*n + 1,
		InferDispatches: n,
		// Caffe starts fast: prototxt parse + blob allocation only.
		StartupUnits: 1,
		BlobBytes:    e.blobBytes,
	}
}
