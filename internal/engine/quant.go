package engine

import (
	"context"
	"errors"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrInferenceOnly is returned when a training entry point is invoked on
// the int8 executor, which freezes weights at construction time.
var ErrInferenceOnly = errors.New("engine: int8 executor is inference-only")

// QuantExecutor is the int8 inference column: it freezes a trained float
// network into its quantized form (nn.Quantize) at construction and
// serves Logits/Predict through the int8 GEMM path. TrainBatch always
// fails with ErrInferenceOnly — quantized weights are snapshots with no
// backward pass, mirroring how deployment runtimes separate training
// from serving.
type QuantExecutor struct {
	net  *nn.Network
	qnet *nn.QuantizedNetwork
	// opNames are the per-stage op span names, built once so the
	// dispatch loop allocates nothing. Quantize maps layer i of net to
	// stage i under the same name.
	opNames []string

	tr        *obs.Tracer
	dispInfer *obs.Counter
	hook      OpHook
}

var _ Executor = (*QuantExecutor)(nil)

// NewQuant freezes net into an int8 inference executor. A nil tracer
// disables instrumentation at negligible cost.
func NewQuant(net *nn.Network, tr *obs.Tracer) (*QuantExecutor, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	sp := tr.Span("int8.freeze", CatEngine)
	qnet, err := nn.Quantize(net)
	sp.End()
	if err != nil {
		return nil, err
	}
	q := &QuantExecutor{
		net:       net,
		qnet:      qnet,
		tr:        tr,
		dispInfer: tr.Counter(CounterInferDispatch("int8")),
	}
	for _, l := range net.Layers() {
		q.opNames = append(q.opNames, OpSpanName("int8", l.Name()))
	}
	return q, nil
}

// Network implements Executor: the source float network the quantized
// weights were frozen from.
func (q *QuantExecutor) Network() *nn.Network { return q.net }

// Quantized returns the frozen int8 network.
func (q *QuantExecutor) Quantized() *nn.QuantizedNetwork { return q.qnet }

// SetOpHook implements Executor.
func (q *QuantExecutor) SetOpHook(h OpHook) { q.hook = h }

// TrainBatch implements Executor: always ErrInferenceOnly.
func (q *QuantExecutor) TrainBatch(ctx context.Context, x *tensor.Tensor, labels []int) (nn.LossResult, error) {
	return nn.LossResult{}, ErrInferenceOnly
}

// Logits implements Executor.
func (q *QuantExecutor) Logits(ctx context.Context, x *tensor.Tensor) (out *tensor.Tensor, err error) {
	defer recoverPanic("int8", &err)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	sp := q.tr.Span("int8.forward", CatEngine)
	defer sp.End()
	// The callback fires before each stage runs, so a stage's op span
	// runs from its own callback to the next one (or the end of the
	// pass), opened after the op hook as in the float executors.
	var stageSp obs.Span
	stage := 0
	out, err = q.qnet.ForwardWithHook(x, func(string) error {
		stageSp.End()
		stageSp = obs.Span{}
		if q.hook != nil {
			if err := q.hook("int8.forward"); err != nil {
				return err
			}
		}
		stageSp = q.tr.OpSpan(q.opNames[stage], CatOp)
		stage++
		return nil
	})
	stageSp.End()
	if err != nil {
		return nil, err
	}
	q.dispInfer.Add(int64(q.qnet.NumStages()) + 1) // stages + session dispatch
	return out, nil
}

// Predict implements Executor.
func (q *QuantExecutor) Predict(ctx context.Context, x *tensor.Tensor) ([]int, error) {
	return predict(ctx, q, q.tr, "int8.predict", x)
}

// Stats implements Executor.
func (q *QuantExecutor) Stats() Stats {
	n := q.qnet.NumStages()
	return Stats{
		TrainDispatches: 0,
		InferDispatches: n + 1,
		// Freezing the weights (quantization pass) is the startup cost.
		StartupUnits: 2 + 0.25*float64(n),
		GraphNodes:   n,
	}
}
