// Package engine provides three executor implementations that schedule the
// same nn.Network the way the paper's three frameworks schedule their
// models:
//
//   - Graph (TensorFlow-style): the network is compiled into a dataflow
//     graph of operation nodes; a topological schedule is computed once,
//     an optimization pass fuses producer/consumer pairs, and execution
//     walks the schedule. Construction is comparatively expensive
//     (TensorFlow's session/graph build), dispatch is cheap.
//
//   - Layerwise (Caffe-style): forward/backward blobs are sized once and
//     the layers run strictly sequentially with minimal bookkeeping; the
//     solver semantics include Caffe's loss clamp.
//
//   - Module (Torch-style): the network is wrapped in a tree of modules
//     (nested Sequential containers) and execution recursively dispatches
//     through the tree, allocating per-call temporaries — the highest
//     dispatch overhead of the three.
//
// All three produce bit-identical numerics for identical weights — the
// executors differ in scheduling, bookkeeping and the dispatch statistics
// the device cost model consumes, exactly the axis on which the paper's
// frameworks differ for time while sharing the mathematics.
package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrNilNetwork is returned when an executor is constructed without a
// network.
var ErrNilNetwork = errors.New("engine: nil network")

// ErrPanic wraps a panic recovered inside an executor's dispatch path.
// Panics in op kernels (including panics raised out of tensor worker
// goroutines) are converted into returned errors so one bad op cannot take
// down a whole benchmark sweep; callers match with errors.Is.
var ErrPanic = errors.New("engine: recovered panic")

// CatEngine is the obs span category used by all executor spans.
const CatEngine = "engine"

// CatOp is the obs span category of per-op dispatch spans. Executors open
// one around every layer dispatch through obs.Tracer.OpSpan, which
// records it only in profiling mode (obs.Tracer.EnableProfiling): one
// span per layer dispatch would dominate the span buffer on long sweeps,
// but in profiling mode they are what turns the trace into a per-layer
// attribution profile.
const CatOp = "op"

// OpSpanName names the per-op span for one layer dispatch of the named
// executor style, e.g. "graph.op.conv1". Forward and backward dispatches
// share the name; the enclosing phase span distinguishes direction.
func OpSpanName(style, layer string) string {
	return style + ".op." + layer
}

// CounterTrainDispatch returns the obs counter name under which the named
// executor style counts per-iteration training dispatches. After exactly
// one TrainBatch the counter equals Stats().TrainDispatches — the tracer
// observes the same mechanical dispatches the device cost model charges.
func CounterTrainDispatch(style string) string {
	return "engine." + style + ".dispatch.train"
}

// CounterInferDispatch is the inference-batch analogue of
// CounterTrainDispatch: one Logits call adds Stats().InferDispatches.
func CounterInferDispatch(style string) string {
	return "engine." + style + ".dispatch.infer"
}

// Stats describes the mechanical cost profile of an executor on its
// network; the device cost model turns these counts into seconds.
type Stats struct {
	// TrainDispatches is the number of op dispatches per training
	// iteration (forward + backward + update hooks).
	TrainDispatches int
	// InferDispatches is the number of op dispatches per inference batch.
	InferDispatches int
	// StartupUnits scales the device's one-time startup charge; graph
	// construction makes it large for the graph executor.
	StartupUnits float64
	// GraphNodes and FusedPairs are populated by the graph executor.
	GraphNodes int
	FusedPairs int
	// BlobBytes is the layerwise executor's pre-allocated activation
	// memory for its configured batch size.
	BlobBytes int64
	// TreeDepth is the module executor's container nesting depth.
	TreeDepth int
}

// OpHook is invoked before each op dispatch with the dispatch site (e.g.
// "graph.forward", "module.backward"). A non-nil return aborts the batch
// with that error. The resilience layer installs hooks to inject
// deterministic op faults and latency; a nil hook (the default) reduces
// the per-op cost to a single pointer test.
type OpHook func(site string) error

// Executor schedules a network for training and inference. All execution
// entry points take a context: cancellation (timeouts, SIGINT) is observed
// at phase granularity, so a long sweep stops within one forward/backward
// pass instead of hanging until the run completes.
type Executor interface {
	// Network returns the underlying network.
	Network() *nn.Network
	// TrainBatch runs one forward/loss/backward iteration, leaving
	// parameter gradients accumulated for an optimizer step.
	TrainBatch(ctx context.Context, x *tensor.Tensor, labels []int) (nn.LossResult, error)
	// Logits runs an inference forward pass.
	Logits(ctx context.Context, x *tensor.Tensor) (*tensor.Tensor, error)
	// Predict returns argmax class predictions for a batch.
	Predict(ctx context.Context, x *tensor.Tensor) ([]int, error)
	// Stats returns the executor's mechanical cost profile.
	Stats() Stats
	// SetOpHook installs (or, with nil, removes) the per-dispatch hook.
	SetOpHook(OpHook)
}

// ctxErr returns the context's error, tolerating a nil context (treated as
// background). The call is a pointer test plus an atomic load when the
// context is not cancellable — cheap enough for per-phase checks.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// recoverPanic converts a panic in an executor dispatch path into an error
// wrapping ErrPanic. Used via defer in the public entry points.
func recoverPanic(style string, err *error) {
	if r := recover(); r != nil {
		*err = fmt.Errorf("%w: %s executor: %v", ErrPanic, style, r)
	}
}

// fusable is a GEMM layer (Conv2D, Dense) that can apply an activation
// in its epilogue; SetFusedActivation reports whether it will.
type fusable interface {
	SetFusedActivation(nn.ActKind) bool
}

// predict is the one Predict body: a span named span around e's Logits,
// then the argmax of every row.
func predict(ctx context.Context, e Executor, tr *obs.Tracer, span string, x *tensor.Tensor) ([]int, error) {
	sp := tr.Span(span, CatEngine)
	defer sp.End()
	logits, err := e.Logits(ctx, x)
	if err != nil {
		return nil, err
	}
	if logits.Dims() != 2 {
		return nil, nn.ErrShape
	}
	out := make([]int, logits.Dim(0))
	for i := range out {
		out[i] = tensor.ArgMaxRow(logits, i)
	}
	return out, nil
}
