package engine

import (
	"context"
	"fmt"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// module is one vertex of the Torch-style module tree: either a leaf
// wrapping an nn.Layer or a Sequential container of children.
//
// The module executor deliberately runs every leaf unfused: Torch's
// define-by-run module chain has no graph-optimization pass, so unlike
// the graph and layerwise executors it never requests the layers'
// fused conv+bias+ReLU epilogue (its benchmark nets use Tanh anyway).
type module struct {
	name     string
	layer    nn.Layer // nil for containers
	spanName string   // per-op span name (leaves only)
	children []*module
	// input marks the leaf of the network's first layer, which reads the
	// network input: its backward accumulates parameter gradients only.
	input bool
}

// forward recursively dispatches through the tree, counting leaf and
// container dispatches like Torch's nn.Sequential updateOutput chain. A
// non-nil hook is consulted before every module dispatch; every leaf
// dispatch opens a per-op span (tr.OpSpan).
func (m *module) forward(x *tensor.Tensor, train bool, dispatches *int, hook OpHook, tr *obs.Tracer) (*tensor.Tensor, error) {
	*dispatches++
	if hook != nil {
		if err := hook("module.forward"); err != nil {
			return nil, fmt.Errorf("module %q dispatch: %w", m.name, err)
		}
	}
	if m.layer != nil {
		sp := tr.OpSpan(m.spanName, CatOp)
		out, err := m.layer.Forward(x, train)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("module %q: %w", m.name, err)
		}
		return out, nil
	}
	cur := x
	for _, c := range m.children {
		next, err := c.forward(cur, train, dispatches, hook, tr)
		if err != nil {
			return nil, err
		}
		cur = next
	}
	return cur, nil
}

// backward recursively dispatches gradients in reverse child order
// (Torch's updateGradInput/accGradParameters chain).
func (m *module) backward(grad *tensor.Tensor, dispatches *int, hook OpHook, tr *obs.Tracer) (*tensor.Tensor, error) {
	*dispatches++
	if hook != nil {
		if err := hook("module.backward"); err != nil {
			return nil, fmt.Errorf("module %q dispatch: %w", m.name, err)
		}
	}
	if m.layer != nil {
		sp := tr.OpSpan(m.spanName, CatOp)
		g, err := nn.Backprop(m.layer, grad, !m.input)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("module %q: %w", m.name, err)
		}
		return g, nil
	}
	cur := grad
	for i := len(m.children) - 1; i >= 0; i-- {
		prev, err := m.children[i].backward(cur, dispatches, hook, tr)
		if err != nil {
			return nil, err
		}
		cur = prev
	}
	return cur, nil
}

// depth returns the tree depth below (and including) m.
func (m *module) depth() int {
	best := 1
	for _, c := range m.children {
		if d := 1 + c.depth(); d > best {
			best = d
		}
	}
	return best
}

// leaves counts leaf modules.
func (m *module) leaves() int {
	if m.layer != nil {
		return 1
	}
	n := 0
	for _, c := range m.children {
		n += c.leaves()
	}
	return n
}

// containers counts container modules.
func (m *module) containers() int {
	if m.layer != nil {
		return 0
	}
	n := 1
	for _, c := range m.children {
		n += c.containers()
	}
	return n
}

// ModuleExecutor is the Torch-style executor: it wraps the network in a
// nested Sequential module tree (a "features" container holding the
// convolutional stage and a "classifier" container holding the fully
// connected stage, both under a root) and recursively dispatches through
// it, mirroring Torch's container overhead.
type ModuleExecutor struct {
	net  *nn.Network
	root *module

	tr        *obs.Tracer
	dispTrain *obs.Counter
	dispInfer *obs.Counter
	hook      OpHook
}

var _ Executor = (*ModuleExecutor)(nil)

// NewModule constructs a module executor over net. A nil tracer disables
// instrumentation at negligible cost.
func NewModule(net *nn.Network, tr *obs.Tracer) (*ModuleExecutor, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	build := tr.Span("module.build", CatEngine)
	defer build.End()
	layers := net.Layers()
	// Split at the Flatten layer the way Torch scripts split
	// features/classifier; if there is none, a single container is used.
	split := -1
	for i, l := range layers {
		if _, ok := l.(*nn.Flatten); ok {
			split = i
			break
		}
	}
	leaf := func(l nn.Layer) *module {
		return &module{name: l.Name(), layer: l, spanName: OpSpanName("module", l.Name()), input: l == layers[0]}
	}
	root := &module{name: "root"}
	if split < 0 {
		seq := &module{name: "sequential"}
		for _, l := range layers {
			seq.children = append(seq.children, leaf(l))
		}
		root.children = append(root.children, seq)
	} else {
		features := &module{name: "features"}
		for _, l := range layers[:split] {
			features.children = append(features.children, leaf(l))
		}
		classifier := &module{name: "classifier"}
		for _, l := range layers[split:] {
			classifier.children = append(classifier.children, leaf(l))
		}
		root.children = append(root.children, features, classifier)
	}
	return &ModuleExecutor{
		net:       net,
		root:      root,
		tr:        tr,
		dispTrain: tr.Counter(CounterTrainDispatch("module")),
		dispInfer: tr.Counter(CounterInferDispatch("module")),
	}, nil
}

// TrainBatch implements Executor.
func (e *ModuleExecutor) TrainBatch(ctx context.Context, x *tensor.Tensor, labels []int) (res nn.LossResult, err error) {
	defer recoverPanic("module", &err)
	if err := ctxErr(ctx); err != nil {
		return nn.LossResult{}, err
	}
	var d int
	fwd := e.tr.Span("module.forward", CatEngine)
	logits, err := e.root.forward(x, true, &d, e.hook, e.tr)
	fwd.End()
	if err != nil {
		return nn.LossResult{}, err
	}
	res, err = e.net.Loss(logits, labels)
	if err != nil {
		return nn.LossResult{}, err
	}
	if err := ctxErr(ctx); err != nil {
		return nn.LossResult{}, err
	}
	bwd := e.tr.Span("module.backward", CatEngine)
	_, err = e.root.backward(res.Grad, &d, e.hook, e.tr)
	bwd.End()
	if err != nil {
		return nn.LossResult{}, err
	}
	// The tree walks counted their own dispatches; Torch additionally
	// dispatches accGradParameters once per leaf.
	e.dispTrain.Add(int64(d + e.root.leaves()))
	return res, nil
}

// Network implements Executor.
func (e *ModuleExecutor) Network() *nn.Network { return e.net }

// SetOpHook implements Executor.
func (e *ModuleExecutor) SetOpHook(h OpHook) { e.hook = h }

// Logits implements Executor.
func (e *ModuleExecutor) Logits(ctx context.Context, x *tensor.Tensor) (out *tensor.Tensor, err error) {
	defer recoverPanic("module", &err)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	var d int
	out, err = e.root.forward(x, false, &d, e.hook, e.tr)
	if err != nil {
		return nil, err
	}
	e.dispInfer.Add(int64(d))
	return out, nil
}

// Predict implements Executor.
func (e *ModuleExecutor) Predict(ctx context.Context, x *tensor.Tensor) ([]int, error) {
	return predict(ctx, e, e.tr, "module.predict", x)
}

// Stats implements Executor.
func (e *ModuleExecutor) Stats() Stats {
	leaves := e.root.leaves()
	containers := e.root.containers()
	perPass := leaves + containers
	return Stats{
		// Forward + backward tree walks, plus Torch's per-leaf
		// accGradParameters dispatch.
		TrainDispatches: 2*perPass + leaves,
		InferDispatches: perPass,
		// Lua interpreter warmup + module construction.
		StartupUnits: 2,
		TreeDepth:    e.root.depth(),
	}
}
