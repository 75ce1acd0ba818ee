package engine

import (
	"context"
	"fmt"

	"repro/internal/nn"
	"repro/internal/obs"
	"repro/internal/tensor"
)

// opNode is one vertex of the compiled dataflow graph.
type opNode struct {
	id    int
	layer nn.Layer
	// resid marks a skip-connection add node: the node has two deps
	// (skip source, branch end) and dispatches Residual.AddForward
	// instead of a layer kernel. layer is nil on add nodes.
	resid *nn.Residual
	// spanName is the per-op span name, built once at graph construction
	// so the dispatch loop allocates nothing.
	spanName string
	// deps are node ids this node consumes from (-1 is the graph input);
	// succ the consumers.
	deps []int
	succ []int
	// fusedInto, when >= 0, marks this node as fused into another node's
	// dispatch (conv+activation fusion), eliminating its own dispatch.
	fusedInto int
	// skipExec marks a fused activation node whose kernel actually runs
	// inside its producer's GEMM epilogue (ReLU); the node is skipped
	// entirely in the forward schedule.
	skipExec bool
	// adopt, on a producer node, is the fused activation to notify after
	// this node's forward so its Backward still works (AdoptFused).
	adopt *nn.Activation
}

// GraphExecutor is the TensorFlow-style executor: it compiles the network
// into an operation graph, topologically schedules it and runs an
// optimization (fusion) pass at construction time.
//
// The graph is a genuine dataflow graph, not a path: residual blocks are
// expanded into their branch layers plus a two-input add node, so the
// scheduler routes real multi-successor values (the skip source feeds
// both the branch head and the add) and the backward pass accumulates
// gradients per node. Because the expanded schedule runs the same layer
// objects through the same kernels — and the skip add is a two-operand
// float addition, which is bit-commutative — numerics stay bit-identical
// to the layerwise and module executors, which treat a Residual as one
// opaque layer.
type GraphExecutor struct {
	net      *nn.Network
	nodes    []*opNode
	schedule []int // topological order of node ids
	outID    int   // node producing the network output
	fused    int

	// Per-run dataflow state, indexed by node id + 1 (slot 0 is the graph
	// input). Reused across iterations; grads slots are reset per batch.
	outs    []*tensor.Tensor
	grads   []*tensor.Tensor
	accBufs []*tensor.Tensor // per-slot accumulators for multi-successor fan-in

	tr        *obs.Tracer
	dispTrain *obs.Counter
	dispInfer *obs.Counter
	hook      OpHook
}

var _ Executor = (*GraphExecutor)(nil)

// NewGraph compiles net into a graph executor. A nil tracer disables
// instrumentation at negligible cost.
func NewGraph(net *nn.Network, tr *obs.Tracer) (*GraphExecutor, error) {
	if net == nil {
		return nil, ErrNilNetwork
	}
	g := &GraphExecutor{
		net:       net,
		tr:        tr,
		dispTrain: tr.Counter(CounterTrainDispatch("graph")),
		dispInfer: tr.Counter(CounterInferDispatch("graph")),
	}
	// Build the dataflow graph: chain layers, expanding residual blocks
	// into branch nodes plus an add node. The schedule is computed with a
	// general Kahn topological sort — with residuals in the net it is no
	// longer a trivial path order.
	build := tr.Span("graph.build", CatEngine)
	g.outID = -1
	for _, l := range net.Layers() {
		g.outID = g.expand(l, g.outID)
	}
	schedule, err := topoSort(g.nodes)
	if err != nil {
		build.End()
		return nil, fmt.Errorf("engine: graph build: %w", err)
	}
	g.schedule = schedule
	g.outs = make([]*tensor.Tensor, len(g.nodes)+1)
	g.grads = make([]*tensor.Tensor, len(g.nodes)+1)
	g.accBufs = make([]*tensor.Tensor, len(g.nodes)+1)
	build.End()
	fuse := tr.Span("graph.fuse", CatEngine)
	g.fuse()
	fuse.End()
	return g, nil
}

// expand appends the node(s) for one layer, wiring deps from prev (the
// node currently producing the running value; -1 is the graph input),
// and returns the id of the node now producing it. Residual blocks
// expand recursively: each branch layer becomes its own node, and a
// two-input add node joins the skip and branch values.
func (g *GraphExecutor) expand(l nn.Layer, prev int) int {
	link := func(n *opNode, dep int) {
		n.deps = append(n.deps, dep)
		if dep >= 0 {
			g.nodes[dep].succ = append(g.nodes[dep].succ, n.id)
		}
	}
	if r, ok := l.(*nn.Residual); ok {
		skip := prev
		cur := prev
		for _, bl := range r.Branch() {
			cur = g.expand(bl, cur)
		}
		a := &opNode{
			id:        len(g.nodes),
			resid:     r,
			spanName:  OpSpanName("graph", r.Name()+".add"),
			fusedInto: -1,
		}
		g.nodes = append(g.nodes, a)
		link(a, skip)
		link(a, cur)
		return a.id
	}
	n := &opNode{
		id:        len(g.nodes),
		layer:     l,
		spanName:  OpSpanName("graph", l.Name()),
		fusedInto: -1,
	}
	g.nodes = append(g.nodes, n)
	link(n, prev)
	return n.id
}

// topoSort is Kahn's algorithm over the op nodes.
func topoSort(nodes []*opNode) ([]int, error) {
	indeg := make([]int, len(nodes))
	for _, n := range nodes {
		for _, d := range n.deps {
			if d >= 0 {
				indeg[n.id]++
			}
		}
	}
	var queue []int
	for id, d := range indeg {
		if d == 0 {
			queue = append(queue, id)
		}
	}
	var order []int
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		for _, s := range nodes[id].succ {
			indeg[s]--
			if indeg[s] == 0 {
				queue = append(queue, s)
			}
		}
	}
	if len(order) != len(nodes) {
		return nil, fmt.Errorf("cycle detected (%d of %d scheduled)", len(order), len(nodes))
	}
	return order, nil
}

// fuse runs the graph-optimization pass: an activation whose sole producer
// is a convolution or dense node is fused into that producer's dispatch
// (the classic conv+bias+relu fusion). For ReLU the fusion is executed
// for real: the producer applies the activation in its GEMM epilogue and
// the activation node is skipped in the forward schedule, adopting the
// fused output so its backward op is unchanged. Other kinds keep the
// dispatch-accounting fusion only (their kernels still run standalone).
// The pass applies inside expanded residual branches too; a multi-
// successor producer (a skip source) is never fused, because its raw
// output is also consumed by the add node.
func (g *GraphExecutor) fuse() {
	for _, n := range g.nodes {
		act, ok := n.layer.(*nn.Activation)
		if !ok || act == nil || len(n.deps) != 1 || n.deps[0] < 0 {
			continue
		}
		p := g.nodes[n.deps[0]]
		pl, ok := p.layer.(fusable)
		if !ok || len(p.succ) != 1 {
			continue
		}
		n.fusedInto = p.id
		g.fused++
		if pl.SetFusedActivation(act.Kind()) {
			n.skipExec = true
			p.adopt = act
		}
	}
}

// Network implements Executor.
func (g *GraphExecutor) Network() *nn.Network { return g.net }

// SetOpHook implements Executor.
func (g *GraphExecutor) SetOpHook(h OpHook) { g.hook = h }

// contribute adds t to the gradient accumulator of slot dst+1. The first
// contribution is recorded as a pointer (no copy — in a path segment the
// gradient threads straight through, exactly like the pre-dataflow
// executor). Later fan-in contributions sum into an executor-owned
// buffer: contribution tensors belong to layers and may still be read by
// other pending backward dispatches, so they are never mutated in place.
// Two-operand float addition is bit-commutative, so the arrival order at
// a skip source (add node's pass-through vs the branch head's input
// gradient) cannot perturb numerics relative to the monolithic
// Residual.Backward.
//
// Nothing reads the graph input's gradient (slot 0), so contributions to
// it are dropped; the layers fed by the input compute none (nn.Backprop).
func (g *GraphExecutor) contribute(dst int, t *tensor.Tensor) {
	if dst < 0 {
		return
	}
	slot := dst + 1
	prev := g.grads[slot]
	if prev == nil {
		g.grads[slot] = t
		return
	}
	acc := g.accBufs[slot]
	if prev == acc {
		// Third and later contributions: the slot already holds our own
		// accumulator; sum in place.
		ad, td := acc.Data(), t.Data()
		for i := range ad {
			ad[i] += td[i]
		}
		return
	}
	if acc == nil || !acc.SameShape(t) {
		if acc != nil {
			tensor.Put(acc)
		}
		acc = tensor.GetUninit(t.Shape()...)
		g.accBufs[slot] = acc
	}
	ad, pd, td := acc.Data(), prev.Data(), t.Data()
	for i := range ad {
		ad[i] = pd[i] + td[i]
	}
	g.grads[slot] = acc
}

// TrainBatch implements Executor.
func (g *GraphExecutor) TrainBatch(ctx context.Context, x *tensor.Tensor, labels []int) (res nn.LossResult, err error) {
	defer recoverPanic("graph", &err)
	if err := ctxErr(ctx); err != nil {
		return nn.LossResult{}, err
	}
	fwd := g.tr.Span("graph.forward", CatEngine)
	logits, err := g.run(x, true)
	fwd.End()
	if err != nil {
		return nn.LossResult{}, err
	}
	res, err = g.net.Loss(logits, labels)
	if err != nil {
		return nn.LossResult{}, err
	}
	// Backward walks the schedule in reverse, accumulating per-node
	// gradients; fusion applies to the forward kernels only, so every
	// node dispatches its own gradient op.
	if err := ctxErr(ctx); err != nil {
		return nn.LossResult{}, err
	}
	bwd := g.tr.Span("graph.backward", CatEngine)
	for i := range g.grads {
		g.grads[i] = nil
	}
	g.grads[g.outID+1] = res.Grad
	for i := len(g.schedule) - 1; i >= 0; i-- {
		if g.hook != nil {
			if err := g.hook("graph.backward"); err != nil {
				bwd.End()
				return nn.LossResult{}, fmt.Errorf("engine: graph backward dispatch: %w", err)
			}
		}
		n := g.nodes[g.schedule[i]]
		grad := g.grads[n.id+1]
		if grad == nil {
			bwd.End()
			return nn.LossResult{}, fmt.Errorf("engine: graph backward: node %d has no gradient", n.id)
		}
		if n.resid != nil {
			// The add's gradient passes through unchanged to both inputs;
			// the sum at the skip source happens where the contributions
			// meet (contribute), matching Residual.SkipAdd.
			g.contribute(n.deps[0], grad)
			g.contribute(n.deps[1], grad)
			continue
		}
		sp := g.tr.OpSpan(n.spanName, CatOp)
		gin, err := nn.Backprop(n.layer, grad, n.deps[0] >= 0)
		sp.End()
		if err != nil {
			bwd.End()
			return nn.LossResult{}, fmt.Errorf("engine: graph backward: %w", err)
		}
		g.contribute(n.deps[0], gin)
	}
	bwd.End()
	g.dispTrain.Add(int64(len(g.nodes)))
	return res, nil
}

// run executes the forward schedule over the dataflow slots, counting
// one dispatch per live (unfused) node plus the session-run dispatch
// against the phase counter.
func (g *GraphExecutor) run(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	outs := g.outs
	outs[0] = x
	dispatched := int64(1) // session-run dispatch
	for _, id := range g.schedule {
		n := g.nodes[id]
		if n.skipExec {
			// The node's kernel already ran inside its producer's GEMM
			// epilogue; its value is the producer's output.
			outs[id+1] = outs[n.deps[0]+1]
			continue
		}
		if n.fusedInto < 0 {
			dispatched++
		}
		if g.hook != nil {
			if err := g.hook("graph.forward"); err != nil {
				return nil, fmt.Errorf("engine: graph forward dispatch: %w", err)
			}
		}
		sp := g.tr.OpSpan(n.spanName, CatOp)
		next, err := g.dispatch(n, outs, train)
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("engine: graph forward node %d (%s): %w", id, g.nodeName(n), err)
		}
		if n.adopt != nil {
			n.adopt.AdoptFused(next)
		}
		outs[id+1] = next
	}
	if train {
		g.dispTrain.Add(dispatched)
	} else {
		g.dispInfer.Add(dispatched)
	}
	return outs[g.outID+1], nil
}

// dispatch runs one node's forward kernel against the dataflow slots.
func (g *GraphExecutor) dispatch(n *opNode, outs []*tensor.Tensor, train bool) (*tensor.Tensor, error) {
	if n.resid != nil {
		return n.resid.AddForward(outs[n.deps[0]+1], outs[n.deps[1]+1])
	}
	return n.layer.Forward(outs[n.deps[0]+1], train)
}

// nodeName names a node for error messages.
func (g *GraphExecutor) nodeName(n *opNode) string {
	if n.resid != nil {
		return n.resid.Name() + ".add"
	}
	return n.layer.Name()
}

// Logits implements Executor.
func (g *GraphExecutor) Logits(ctx context.Context, x *tensor.Tensor) (out *tensor.Tensor, err error) {
	defer recoverPanic("graph", &err)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	return g.run(x, false)
}

// Predict implements Executor.
func (g *GraphExecutor) Predict(ctx context.Context, x *tensor.Tensor) ([]int, error) {
	return predict(ctx, g, g.tr, "graph.predict", x)
}

// Stats implements Executor.
func (g *GraphExecutor) Stats() Stats {
	live := len(g.nodes) - g.fused
	return Stats{
		// Fused forward dispatches + unfused backward (fusion applies to
		// the forward kernels only) + one session-run dispatch.
		TrainDispatches: live + len(g.nodes) + 1,
		InferDispatches: live + 1,
		// Graph construction + optimization is the expensive startup:
		// proportional to graph size.
		StartupUnits: 3 + 0.5*float64(len(g.nodes)),
		GraphNodes:   len(g.nodes),
		FusedPairs:   g.fused,
	}
}
