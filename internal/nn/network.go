package nn

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// Network is an ordered sequence of layers with a fused softmax
// cross-entropy head. It is the shared model representation that all three
// framework-style executors schedule.
type Network struct {
	name    string
	inShape []int // per-sample input shape, e.g. [1,28,28]
	layers  []Layer
	loss    SoftmaxCrossEntropy
}

// NewNetwork constructs an empty network with the given per-sample input
// shape.
func NewNetwork(name string, inShape []int) *Network {
	return &Network{name: name, inShape: append([]int(nil), inShape...)}
}

// Name returns the network's name.
func (n *Network) Name() string { return n.name }

// InShape returns the per-sample input shape.
func (n *Network) InShape() []int { return append([]int(nil), n.inShape...) }

// SetLossClamp sets the per-sample loss clamp (Caffe semantics); zero
// disables clamping.
func (n *Network) SetLossClamp(v float64) { n.loss.ClampLoss = v }

// Add appends layers, validating shape compatibility as it goes.
func (n *Network) Add(layers ...Layer) error {
	cur, err := n.OutShape()
	if err != nil {
		return err
	}
	for _, l := range layers {
		next, err := l.OutShape(cur)
		if err != nil {
			return fmt.Errorf("network %q: adding layer %q: %w", n.name, l.Name(), err)
		}
		n.layers = append(n.layers, l)
		cur = next
	}
	return nil
}

// Layers returns the layer slice (shared; callers must not mutate).
func (n *Network) Layers() []Layer { return n.layers }

// OutShape returns the per-sample output shape of the last layer.
func (n *Network) OutShape() ([]int, error) {
	cur := n.InShape()
	for _, l := range n.layers {
		next, err := l.OutShape(cur)
		if err != nil {
			return nil, fmt.Errorf("network %q: layer %q: %w", n.name, l.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// Params returns every learnable parameter in layer order.
func (n *Network) Params() []*Param {
	var ps []*Param
	for _, l := range n.layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ParamCount returns the total number of scalar parameters.
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += p.Value.Len()
	}
	return total
}

// ZeroGrads clears all parameter gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.ZeroGrad()
	}
}

// Forward runs all layers on a batch-major input.
func (n *Network) Forward(x *tensor.Tensor, train bool) (*tensor.Tensor, error) {
	cur := x
	for _, l := range n.layers {
		next, err := l.Forward(cur, train)
		if err != nil {
			return nil, fmt.Errorf("network %q: forward %q: %w", n.name, l.Name(), err)
		}
		cur = next
	}
	return cur, nil
}

// Backward propagates ∂loss/∂logits back through all layers, accumulating
// parameter gradients, and returns ∂loss/∂input.
func (n *Network) Backward(gradLogits *tensor.Tensor) (*tensor.Tensor, error) {
	return n.backward(gradLogits, true)
}

// backward is Backward; without wantIn the first layer skips its input
// gradient (Backprop) and the result is nil.
func (n *Network) backward(gradLogits *tensor.Tensor, wantIn bool) (*tensor.Tensor, error) {
	cur := gradLogits
	for i := len(n.layers) - 1; i >= 0; i-- {
		l := n.layers[i]
		var err error
		if cur, err = Backprop(l, cur, wantIn || i > 0); err != nil {
			return nil, fmt.Errorf("network %q: backward %q: %w", n.name, l.Name(), err)
		}
	}
	return cur, nil
}

// Loss evaluates the softmax cross-entropy head on logits.
func (n *Network) Loss(logits *tensor.Tensor, labels []int) (LossResult, error) {
	return n.loss.Eval(logits, labels)
}

// TrainStep runs forward, loss and backward for one mini-batch and returns
// the loss result. Gradients accumulate into Params; callers step an
// optimizer afterwards. The first layer's input gradient, which nothing
// here reads, is skipped where it can be (Backprop).
func (n *Network) TrainStep(x *tensor.Tensor, labels []int) (LossResult, error) {
	logits, err := n.Forward(x, true)
	if err != nil {
		return LossResult{}, err
	}
	res, err := n.Loss(logits, labels)
	if err != nil {
		return LossResult{}, err
	}
	if _, err := n.backward(res.Grad, false); err != nil {
		return LossResult{}, err
	}
	return res, nil
}

// Predict returns the class predictions (argmax of logits) for a batch.
func (n *Network) Predict(x *tensor.Tensor) ([]int, error) {
	logits, err := n.Forward(x, false)
	if err != nil {
		return nil, err
	}
	if logits.Dims() != 2 {
		return nil, fmt.Errorf("network %q: %w: logits %v", n.name, ErrShape, logits.Shape())
	}
	out := make([]int, logits.Dim(0))
	for i := range out {
		out[i] = tensor.ArgMaxRow(logits, i)
	}
	return out, nil
}

// bufferReleaser is implemented by layers that keep persistent
// forward/backward buffers across iterations.
type bufferReleaser interface{ ReleaseBuffers() }

// ReleaseBuffers drops cached per-batch state and persistent buffers in
// every layer that keeps them. Trained networks parked in a cache should
// release buffers; the next Forward transparently reallocates them.
func (n *Network) ReleaseBuffers() {
	for _, l := range n.layers {
		if r, ok := l.(bufferReleaser); ok {
			r.ReleaseBuffers()
		}
	}
}

// FLOPsPerSample sums the forward FLOP estimates of every layer.
func (n *Network) FLOPsPerSample() int64 {
	cur := n.InShape()
	var total int64
	for _, l := range n.layers {
		total += l.FLOPsPerSample(cur)
		next, err := l.OutShape(cur)
		if err != nil {
			return total
		}
		cur = next
	}
	return total
}

// Summary renders a human-readable architecture table.
func (n *Network) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Network %q  input %v  params %d\n", n.name, n.inShape, n.ParamCount())
	cur := n.InShape()
	for i, l := range n.layers {
		next, err := l.OutShape(cur)
		if err != nil {
			fmt.Fprintf(&b, "  %2d. %-12s <shape error: %v>\n", i+1, l.Name(), err)
			break
		}
		fmt.Fprintf(&b, "  %2d. %-12s %v -> %v\n", i+1, l.Name(), cur, next)
		cur = next
	}
	return b.String()
}
