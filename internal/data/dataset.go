// Package data provides the dataset substrate for the benchmark suite:
// a batch-oriented Dataset type plus deterministic procedural generators
// for synthetic MNIST and synthetic CIFAR-10.
//
// The paper evaluates on the real MNIST and CIFAR-10 corpora, which are
// not available in this offline environment. The generators below preserve
// the properties the paper's observations depend on: identical tensor
// shapes and class counts, MNIST's low pixel entropy (sparse gray-scale
// strokes) versus CIFAR-10's high entropy (dense colour textures), and a
// difficulty gap large enough that LeNet-class networks reach ≥99% on the
// former and substantially less on the latter.
package data

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/tensor"
)

// ErrConfig is returned (wrapped) for invalid dataset configurations.
var ErrConfig = errors.New("data: invalid configuration")

// Dataset is an in-memory labelled image dataset, batch-major [N,C,H,W].
type Dataset struct {
	// Name identifies the dataset in reports (e.g. "synth-mnist-train").
	Name string
	// Classes is the number of label classes.
	Classes int
	// SampleShape is the per-sample shape [C,H,W].
	SampleShape []int
	// Images holds all samples, shape [N, C, H, W].
	Images *tensor.Tensor
	// Labels holds one class index per sample.
	Labels []int
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Labels) }

// sampleLen returns the flat length of one sample.
func (d *Dataset) sampleLen() int { return tensor.Volume(d.SampleShape) }

// Slice copies the samples at the given indices into a fresh batch tensor
// and label slice.
func (d *Dataset) Slice(indices []int) (*tensor.Tensor, []int, error) {
	sl := d.sampleLen()
	shape := append([]int{len(indices)}, d.SampleShape...)
	x := tensor.New(shape...)
	labels := make([]int, len(indices))
	for bi, idx := range indices {
		if idx < 0 || idx >= d.Len() {
			return nil, nil, fmt.Errorf("%w: index %d out of range [0,%d)", ErrConfig, idx, d.Len())
		}
		copy(x.Data()[bi*sl:(bi+1)*sl], d.Images.Data()[idx*sl:(idx+1)*sl])
		labels[bi] = d.Labels[idx]
	}
	return x, labels, nil
}

// Sample returns a copy of one sample as a [1,C,H,W] tensor with its
// label.
func (d *Dataset) Sample(idx int) (*tensor.Tensor, int, error) {
	x, labels, err := d.Slice([]int{idx})
	if err != nil {
		return nil, 0, err
	}
	return x, labels[0], nil
}

// Subset returns a view-free copy of the first n samples.
func (d *Dataset) Subset(n int) (*Dataset, error) {
	if n < 0 || n > d.Len() {
		return nil, fmt.Errorf("%w: subset size %d of %d", ErrConfig, n, d.Len())
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	x, labels, err := d.Slice(idx)
	if err != nil {
		return nil, err
	}
	return &Dataset{
		Name:        d.Name + "-subset",
		Classes:     d.Classes,
		SampleShape: append([]int(nil), d.SampleShape...),
		Images:      x,
		Labels:      labels,
	}, nil
}

// Batches iterates a dataset in mini-batches. When rng is non-nil the
// order is reshuffled each epoch; a nil rng yields deterministic
// sequential order (Caffe's LMDB-style behaviour).
type Batches struct {
	ds    *Dataset
	size  int
	rng   *tensor.RNG
	order []int
	pos   int
	epoch int

	obs      *obs.Tracer
	loadHist *obs.Histogram
	loads    *obs.Counter
}

// NewBatches constructs a batch iterator of the given size.
func NewBatches(ds *Dataset, size int, rng *tensor.RNG) (*Batches, error) {
	if size <= 0 {
		return nil, fmt.Errorf("%w: batch size %d", ErrConfig, size)
	}
	if ds.Len() == 0 {
		return nil, fmt.Errorf("%w: empty dataset %q", ErrConfig, ds.Name)
	}
	b := &Batches{ds: ds, size: size, rng: rng}
	b.reset()
	return b, nil
}

func (b *Batches) reset() {
	if b.rng != nil {
		b.order = b.rng.Perm(b.ds.Len())
	} else if b.order == nil {
		b.order = make([]int, b.ds.Len())
		for i := range b.order {
			b.order[i] = i
		}
	}
	b.pos = 0
}

// SetObs attaches a tracer: every Next records a "data.load" duration and
// increments the "data.load.batches" counter. A nil tracer (the default)
// disables instrumentation.
func (b *Batches) SetObs(tr *obs.Tracer) {
	b.obs = tr
	b.loadHist = tr.Histogram("data.load")
	b.loads = tr.Counter("data.load.batches")
}

// Next returns the next mini-batch, wrapping to a new epoch when the
// dataset is exhausted. The final batch of an epoch may be short.
//
// Batch assembly is timed into the "data.load" histogram rather than a
// per-batch span: at full scale the loader runs hundreds of thousands of
// times, which would dominate the span buffer while each individual copy
// is microseconds.
func (b *Batches) Next() (*tensor.Tensor, []int, error) {
	var start time.Time
	if b.obs != nil {
		start = time.Now()
	}
	if b.pos >= len(b.order) {
		b.epoch++
		b.reset()
	}
	end := b.pos + b.size
	if end > len(b.order) {
		end = len(b.order)
	}
	idx := b.order[b.pos:end]
	b.pos = end
	x, labels, err := b.ds.Slice(idx)
	if b.obs != nil {
		b.loadHist.Observe(time.Since(start))
		b.loads.Inc()
	}
	return x, labels, err
}

// BatchState is the resumable position of a Batches iterator: the epoch
// count, the offset into the current epoch's order, the order itself, and
// the shuffler RNG state (so subsequent epochs reshuffle identically to an
// uninterrupted run). It is captured for training checkpoints.
type BatchState struct {
	Epoch int
	Pos   int
	Order []int
	// HasRNG distinguishes a shuffling iterator from sequential order.
	HasRNG bool
	RNG    tensor.RNGState
}

// State captures the iterator's current position.
func (b *Batches) State() BatchState {
	st := BatchState{
		Epoch: b.epoch,
		Pos:   b.pos,
		Order: append([]int(nil), b.order...),
	}
	if b.rng != nil {
		st.HasRNG = true
		st.RNG = b.rng.State()
	}
	return st
}

// Restore rewinds the iterator to a previously captured position. The
// iterator must wrap a dataset of the same length and the same shuffling
// mode as the one the state was captured from.
func (b *Batches) Restore(st BatchState) error {
	if len(st.Order) != b.ds.Len() {
		return fmt.Errorf("%w: batch state order has %d entries, dataset %q has %d",
			ErrConfig, len(st.Order), b.ds.Name, b.ds.Len())
	}
	if st.HasRNG != (b.rng != nil) {
		return fmt.Errorf("%w: batch state shuffling mode mismatch for %q", ErrConfig, b.ds.Name)
	}
	if st.Pos < 0 || st.Pos > len(st.Order) {
		return fmt.Errorf("%w: batch state position %d out of range", ErrConfig, st.Pos)
	}
	b.epoch = st.Epoch
	b.pos = st.Pos
	b.order = append([]int(nil), st.Order...)
	if b.rng != nil {
		b.rng.Restore(st.RNG)
	}
	return nil
}
