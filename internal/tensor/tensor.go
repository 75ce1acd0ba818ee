// Package tensor provides dense numeric tensors and the core linear-algebra
// kernels (GEMM, im2col convolution lowering, reductions) that every
// higher-level module in this repository builds on.
//
// Tensors are row-major, dense float64 arrays with an explicit shape. The
// package is deliberately minimal: it implements exactly the operations the
// neural-network substrate needs, with deterministic results for a fixed
// seed so that every experiment in the benchmark suite regenerates
// byte-identically.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

// ErrShape is returned (wrapped) by operations whose operands have
// incompatible shapes.
var ErrShape = errors.New("tensor: shape mismatch")

// Tensor is a dense, row-major float64 tensor.
//
// The zero value is an empty scalar-less tensor; use New or From to create
// usable tensors. Data is exposed read-write through Data for kernels that
// need flat access; callers must not change the length of the returned
// slice.
type Tensor struct {
	shape []int
	data  []float64
}

// New returns a zero-filled tensor with the given shape. A tensor with no
// dimensions has a single element (a scalar).
func New(shape ...int) *Tensor {
	n := 1
	for _, d := range shape {
		if d < 0 {
			panic(fmt.Sprintf("tensor: negative dimension %d in shape %v", d, shape))
		}
		n *= d
	}
	return &Tensor{shape: append([]int(nil), shape...), data: make([]float64, n)}
}

// From returns a tensor with the given shape that adopts data as its
// backing storage. It returns an error if len(data) does not match the
// shape volume.
func From(data []float64, shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(data) {
		return nil, fmt.Errorf("%w: data length %d does not fit shape %v", ErrShape, len(data), shape)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: data}, nil
}

// MustFrom is From but panics on error. It is intended for package-level
// fixtures and tests where the shapes are constants.
func MustFrom(data []float64, shape ...int) *Tensor {
	t, err := From(data, shape...)
	if err != nil {
		panic(err)
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return append([]int(nil), t.shape...) }

// Dims returns the number of dimensions.
func (t *Tensor) Dims() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Data returns the flat backing slice. Mutating elements mutates the
// tensor; callers must not grow or shrink the slice.
func (t *Tensor) Data() []float64 { return t.data }

// At returns the element at the given multi-dimensional index.
func (t *Tensor) At(idx ...int) float64 { return t.data[t.offset(idx)] }

// Set assigns the element at the given multi-dimensional index.
func (t *Tensor) Set(v float64, idx ...int) { t.data[t.offset(idx)] = v }

func (t *Tensor) offset(idx []int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index %v does not match shape %v", idx, t.shape))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of range for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// Clone returns a deep copy of t.
func (t *Tensor) Clone() *Tensor {
	c := &Tensor{shape: append([]int(nil), t.shape...), data: make([]float64, len(t.data))}
	copy(c.data, t.data)
	return c
}

// Reshape returns a view of t with a new shape of the same volume. The
// returned tensor shares t's backing data.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n := 1
	for _, d := range shape {
		n *= d
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("%w: cannot reshape %v (len %d) to %v", ErrShape, t.shape, len(t.data), shape)
	}
	return &Tensor{shape: append([]int(nil), shape...), data: t.data}, nil
}

// MustReshape is Reshape but panics on error.
func (t *Tensor) MustReshape(shape ...int) *Tensor {
	r, err := t.Reshape(shape...)
	if err != nil {
		panic(err)
	}
	return r
}

// Zero sets every element to 0.
func (t *Tensor) Zero() {
	for i := range t.data {
		t.data[i] = 0
	}
}

// Fill sets every element to v.
func (t *Tensor) Fill(v float64) {
	for i := range t.data {
		t.data[i] = v
	}
}

// ShapeIs reports whether t's shape equals dims. Unlike comparing against
// Shape() it allocates nothing, so buffer-reuse checks can run per
// iteration for free.
func (t *Tensor) ShapeIs(dims ...int) bool {
	if len(t.shape) != len(dims) {
		return false
	}
	for i, d := range dims {
		if t.shape[i] != d {
			return false
		}
	}
	return true
}

// SameShape reports whether t and o have identical shapes.
func (t *Tensor) SameShape(o *Tensor) bool {
	if len(t.shape) != len(o.shape) {
		return false
	}
	for i := range t.shape {
		if t.shape[i] != o.shape[i] {
			return false
		}
	}
	return true
}

// String renders a compact description such as "Tensor[2 3]{...}".
func (t *Tensor) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Tensor%v{", t.shape)
	n := len(t.data)
	show := n
	if show > 8 {
		show = 8
	}
	for i := 0; i < show; i++ {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.4g", t.data[i])
	}
	if n > show {
		fmt.Fprintf(&b, ", … (%d total)", n)
	}
	b.WriteString("}")
	return b.String()
}

// HasNaN reports whether any element is NaN or infinite.
func (t *Tensor) HasNaN() bool {
	for _, v := range t.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return true
		}
	}
	return false
}

// Volume returns the number of elements implied by shape.
func Volume(shape []int) int {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return n
}
