package tensor

import (
	"fmt"
	"math"
)

// Add computes dst[i] += src[i]. Shapes must have equal volume.
func Add(dst, src *Tensor) error {
	if len(dst.data) != len(src.data) {
		return fmt.Errorf("%w: add %v to %v", ErrShape, src.shape, dst.shape)
	}
	for i, v := range src.data {
		dst.data[i] += v
	}
	return nil
}

// Sub computes dst[i] -= src[i]. Shapes must have equal volume.
func Sub(dst, src *Tensor) error {
	if len(dst.data) != len(src.data) {
		return fmt.Errorf("%w: sub %v from %v", ErrShape, src.shape, dst.shape)
	}
	for i, v := range src.data {
		dst.data[i] -= v
	}
	return nil
}

// Mul computes dst[i] *= src[i] (Hadamard product).
func Mul(dst, src *Tensor) error {
	if len(dst.data) != len(src.data) {
		return fmt.Errorf("%w: mul %v into %v", ErrShape, src.shape, dst.shape)
	}
	for i, v := range src.data {
		dst.data[i] *= v
	}
	return nil
}

// Scale multiplies every element of t by s.
func Scale(t *Tensor, s float64) {
	for i := range t.data {
		t.data[i] *= s
	}
}

// AXPY computes dst[i] += alpha*src[i].
func AXPY(alpha float64, src, dst *Tensor) error {
	if len(dst.data) != len(src.data) {
		return fmt.Errorf("%w: axpy %v into %v", ErrShape, src.shape, dst.shape)
	}
	for i, v := range src.data {
		dst.data[i] += alpha * v
	}
	return nil
}

// ArgMaxRow returns, for a 2-D tensor, the column index of the maximum in
// the given row.
func ArgMaxRow(t *Tensor, row int) int {
	if len(t.shape) != 2 {
		panic(fmt.Sprintf("tensor: ArgMaxRow on %v-dim tensor", len(t.shape)))
	}
	cols := t.shape[1]
	base := row * cols
	best, idx := math.Inf(-1), -1
	for j := 0; j < cols; j++ {
		if v := t.data[base+j]; v > best {
			best, idx = v, j
		}
	}
	return idx
}

// Norm2 returns the Euclidean norm of t viewed as a flat vector.
func Norm2(t *Tensor) float64 {
	s := 0.0
	for _, v := range t.data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Clamp limits every element to the closed interval [lo, hi].
func Clamp(t *Tensor, lo, hi float64) {
	for i, v := range t.data {
		if v < lo {
			t.data[i] = lo
		} else if v > hi {
			t.data[i] = hi
		}
	}
}

// Sign writes the elementwise sign of src into dst: 1 for positive, -1 for
// negative, 0 for zero — the sign() function of the paper's Equation (1).
func Sign(dst, src *Tensor) error {
	if len(dst.data) != len(src.data) {
		return fmt.Errorf("%w: sign %v into %v", ErrShape, src.shape, dst.shape)
	}
	for i, v := range src.data {
		switch {
		case v > 0:
			dst.data[i] = 1
		case v < 0:
			dst.data[i] = -1
		default:
			dst.data[i] = 0
		}
	}
	return nil
}
