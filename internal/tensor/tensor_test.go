package tensor

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestNewShapeAndLen(t *testing.T) {
	tests := []struct {
		name  string
		shape []int
		want  int
	}{
		{name: "scalar", shape: nil, want: 1},
		{name: "vector", shape: []int{5}, want: 5},
		{name: "matrix", shape: []int{3, 4}, want: 12},
		{name: "image", shape: []int{3, 32, 32}, want: 3072},
		{name: "zero dim", shape: []int{0, 7}, want: 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ten := New(tt.shape...)
			if ten.Len() != tt.want {
				t.Fatalf("Len() = %d, want %d", ten.Len(), tt.want)
			}
			if got := ten.Shape(); len(got) != len(tt.shape) {
				t.Fatalf("Shape() = %v, want %v", got, tt.shape)
			}
		})
	}
}

func TestAtSetRoundTrip(t *testing.T) {
	ten := New(2, 3, 4)
	v := 0.0
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			for k := 0; k < 4; k++ {
				ten.Set(v, i, j, k)
				v++
			}
		}
	}
	// Row-major layout: flat index must equal the value we wrote.
	for i, got := range ten.Data() {
		if got != float64(i) {
			t.Fatalf("flat[%d] = %v, want %v (row-major layout broken)", i, got, i)
		}
	}
	if got := ten.At(1, 2, 3); got != 23 {
		t.Fatalf("At(1,2,3) = %v, want 23", got)
	}
}

func TestFromRejectsBadLength(t *testing.T) {
	if _, err := From([]float64{1, 2, 3}, 2, 2); !errors.Is(err, ErrShape) {
		t.Fatalf("From with wrong length: err = %v, want ErrShape", err)
	}
}

func TestReshapeSharesData(t *testing.T) {
	a := MustFrom([]float64{1, 2, 3, 4, 5, 6}, 2, 3)
	b, err := a.Reshape(3, 2)
	if err != nil {
		t.Fatalf("Reshape: %v", err)
	}
	b.Set(99, 0, 0)
	if a.At(0, 0) != 99 {
		t.Fatal("Reshape must return a view sharing storage")
	}
	if _, err := a.Reshape(4, 2); !errors.Is(err, ErrShape) {
		t.Fatalf("Reshape to wrong volume: err = %v, want ErrShape", err)
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := MustFrom([]float64{1, 2}, 2)
	b := a.Clone()
	b.Set(7, 0)
	if a.At(0) != 1 {
		t.Fatal("Clone must copy data")
	}
}

func TestElementwiseOps(t *testing.T) {
	a := MustFrom([]float64{1, 2, 3}, 3)
	b := MustFrom([]float64{10, 20, 30}, 3)
	if err := Add(a, b); err != nil {
		t.Fatalf("Add: %v", err)
	}
	want := []float64{11, 22, 33}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("Add result[%d] = %v, want %v", i, v, want[i])
		}
	}
	if err := Sub(a, b); err != nil {
		t.Fatalf("Sub: %v", err)
	}
	for i, v := range a.Data() {
		if v != float64(i+1) {
			t.Fatalf("Sub result[%d] = %v, want %v", i, v, i+1)
		}
	}
	if err := Mul(a, b); err != nil {
		t.Fatalf("Mul: %v", err)
	}
	wantMul := []float64{10, 40, 90}
	for i, v := range a.Data() {
		if v != wantMul[i] {
			t.Fatalf("Mul result[%d] = %v, want %v", i, v, wantMul[i])
		}
	}
	Scale(a, 0.5)
	if a.At(2) != 45 {
		t.Fatalf("Scale: got %v, want 45", a.At(2))
	}
	c := New(4)
	if err := Add(a, c); !errors.Is(err, ErrShape) {
		t.Fatalf("Add mismatched: err = %v, want ErrShape", err)
	}
}

func TestArgMaxRow(t *testing.T) {
	m := MustFrom([]float64{
		0.1, 0.9, 0.0,
		0.5, 0.2, 0.3,
	}, 2, 3)
	if got := ArgMaxRow(m, 0); got != 1 {
		t.Fatalf("ArgMaxRow(0) = %d, want 1", got)
	}
	if got := ArgMaxRow(m, 1); got != 0 {
		t.Fatalf("ArgMaxRow(1) = %d, want 0", got)
	}
}

func TestSign(t *testing.T) {
	src := MustFrom([]float64{-2, 0, 3.5}, 3)
	dst := New(3)
	if err := Sign(dst, src); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	want := []float64{-1, 0, 1}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("Sign[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestClamp(t *testing.T) {
	a := MustFrom([]float64{-3, 0.5, 9}, 3)
	Clamp(a, 0, 1)
	want := []float64{0, 0.5, 1}
	for i, v := range a.Data() {
		if v != want[i] {
			t.Fatalf("Clamp[%d] = %v, want %v", i, v, want[i])
		}
	}
}

// naiveMatMul is the reference implementation used to validate the
// parallel GEMM kernels.
func naiveMatMul(a, b *Tensor) *Tensor {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	c := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a.At(i, p) * b.At(p, j)
			}
			c.Set(s, i, j)
		}
	}
	return c
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := NewRNG(42)
	shapes := []struct{ m, k, n int }{
		{1, 1, 1}, {2, 3, 4}, {5, 5, 5}, {17, 9, 13}, {70, 31, 24}, {128, 64, 10},
	}
	for _, s := range shapes {
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		got := New(s.m, s.n)
		Gemm(got.Data(), a.Data(), b.Data(), s.m, s.k, s.n, false)
		want := naiveMatMul(a, b)
		for i := range got.Data() {
			if math.Abs(got.Data()[i]-want.Data()[i]) > 1e-9 {
				t.Fatalf("Gemm(%dx%dx%d)[%d] = %v, want %v", s.m, s.k, s.n, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

func TestMatMulAddAccumulates(t *testing.T) {
	a := MustFrom([]float64{1, 0, 0, 1}, 2, 2) // identity
	b := MustFrom([]float64{1, 2, 3, 4}, 2, 2)
	dst := MustFrom([]float64{10, 10, 10, 10}, 2, 2)
	Gemm(dst.Data(), a.Data(), b.Data(), 2, 2, 2, true)
	want := []float64{11, 12, 13, 14}
	for i, v := range dst.Data() {
		if v != want[i] {
			t.Fatalf("Gemm accumulate[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestMatMulTransposedVariants(t *testing.T) {
	rng := NewRNG(7)
	m, k, n := 13, 8, 11
	a := New(m, k)
	b := New(k, n)
	rng.FillNormal(a, 0, 1)
	rng.FillNormal(b, 0, 1)
	want := naiveMatMul(a, b)

	// Aᵀ path: store A transposed (k×m), ask for Aᵀ·B.
	at := New(k, m)
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			at.Set(a.At(i, p), p, i)
		}
	}
	got := New(m, n)
	GemmTransA(got.Data(), at.Data(), b.Data(), m, k, n)
	for i := range got.Data() {
		if math.Abs(got.Data()[i]-want.Data()[i]) > 1e-9 {
			t.Fatalf("GemmTransA[%d] = %v, want %v", i, got.Data()[i], want.Data()[i])
		}
	}

	// Bᵀ path: store B transposed (n×k), ask for A·Bᵀ.
	bt := New(n, k)
	for p := 0; p < k; p++ {
		for j := 0; j < n; j++ {
			bt.Set(b.At(p, j), j, p)
		}
	}
	got2 := New(m, n)
	GemmTransB(got2.Data(), a.Data(), bt.Data(), m, k, n, false, nil)
	for i := range got2.Data() {
		if math.Abs(got2.Data()[i]-want.Data()[i]) > 1e-9 {
			t.Fatalf("GemmTransB[%d] = %v, want %v", i, got2.Data()[i], want.Data()[i])
		}
	}
}

// TestMatMulPropertyLinearity checks, property-based, that
// (αA)·B == α(A·B) and A·(B+C) == A·B + A·C for random matrices.
func TestMatMulPropertyLinearity(t *testing.T) {
	rng := NewRNG(99)
	f := func(seed uint64) bool {
		r := NewRNG(seed ^ rng.Uint64())
		m, k, n := 1+r.Intn(12), 1+r.Intn(12), 1+r.Intn(12)
		alpha := r.NormFloat64()
		a, b, c := New(m, k), New(k, n), New(k, n)
		r.FillNormal(a, 0, 1)
		r.FillNormal(b, 0, 1)
		r.FillNormal(c, 0, 1)

		ab := New(m, n)
		Gemm(ab.Data(), a.Data(), b.Data(), m, k, n, false)
		scaledA := a.Clone()
		Scale(scaledA, alpha)
		left := New(m, n)
		Gemm(left.Data(), scaledA.Data(), b.Data(), m, k, n, false)
		for i := range left.Data() {
			if math.Abs(left.Data()[i]-alpha*ab.Data()[i]) > 1e-8 {
				return false
			}
		}

		bc := b.Clone()
		_ = Add(bc, c)
		lhs := New(m, n)
		Gemm(lhs.Data(), a.Data(), bc.Data(), m, k, n, false)
		ac := New(m, n)
		Gemm(ac.Data(), a.Data(), c.Data(), m, k, n, false)
		for i := range lhs.Data() {
			if math.Abs(lhs.Data()[i]-(ab.Data()[i]+ac.Data()[i])) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNorm2(t *testing.T) {
	a := MustFrom([]float64{3, 4}, 2)
	if got := Norm2(a); math.Abs(got-5) > 1e-12 {
		t.Fatalf("Norm2 = %v, want 5", got)
	}
}
