package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

// TestGEMMBlockedMatchesScalarTail: the 4-row register block and the
// scalar remainder path must agree for every row count around the block
// boundary.
func TestGEMMBlockedMatchesScalarTail(t *testing.T) {
	rng := NewRNG(70)
	for m := 1; m <= 9; m++ {
		k, n := 7, 5
		a, b := New(m, k), New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		got := New(m, n)
		Gemm(got.Data(), a.Data(), b.Data(), m, k, n, false)
		want := naiveMatMul(a, b)
		for i := range got.Data() {
			if math.Abs(got.Data()[i]-want.Data()[i]) > 1e-10 {
				t.Fatalf("m=%d: blocked[%d]=%v naive=%v", m, i, got.Data()[i], want.Data()[i])
			}
		}
	}
}

// TestTransposedKernelsProperty: for random shapes,
// GemmTransA(Aᵀ stored) and GemmTransB(Bᵀ stored) agree with the naive
// product of the equivalent operands.
func TestTransposedKernelsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		m, k, n := 1+rng.Intn(10), 1+rng.Intn(10), 1+rng.Intn(10)
		a, b := New(m, k), New(k, n)
		rng.FillNormal(a, 0, 1)
		rng.FillNormal(b, 0, 1)
		want := naiveMatMul(a, b)

		at := New(k, m)
		for i := 0; i < m; i++ {
			for p := 0; p < k; p++ {
				at.Set(a.At(i, p), p, i)
			}
		}
		gotA := New(m, n)
		GemmTransA(gotA.Data(), at.Data(), b.Data(), m, k, n)
		bt := New(n, k)
		for p := 0; p < k; p++ {
			for j := 0; j < n; j++ {
				bt.Set(b.At(p, j), j, p)
			}
		}
		gotB := New(m, n)
		GemmTransB(gotB.Data(), a.Data(), bt.Data(), m, k, n, false, nil)
		for i := range want.Data() {
			if math.Abs(gotA.Data()[i]-want.Data()[i]) > 1e-9 {
				return false
			}
			if math.Abs(gotB.Data()[i]-want.Data()[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestRNGSplitDecorrelated: a split stream must not track its parent.
func TestRNGSplitDecorrelated(t *testing.T) {
	parent := NewRNG(1234)
	child := parent.Split()
	same := 0
	for i := 0; i < 200; i++ {
		if parent.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("parent and split streams coincide on %d/200 draws", same)
	}
}

// TestConvGeomProperty: output dims shrink monotonically with stride and
// grow with padding, for any valid geometry.
func TestConvGeomProperty(t *testing.T) {
	f := func(seed uint64) bool {
		rng := NewRNG(seed)
		g := ConvGeom{
			InC: 1, InH: 6 + rng.Intn(26), InW: 6 + rng.Intn(26),
			KH: 1 + rng.Intn(5), KW: 1 + rng.Intn(5),
			StrideH: 1 + rng.Intn(3), StrideW: 1 + rng.Intn(3),
			PadH: rng.Intn(3), PadW: rng.Intn(3),
			OutC: 1,
		}
		if g.Validate() != nil {
			return true
		}
		wider := g
		wider.PadH++
		if wider.OutH() < g.OutH() {
			return false
		}
		slower := g
		slower.StrideH++
		if slower.Validate() == nil && slower.OutH() > g.OutH() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
