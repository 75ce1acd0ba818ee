package tensor

import (
	"math"
	"sort"
	"sync"
	"testing"
)

func naiveGemm(a, b []float64, m, k, n int) []float64 {
	c := make([]float64, m*n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[p*n+j]
			}
			c[i*n+j] = s
		}
	}
	return c
}

func fillSeq(n int, seed float64) []float64 {
	v := make([]float64, n)
	x := seed
	for i := range v {
		x = math.Mod(x*1103515245+12345, 1021)
		v[i] = (x - 510) / 97
	}
	return v
}

// TestGemmBlockedCrossesPanels: shapes chosen to straddle the kc/nc block
// boundaries (k > gemmBlockK, n > gemmBlockN) so every panel loop runs
// more than once, including ragged tails.
func TestGemmBlockedCrossesPanels(t *testing.T) {
	shapes := [][3]int{
		{1, gemmBlockK + 1, gemmBlockN + 1},
		{5, 2*gemmBlockK + 7, gemmBlockN + 13},
		{9, gemmBlockK - 1, 2*gemmBlockN + 3},
		{4, 300, 1100},
		{7, 1, 1},
	}
	for _, s := range shapes {
		m, k, n := s[0], s[1], s[2]
		a := fillSeq(m*k, 3)
		b := fillSeq(k*n, 17)
		want := naiveGemm(a, b, m, k, n)
		c := make([]float64, m*n)
		Gemm(c, a, b, m, k, n, false)
		for i := range c {
			if math.Abs(c[i]-want[i]) > 1e-9 {
				t.Fatalf("m=%d k=%d n=%d: c[%d] = %v, want %v", m, k, n, i, c[i], want[i])
			}
		}
		// Accumulate path: running it again must exactly double.
		Gemm(c, a, b, m, k, n, true)
		for i := range c {
			if math.Abs(c[i]-2*want[i]) > 1e-9 {
				t.Fatalf("accumulate m=%d k=%d n=%d: c[%d] = %v, want %v", m, k, n, i, c[i], 2*want[i])
			}
		}
	}
}

// TestGemmEpilogueCoversRowsOnce: the epilogue hook sees every output row
// exactly once, as contiguous [lo, hi) ranges.
func TestGemmEpilogueCoversRowsOnce(t *testing.T) {
	const m, k, n = 37, 20, 12
	a := fillSeq(m*k, 5)
	b := fillSeq(k*n, 7)
	c := make([]float64, m*n)
	var mu sync.Mutex
	var ranges [][2]int
	GemmEpilogue(c, a, b, m, k, n, false, func(lo, hi int) {
		mu.Lock()
		ranges = append(ranges, [2]int{lo, hi})
		mu.Unlock()
	})
	sort.Slice(ranges, func(i, j int) bool { return ranges[i][0] < ranges[j][0] })
	next := 0
	for _, r := range ranges {
		if r[0] != next || r[1] <= r[0] {
			t.Fatalf("epilogue ranges %v do not tile [0,%d)", ranges, m)
		}
		next = r[1]
	}
	if next != m {
		t.Fatalf("epilogue covered [0,%d), want [0,%d)", next, m)
	}
}

// TestGemmEpilogueSeesFinishedRows: by the time epi(lo, hi) runs, rows
// [lo, hi) must hold the final GEMM result (the fused-bias contract).
func TestGemmEpilogueSeesFinishedRows(t *testing.T) {
	const m, k, n = 24, 150, 600 // k, n cross the panel sizes
	a := fillSeq(m*k, 11)
	b := fillSeq(k*n, 13)
	want := naiveGemm(a, b, m, k, n)
	c := make([]float64, m*n)
	errc := make(chan string, 1)
	GemmEpilogue(c, a, b, m, k, n, false, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			for j := 0; j < n; j++ {
				if math.Abs(c[i*n+j]-want[i*n+j]) > 1e-9 {
					select {
					case errc <- "epilogue ran before row was complete":
					default:
					}
					return
				}
			}
		}
	})
	select {
	case msg := <-errc:
		t.Fatal(msg)
	default:
	}
}

// TestGemmTransBAccumulateAndTile: the tile outputs and their ragged
// edges agree with the naive transposed product, in both overwrite and
// accumulate modes.
func TestGemmTransBAccumulateAndTile(t *testing.T) {
	for _, s := range [][3]int{{4, 9, 2}, {5, 3, 7}, {8, 16, 8}, {1, 5, 1}, {6, 1, 3}} {
		m, k, n := s[0], s[1], s[2]
		a := fillSeq(m*k, 19)
		b := fillSeq(n*k, 23)
		want := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a[i*k+p] * b[j*k+p]
				}
				want[i*n+j] = s
			}
		}
		c := fillSeq(m*n, 29)
		base := append([]float64(nil), c...)
		GemmTransB(c, a, b, m, k, n, true, nil)
		for i := range c {
			if math.Abs(c[i]-(base[i]+want[i])) > 1e-9 {
				t.Fatalf("accumulate m=%d k=%d n=%d: c[%d] = %v, want %v", m, k, n, i, c[i], base[i]+want[i])
			}
		}
		GemmTransB(c, a, b, m, k, n, false, nil)
		for i := range c {
			if math.Abs(c[i]-want[i]) > 1e-9 {
				t.Fatalf("overwrite m=%d k=%d n=%d: c[%d] = %v, want %v", m, k, n, i, c[i], want[i])
			}
		}
	}
}

// TestGemmTransABlocked: the column-panelled Aᵀ·B kernel agrees with the
// naive product for shapes that cross the nc panel width.
func TestGemmTransABlocked(t *testing.T) {
	for _, s := range [][3]int{{6, 4, gemmBlockN + 9}, {9, 7, 33}, {4, 1, 2}, {1, 3, 5}} {
		m, k, n := s[0], s[1], s[2]
		a := fillSeq(k*m, 31) // k×m
		b := fillSeq(k*n, 37) // k×n
		want := make([]float64, m*n)
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				s := 0.0
				for p := 0; p < k; p++ {
					s += a[p*m+i] * b[p*n+j]
				}
				want[i*n+j] = s
			}
		}
		c := make([]float64, m*n)
		GemmTransA(c, a, b, m, k, n)
		for i := range c {
			if math.Abs(c[i]-want[i]) > 1e-9 {
				t.Fatalf("m=%d k=%d n=%d: c[%d] = %v, want %v", m, k, n, i, c[i], want[i])
			}
		}
	}
}
