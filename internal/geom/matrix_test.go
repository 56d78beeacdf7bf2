package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMatrixRankBasics(t *testing.T) {
	cases := []struct {
		rows []Vector
		want int
	}{
		{[]Vector{{1, 0}, {0, 1}}, 2},
		{[]Vector{{1, 0}, {2, 0}}, 1},
		{[]Vector{{1, 2, 3}, {2, 4, 6}, {0, 0, 1}}, 2},
		{[]Vector{{0, 0}, {0, 0}}, 0},
		{[]Vector{{1, 1, 1}}, 1},
		{[]Vector{{1, 1}, {1, -1}, {2, 0}}, 2}, // third is the sum
	}
	for i, c := range cases {
		if got := RankOfRows(c.rows); got != c.want {
			t.Errorf("case %d: rank = %d, want %d", i, got, c.want)
		}
	}
}

func TestMatrixRankEmpty(t *testing.T) {
	if got := RankOfRows(nil); got != 0 {
		t.Fatalf("rank of empty = %d", got)
	}
}

func TestSolveSquare(t *testing.T) {
	// 2x + y = 5; x - y = 1 -> x=2, y=1.
	m := MatrixFromRows([]Vector{{2, 1}, {1, -1}})
	x, ok := m.SolveSquare(Vector{5, 1})
	if !ok {
		t.Fatal("solvable system reported singular")
	}
	if !x.Equal(Vector{2, 1}) {
		t.Fatalf("x = %v, want (2,1)", x)
	}
}

func TestSolveSingular(t *testing.T) {
	m := MatrixFromRows([]Vector{{1, 1}, {2, 2}})
	if _, ok := m.SolveSquare(Vector{1, 2}); ok {
		t.Fatal("singular system reported solvable")
	}
}

func TestSolveNeedsPivoting(t *testing.T) {
	// Leading zero forces a row swap.
	m := MatrixFromRows([]Vector{{0, 1}, {1, 0}})
	x, ok := m.SolveSquare(Vector{3, 7})
	if !ok || !x.Equal(Vector{7, 3}) {
		t.Fatalf("x = %v ok=%v, want (7,3)", x, ok)
	}
}

func TestMulVec(t *testing.T) {
	m := MatrixFromRows([]Vector{{1, 2}, {3, 4}, {5, 6}})
	got := m.MulVec(Vector{1, 1})
	if !got.Equal(Vector{3, 7, 11}) {
		t.Fatalf("MulVec = %v", got)
	}
}

func TestMatrixPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"negative":   func() { NewMatrix(-1, 2) },
		"raggedRows": func() { MatrixFromRows([]Vector{{1, 2}, {1}}) },
		"mulDim":     func() { NewMatrix(2, 2).MulVec(Vector{1}) },
		"notSquare":  func() { NewMatrix(2, 3).SolveSquare(Vector{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: for random solvable systems, SolveSquare solves them (residual
// small), and Rank of a product construction behaves: rank(outer products
// of r independent vectors) == r.
func TestQuickSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := NewMatrix(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		b := NewVector(n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, ok := m.SolveSquare(b)
		if !ok {
			return true // random singularities are possible, just rare
		}
		res := m.MulVec(x).Sub(b)
		return res.Norm() <= 1e-7*(1+b.Norm())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: rank is invariant under row scaling and row addition.
func TestQuickRankInvariance(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 2 + rng.Intn(4)
		cols := 2 + rng.Intn(4)
		vs := make([]Vector, rows)
		for i := range vs {
			vs[i] = NewVector(cols)
			for j := range vs[i] {
				vs[i][j] = float64(rng.Intn(7) - 3)
			}
		}
		r1 := RankOfRows(vs)
		// Scale a row by 3 and add row 0 to the last row.
		mod := make([]Vector, rows)
		for i := range vs {
			mod[i] = vs[i].Clone()
		}
		mod[0] = mod[0].Scale(3)
		mod[rows-1] = mod[rows-1].Add(vs[0])
		if math.Abs(float64(RankOfRows(mod)-r1)) > 0 {
			return false
		}
		// Appending a linear combination must not change the rank.
		comb := vs[0].Add(vs[rows-1].Scale(2))
		return RankOfRows(append(append([]Vector{}, vs...), comb)) == r1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// rankRef is Matrix.Rank as it stood before Eliminate: Gauss-Jordan
// elimination that reduces every row, above the pivot as well as below.
// Rank must pick the same pivots and so return the same rank.
func rankRef(m *Matrix, tol float64) int {
	a := m.Clone()
	if tol <= 0 {
		maxAbs := 0.0
		for _, v := range a.Data {
			if av := absFloat(v); av > maxAbs {
				maxAbs = av
			}
		}
		tol = 1e-10 * (1 + maxAbs)
	}
	rank := 0
	for col := 0; col < a.Cols && rank < a.Rows; col++ {
		pivot, pivotVal := -1, tol
		for r := rank; r < a.Rows; r++ {
			if av := absFloat(a.At(r, col)); av > pivotVal {
				pivot, pivotVal = r, av
			}
		}
		if pivot < 0 {
			continue
		}
		a.swapRows(rank, pivot)
		pv := a.At(rank, col)
		for r := 0; r < a.Rows; r++ {
			if r == rank {
				continue
			}
			f := a.At(r, col) / pv
			if f == 0 {
				continue
			}
			for c := col; c < a.Cols; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(rank, c))
			}
		}
		rank++
	}
	return rank
}

// TestRankMatchesReference compares Rank with the Gauss-Jordan reference on
// random matrices: full-rank ones, rank-deficient ones whose extra rows are
// combinations of the others, and ones perturbed near the tolerance, with
// the default and explicit tolerances.
func TestRankMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < 3000; n++ {
		rows, cols := 1+rng.Intn(8), 1+rng.Intn(6)
		m := NewMatrix(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.Float64()*2 - 1
		}
		if n%3 == 1 && rows > 1 {
			// Rows past the first two are combinations of them.
			for r := 2; r < rows; r++ {
				a, b := rng.Float64(), rng.Float64()
				for c := 0; c < cols; c++ {
					m.Set(r, c, a*m.At(0, c)+b*m.At(1%rows, c))
				}
			}
		}
		if n%3 == 2 {
			for i := range m.Data {
				m.Data[i] = float64(rng.Intn(3)-1) + float64(rng.Intn(3)-1)*1e-10
			}
		}
		for _, tol := range []float64{0, 1e-9, 0.5} {
			if got, want := m.Rank(tol), rankRef(m, tol); got != want {
				t.Fatalf("matrix %v (%dx%d), tol %g: Rank = %d, reference %d", m.Data, rows, cols, tol, got, want)
			}
		}
	}
}
