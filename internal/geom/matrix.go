package geom

import "fmt"

// Matrix is a small dense row-major matrix used for the rank and linear
// solves the polytope machinery needs (vertex tests, degeneracy handling).
// Dimensions in this codebase never exceed a few dozen, so the plain
// Gaussian-elimination algorithms below are both adequate and dependable.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("geom: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatrixFromRows builds a matrix from row vectors (which are copied). All
// rows must share a length.
func MatrixFromRows(rows []Vector) *Matrix {
	if len(rows) == 0 {
		return NewMatrix(0, 0)
	}
	m := NewMatrix(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			panic(fmt.Sprintf("geom: row %d has %d entries, want %d", i, len(r), m.Cols))
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m
}

// At returns m[i,j].
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns m[i,j].
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := NewMatrix(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Row returns row i as a Vector view (not a copy).
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// MulVec returns m·x.
func (m *Matrix) MulVec(x Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("geom: MulVec dimension %d vs %d columns", len(x), m.Cols))
	}
	out := NewVector(m.Rows)
	for i := 0; i < m.Rows; i++ {
		out[i] = m.Row(i).Dot(x)
	}
	return out
}

// Rank returns the numerical rank of m under the tolerance tol (entries with
// magnitude <= tol after elimination count as zero). Pass tol <= 0 for a
// default scaled from the matrix magnitude.
func (m *Matrix) Rank(tol float64) int { return m.Clone().Eliminate(tol) }

// Eliminate is Rank without the copy: it reduces m in place by Gaussian
// elimination with partial pivoting and returns its numerical rank, under
// the same tolerance rule, leaving m's entries as scratch. A caller that
// stages rows in its own buffer gets the rank without allocating.
//
// Rows already used as pivots are never read again, so only the rows below
// each pivot are reduced; the pivots, and so the rank, are those that
// reducing every row (Gauss-Jordan) would pick.
func (m *Matrix) Eliminate(tol float64) int {
	if tol <= 0 {
		maxAbs := 0.0
		for _, v := range m.Data {
			if av := absFloat(v); av > maxAbs {
				maxAbs = av
			}
		}
		tol = 1e-10 * (1 + maxAbs)
	}
	rank := 0
	for col := 0; col < m.Cols && rank < m.Rows; col++ {
		// Partial pivoting within the column.
		pivot, pivotVal := -1, tol
		for r := rank; r < m.Rows; r++ {
			if av := absFloat(m.At(r, col)); av > pivotVal {
				pivot, pivotVal = r, av
			}
		}
		if pivot < 0 {
			continue
		}
		m.swapRows(rank, pivot)
		pr := m.Row(rank)
		pv := pr[col]
		for r := rank + 1; r < m.Rows; r++ {
			row := m.Row(r)
			f := row[col] / pv
			if f == 0 {
				continue
			}
			for c := col; c < len(row); c++ {
				row[c] = row[c] - f*pr[c]
			}
		}
		rank++
	}
	return rank
}

// SolveSquare solves m·x = b for square m by Gaussian elimination with
// partial pivoting. It reports ok=false for (numerically) singular systems.
func (m *Matrix) SolveSquare(b Vector) (Vector, bool) {
	if m.Rows != m.Cols {
		panic("geom: SolveSquare needs a square matrix")
	}
	n := m.Rows
	if len(b) != n {
		panic("geom: SolveSquare dimension mismatch")
	}
	a := m.Clone()
	x := b.Clone()
	for col := 0; col < n; col++ {
		pivot, pivotVal := -1, 1e-12
		for r := col; r < n; r++ {
			if av := absFloat(a.At(r, col)); av > pivotVal {
				pivot, pivotVal = r, av
			}
		}
		if pivot < 0 {
			return nil, false
		}
		a.swapRows(col, pivot)
		x[col], x[pivot] = x[pivot], x[col]
		pv := a.At(col, col)
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := a.At(r, col) / pv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a.Set(r, c, a.At(r, c)-f*a.At(col, c))
			}
			x[r] -= f * x[col]
		}
	}
	for i := 0; i < n; i++ {
		x[i] /= a.At(i, i)
	}
	return x, true
}

func (m *Matrix) swapRows(i, j int) {
	if i == j {
		return
	}
	ri := m.Data[i*m.Cols : (i+1)*m.Cols]
	rj := m.Data[j*m.Cols : (j+1)*m.Cols]
	for c := range ri {
		ri[c], rj[c] = rj[c], ri[c]
	}
}

func absFloat(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// RankOfRows is a convenience wrapper: the rank of the matrix whose rows are
// the given vectors.
func RankOfRows(rows []Vector) int {
	return MatrixFromRows(rows).Rank(0)
}
