package lp

import "sync"

// scratch holds every intermediate buffer one solve needs: the expanded
// constraint rows, the dense tableau, the basis bookkeeping and the solution
// staging area. Solves check buffers out of a sync.Pool and return them on
// exit, so steady-state solving allocates only the one slice that backs
// Result.X and Result.Dual (the zero-alloc simplex layer; see BenchmarkSolve
// and TestSolveAllocs). Reused memory is explicitly re-zeroed to the state a
// fresh make would give, so the pivot sequence — and therefore every Result
// and traced iteration count — is bit-identical to the allocating solver
// this replaced.
type scratch struct {
	negCol    []int
	basis     []int
	rhs       []float64
	rel       []Relation
	negated   []bool    // rows multiplied by −1 to make their RHS nonnegative
	initBasis []int     // each row's column in the initial (identity) basis
	rowArena  []float64 // m expanded constraint rows + the expanded objective
	tabBuf    []float64 // flat (m+1) x (total+1) tableau backing
	tab       [][]float64
	artCols   []bool
	xStd      []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// floats returns a zeroed []float64 of length n, reusing *buf's backing
// array when it is big enough and storing the result back through buf so the
// capacity survives for the next solve.
func floats(buf *[]float64, n int) []float64 {
	s := *buf
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// ints is floats for []int.
func ints(buf *[]int, n int) []int {
	s := *buf
	if cap(s) < n {
		s = make([]int, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// bools is floats for []bool.
func bools(buf *[]bool, n int) []bool {
	s := *buf
	if cap(s) < n {
		s = make([]bool, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// rels is floats for []Relation.
func rels(buf *[]Relation, n int) []Relation {
	s := *buf
	if cap(s) < n {
		s = make([]Relation, n)
	} else {
		s = s[:n]
		clear(s)
	}
	*buf = s
	return s
}

// rowPtrs returns a row-pointer slice of length n (contents are overwritten
// by the caller, so no zeroing is needed).
func rowPtrs(buf *[][]float64, n int) [][]float64 {
	s := *buf
	if cap(s) < n {
		s = make([][]float64, n)
	} else {
		s = s[:n]
	}
	*buf = s
	return s
}
