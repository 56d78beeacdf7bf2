package core

import (
	"slices"

	"ist/internal/geom"
	"ist/internal/polytope"
)

// gammaRow is one row of the list Γ: a candidate question hyperplane between
// two convex points.
type gammaRow struct {
	i, j int // point indices
	h    geom.Hyperplane
}

// gammaTable is Γ with cached partition classifications. The paper
// recomputes every row's relationship to every partition after each answer;
// because a cut can only shrink partitions, a cached Above/Below
// classification stays valid forever and only Intersect entries ever need
// rechecking. The classes sit in one block, one column per partition, and
// an answer touches only what it changed: a removed partition's column
// leaves the live rows' counts, a cut partition's column has its Intersect
// entries rechecked in place, and a partition wholly above the answer is
// not read.
type gammaTable struct {
	rows []gammaRow
	// block[col·len(rows)+r] is row r's class against the partition whose
	// column is col; cols[ci] is the column of C[ci].
	block []int8
	cols  []int
	// counts[r][c] counts the partitions of class c against row r, with a
	// slot for every class, On and Empty too: N+, N− and N∩ of
	// Definition 5.4 are its Above, Below and Intersect slots.
	counts [][polytope.ClassEmpty + 1]int32
	// live lists the rows that can still split R, in row order.
	live []int
	opt  HDPIOptions
}

// buildGamma constructs Γ rows for all pairs of the given point indices.
func buildGamma(points []geom.Vector, V []int) []gammaRow {
	var gamma []gammaRow
	for a := 0; a < len(V); a++ {
		for b := a + 1; b < len(V); b++ {
			h := geom.NewHyperplane(points[V[a]], points[V[b]])
			if h.Degenerate() {
				continue
			}
			gamma = append(gamma, gammaRow{i: V[a], j: V[b], h: h})
		}
	}
	return gamma
}

// newGammaTable classifies every row against every partition once, cell by
// cell, each cell classifying all rows in one ClassifyEach call into its
// column, and leaves out of the live list the rows that cannot split R.
func newGammaTable(points []geom.Vector, V []int, C []partition, opt HDPIOptions) *gammaTable {
	rows := buildGamma(points, V)
	hs := make([]geom.Hyperplane, len(rows))
	for r, row := range rows {
		hs[r] = row.h
	}
	n := len(rows)
	g := &gammaTable{
		rows:   rows,
		block:  make([]int8, n*len(C)),
		cols:   make([]int, len(C)),
		counts: make([][polytope.ClassEmpty + 1]int32, n),
		opt:    opt,
	}
	out := make([]polytope.Class, n)
	for ci, part := range C {
		part.poly.ClassifyEach(hs, opt.Strategy, opt.Stats, out)
		col := g.block[ci*n : (ci+1)*n]
		for r, c := range out {
			col[r] = int8(c)
			g.counts[r][c]++
		}
		g.cols[ci] = ci
	}
	for r := range rows {
		if g.splits(r) {
			g.live = append(g.live, r)
		}
	}
	return g
}

// splits reports whether row r can still split R: some partition straddles
// it, or partitions lie on both sides. Otherwise the preference is already
// implied over R.
func (g *gammaTable) splits(r int) bool {
	cnt := &g.counts[r]
	return cnt[polytope.ClassIntersect] > 0 || (cnt[polytope.ClassAbove] > 0 && cnt[polytope.ClassBelow] > 0)
}

// class returns row r's cached class against C[ci].
func (g *gammaTable) class(r, ci int) polytope.Class {
	return polytope.Class(g.block[g.cols[ci]*len(g.rows)+r])
}

// best returns the index in rows of the live row with the highest even
// score min{N+, N−} − βN (Definition 5.4), or -1 when no informative row
// remains.
func (g *gammaTable) best() int {
	bestRow, bestScore := -1, 0.0
	for _, r := range g.live {
		cnt := &g.counts[r]
		score := float64(min(cnt[polytope.ClassAbove], cnt[polytope.ClassBelow])) - g.opt.Beta*float64(cnt[polytope.ClassIntersect])
		if bestRow == -1 || score > bestScore {
			bestRow, bestScore = r, score
		}
	}
	return bestRow
}

// apply cuts the partition set with the answered halfspace h (the user's
// utility vector is in h+), retires the asked row, updates the cached
// classifications in place, and returns the surviving partitions, compacted
// in C's own array.
func (g *gammaTable) apply(h geom.Hyperplane, C []partition, asked int) []partition {
	if x := slices.Index(g.live, asked); x >= 0 {
		g.live = slices.Delete(g.live, x, x+1)
	}
	n := len(g.rows)
	kept := 0
	for ci, part := range C {
		col := g.block[g.cols[ci]*n : (g.cols[ci]+1)*n]
		switch part.poly.ClassifyWith(h, g.opt.Strategy, g.opt.Stats) {
		case polytope.ClassAbove: // untouched
		case polytope.ClassIntersect:
			part.poly.CutObserved(h, g.opt.Observer)
			if part.poly.IsEmpty() {
				g.remove(col)
				continue
			}
			// The partition shrank: an Intersect entry may have resolved.
			for _, r := range g.live {
				if polytope.Class(col[r]) != polytope.ClassIntersect {
					continue
				}
				if c := part.poly.ClassifyWith(g.rows[r].h, g.opt.Strategy, g.opt.Stats); c != polytope.ClassIntersect {
					col[r] = int8(c)
					g.counts[r][polytope.ClassIntersect]--
					g.counts[r][c]++
				}
			}
		default: // Below, On, Empty: cannot contain the utility vector
			g.remove(col)
			continue
		}
		C[kept], g.cols[kept] = part, g.cols[ci]
		kept++
	}
	clear(C[kept:])
	g.cols = g.cols[:kept]
	g.live = slices.DeleteFunc(g.live, func(r int) bool { return !g.splits(r) })
	return C[:kept]
}

// remove takes a removed partition's column out of the live rows' counts.
func (g *gammaTable) remove(col []int8) {
	for _, r := range g.live {
		g.counts[r][col[r]]--
	}
}
