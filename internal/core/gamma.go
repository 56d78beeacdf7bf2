package core

import (
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
// rechecking, which turns the per-round cost from
// O(rows·partitions·vertices) into O(rows·changed-partitions).
type gammaTable struct {
	rows    []gammaRow
	classes [][]int8 // classes[r][c]: relationship of row r to partition c
	nAbove  []int
	nBelow  []int
	nInt    []int
	opt     HDPIOptions
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

// newGammaTable classifies every row against every partition once and drops
// rows that cannot split R. It goes cell by cell, each cell classifying all
// rows in one ClassifyEach call, and keeps the classes of all rows in one
// block; a row's classes are its slice of the block.
func newGammaTable(points []geom.Vector, V []int, C []partition, opt HDPIOptions) *gammaTable {
	rows := buildGamma(points, V)
	hs := make([]geom.Hyperplane, len(rows))
	for r, row := range rows {
		hs[r] = row.h
	}
	nc := len(C)
	block := make([]int8, len(rows)*nc)
	nAbove, nBelow, nInt := make([]int, len(rows)), make([]int, len(rows)), make([]int, len(rows))
	out := make([]polytope.Class, len(rows))
	for ci, part := range C {
		part.poly.ClassifyEach(hs, opt.Strategy, opt.Stats, out)
		for r, c := range out {
			block[r*nc+ci] = int8(c)
			switch c {
			case polytope.ClassAbove:
				nAbove[r]++
			case polytope.ClassBelow:
				nBelow[r]++
			case polytope.ClassIntersect:
				nInt[r]++
			}
		}
	}
	g := &gammaTable{opt: opt, rows: rows[:0], nAbove: nAbove[:0], nBelow: nBelow[:0], nInt: nInt[:0]}
	for r, row := range rows {
		na, nb, ni := nAbove[r], nBelow[r], nInt[r]
		if ni == 0 && (na == 0 || nb == 0) {
			continue // preference already implied over R
		}
		g.rows = append(g.rows, row)
		g.classes = append(g.classes, block[r*nc:(r+1)*nc:(r+1)*nc])
		g.nAbove = append(g.nAbove, na)
		g.nBelow = append(g.nBelow, nb)
		g.nInt = append(g.nInt, ni)
	}
	return g
}

// best returns the index of the row with the highest even score
// min{N+, N−} − βN (Definition 5.4), or -1 when no informative row remains.
func (g *gammaTable) best() int {
	bestRow, bestScore := -1, 0.0
	for r := range g.rows {
		score := float64(min(g.nAbove[r], g.nBelow[r])) - g.opt.Beta*float64(g.nInt[r])
		if bestRow == -1 || score > bestScore {
			bestRow, bestScore = r, score
		}
	}
	return bestRow
}

// apply cuts the partition set with the answered halfspace h (the user's
// utility vector is in h+), removes the asked row, updates all cached
// classifications incrementally, and returns the surviving partitions.
func (g *gammaTable) apply(h geom.Hyperplane, C []partition, asked int) []partition {
	// Classify and update partitions first, remembering the fate of each
	// old index: its new index, or -1 when removed; cutPart marks shrunk
	// partitions whose Intersect cache entries must be rechecked.
	newIdx := make([]int, len(C))
	cutPart := make([]bool, len(C))
	var next []partition
	for ci, part := range C {
		switch part.poly.ClassifyWith(h, g.opt.Strategy, g.opt.Stats) {
		case polytope.ClassAbove:
			newIdx[ci] = len(next)
			next = append(next, part)
		case polytope.ClassIntersect:
			part.poly.CutObserved(h, g.opt.Observer)
			if !part.poly.IsEmpty() {
				newIdx[ci] = len(next)
				cutPart[ci] = true
				next = append(next, part)
			} else {
				newIdx[ci] = -1
			}
		default: // Below, On, Empty: cannot contain the utility vector
			newIdx[ci] = -1
		}
	}

	// Rebuild each row's cache over the surviving partitions.
	keepRows := 0
	for r := range g.rows {
		if r == asked {
			continue
		}
		cls := make([]int8, len(next))
		na, nb, ni := 0, 0, 0
		for ci := range C {
			ni2 := newIdx[ci]
			if ni2 < 0 {
				continue
			}
			c := polytope.Class(g.classes[r][ci])
			if cutPart[ci] && c == polytope.ClassIntersect {
				// The partition shrank: an Intersect entry may have resolved.
				c = next[ni2].poly.ClassifyWith(g.rows[r].h, g.opt.Strategy, g.opt.Stats)
			}
			cls[ni2] = int8(c)
			switch c {
			case polytope.ClassAbove:
				na++
			case polytope.ClassBelow:
				nb++
			case polytope.ClassIntersect:
				ni++
			}
		}
		if ni == 0 && (na == 0 || nb == 0) {
			continue
		}
		g.rows[keepRows] = g.rows[r]
		g.classes[keepRows] = cls
		g.nAbove[keepRows] = na
		g.nBelow[keepRows] = nb
		g.nInt[keepRows] = ni
		keepRows++
	}
	g.rows = g.rows[:keepRows]
	g.classes = g.classes[:keepRows]
	g.nAbove = g.nAbove[:keepRows]
	g.nBelow = g.nBelow[:keepRows]
	g.nInt = g.nInt[:keepRows]
	return next
}
