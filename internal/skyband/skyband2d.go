package skyband

import (
	"math"
	"sort"

	"ist/internal/geom"
)

// KSkyband2D computes the k-skyband of 2-dimensional points in O(n log n)
// using a Fenwick tree over compressed y-ranks — the fast path behind the
// paper's 2-d experiments, where the generic counting approach wastes time.
// Semantics match KSkyband exactly (domination = >= in both dimensions,
// strict in at least one; duplicates never dominate each other).
func KSkyband2D(points []geom.Vector, k int) []int {
	n := len(points)
	if n == 0 {
		return nil
	}
	if len(points[0]) != 2 {
		panic("skyband: KSkyband2D needs 2-d points")
	}
	if k < 1 {
		panic("skyband: k must be >= 1")
	}
	if n > math.MaxInt32 {
		panic("skyband: KSkyband2D indexes points with int32")
	}

	// The scratch is about 17 bytes a point: the sorted ys, an int32 order
	// and Fenwick count each, and one verdict byte. It is all garbage when
	// the call returns, and a catalog's set-up allocates it on top of the
	// catalog, so it is kept small.
	//
	// Compress y values to ranks 1..m.
	sorted := make([]float64, n)
	for i, p := range points {
		sorted[i] = p[1]
	}
	sort.Float64s(sorted)
	uniq := sorted[:0]
	for i, v := range sorted {
		// Exact dedup: Fenwick ranks need exact equivalence classes (an
		// eps-based grouping is not transitive), and rankOf looks values up
		// with exact binary search.
		//lint:ignore floatcmp exact grouping; eps-based classes are not transitive
		if i == 0 || v != sorted[i-1] {
			uniq = append(uniq, v)
		}
	}
	rankOf := func(y float64) int { return sort.SearchFloat64s(uniq, y) + 1 }

	// Process points in decreasing x; within equal x, y plays no role for
	// the cross-group count but the within-group count handles strict-y.
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	sort.SliceStable(order, func(a, b int) bool {
		pa, pb := points[order[a]], points[order[b]]
		//lint:ignore floatcmp exact tie-break keeps the comparator a strict weak order
		if pa[0] != pb[0] {
			return pa[0] > pb[0]
		}
		return pa[1] > pb[1]
	})

	bit := newFenwick(len(uniq))
	in := make([]bool, n)
	for gs := 0; gs < n; {
		ge := gs
		x := points[order[gs]][0]
		// Equal-x groups mirror the exact sort order above; eps-grouping
		// would disagree with the comparator and split groups inconsistently.
		//lint:ignore floatcmp exact grouping must match the exact sort comparator
		for ge < n && points[order[ge]][0] == x {
			ge++
		}
		group := order[gs:ge]
		// Cross-group: processed points all have strictly larger x, so any
		// of them with y >= p.y dominates p. Within-group (equal x): q
		// dominates p iff q.y > p.y. The group is sorted by y descending,
		// so the number of strictly-larger ys is the count of predecessors
		// with a different y value. The tree takes the group only once all
		// of it is counted.
		strictlyAbove := 0
		for gi, idx := range group {
			if gi > 0 && points[group[gi-1]][1] > points[idx][1] {
				strictlyAbove = gi
			}
			in[idx] = bit.suffixCount(rankOf(points[idx][1]))+strictlyAbove < k
		}
		for _, idx := range group {
			bit.add(rankOf(points[idx][1]))
		}
		gs = ge
	}

	var out []int
	for i, ok := range in {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// fenwick is a Fenwick (binary indexed) tree counting inserted y-ranks. A
// count never exceeds the number of points, which KSkyband2D keeps within
// int32.
type fenwick struct {
	tree []int32
	n    int
}

func newFenwick(n int) *fenwick { return &fenwick{tree: make([]int32, n+1), n: n} }

// add inserts one occurrence of rank r (1-based).
func (f *fenwick) add(r int) {
	for ; r <= f.n; r += r & -r {
		f.tree[r]++
	}
}

// prefixCount returns the number of inserted ranks <= r.
func (f *fenwick) prefixCount(r int) int {
	s := 0
	for ; r > 0; r -= r & -r {
		s += int(f.tree[r])
	}
	return s
}

// suffixCount returns the number of inserted ranks >= r.
func (f *fenwick) suffixCount(r int) int {
	return f.prefixCount(f.n) - f.prefixCount(r-1)
}
