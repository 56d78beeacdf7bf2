// Package skyband computes skylines and k-skybands, the dataset
// preprocessing used throughout the paper's experiments (Section 6: "we
// preprocessed all the datasets to include k-skyband points, which are all
// possible top-k points for any utility function").
package skyband

import (
	"sort"

	"ist/internal/geom"
)

// Skyline returns the indices of points not dominated by any other point.
// Equivalent to KSkyband(points, 1).
func Skyline(points []geom.Vector) []int {
	return KSkyband(points, 1)
}

// KSkyband returns the indices (in the original slice, ascending) of points
// dominated by fewer than k other points. Only such points can appear among
// the top-k for some linear utility function.
//
// The implementation processes points in decreasing coordinate-sum order and
// counts dominators only among already-confirmed skyband members, which is
// sound: a rejected point has >= k confirmed dominators, each of which also
// dominates everything the rejected point dominates.
func KSkyband(points []geom.Vector, k int) []int {
	if k < 1 {
		panic("skyband: k must be >= 1")
	}
	if len(points) > 0 && len(points[0]) == 2 {
		// O(n log n) Fenwick-tree fast path with identical semantics
		// (property-tested against the generic counting below).
		return KSkyband2D(points, k)
	}
	return kSkybandCounting(points, k)
}

// kSkybandCounting is the generic d-dimensional skyband: points processed
// in decreasing coordinate-sum order, dominators counted among confirmed
// members only (sound by the chain argument in the KSkyband doc comment).
func kSkybandCounting(points []geom.Vector, k int) []int {
	n := len(points)
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sums := make([]float64, n)
	for i, p := range points {
		sums[i] = p.Sum()
	}
	sort.SliceStable(order, func(a, b int) bool { return sums[order[a]] > sums[order[b]] })

	var members []int // confirmed skyband, in processing order
	for _, idx := range order {
		p := points[idx]
		dominators := 0
		for _, m := range members {
			if points[m].Dominates(p) {
				dominators++
				if dominators >= k {
					break
				}
			}
		}
		if dominators < k {
			members = append(members, idx)
		}
	}
	sort.Ints(members)
	return members
}

// Filter returns copies of the points whose indices are given, in order,
// laid out one after another in a single block of memory. A k-skyband is a
// thin subset of its input, so the input's points, each its own small
// allocation, would leave a band of 2,252 points scattered over the 2 MB of
// a 68,010-tuple catalog: every scan of the band (a Lemma 5.5 check reads
// all of it for each question) would then touch a separate cache line and
// often a separate page per point, and would run several times slower
// whenever other work had evicted them since the last scan. Each copy is
// capped at its own length, so appending to one never overwrites the next.
func Filter(points []geom.Vector, idx []int) []geom.Vector {
	out := make([]geom.Vector, len(idx))
	size := 0
	for _, j := range idx {
		size += len(points[j])
	}
	coords := make([]float64, 0, size)
	for i, j := range idx {
		start := len(coords)
		coords = append(coords, points[j]...)
		out[i] = coords[start:len(coords):len(coords)]
	}
	return out
}

// DominatorCount returns, for each point, the number of other points that
// dominate it (exact, O(n^2); used by tests and small-scale validation).
func DominatorCount(points []geom.Vector) []int {
	counts := make([]int, len(points))
	for i, p := range points {
		for j, q := range points {
			if i != j && q.Dominates(p) {
				counts[i]++
			}
		}
	}
	return counts
}
