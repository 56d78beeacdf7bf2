package core

import (
	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/prep"
	"ist/internal/sweep"
)

// TwoDPI is the 2-dimensional algorithm of Section 4: utility-space
// partitioning by plane sweep (Algorithm 1) followed by binary search over
// the partitions through user questions (Algorithm 2). It asks
// O(log₂⌈2n/(k+1)⌉) questions, which is asymptotically optimal
// (Theorem 4.5, Corollary 4.6).
type TwoDPI struct {
	// Obs receives trace events from subsequent runs; nil disables tracing.
	Obs obs.Observer
	// Cache and Fingerprint memoize the Algorithm 1 sweep partitions across
	// sessions over the same dataset (prep.Cache semantics: fingerprint 0
	// or a nil cache disables). The sweep is deterministic and emits no
	// events, so a hit is behaviour-identical to recomputing.
	Cache       *prep.Cache
	Fingerprint uint64
}

// Name implements Algorithm.
func (TwoDPI) Name() string { return "2D-PI" }

// SetObserver implements Observable.
func (t *TwoDPI) SetObserver(o obs.Observer) { t.Obs = o }

// SetPrepCache implements PrepCached.
func (t *TwoDPI) SetPrepCache(c *prep.Cache, fingerprint uint64) {
	t.Cache, t.Fingerprint = c, fingerprint
}

// Run implements Algorithm. It panics if the points are not 2-dimensional.
func (t TwoDPI) Run(points []geom.Vector, k int, o oracle.Oracle) int {
	return t.run(points, k, o, obsTracker(t.Obs))
}

// RunBudgeted implements Budgeted. On exhaustion it returns the point of the
// median surviving partition — the binary search's current best guess.
func (t TwoDPI) RunBudgeted(points []geom.Vector, k int, o oracle.Oracle, b Budget) (int, Certificate) {
	tr := newTracker(b, t.Obs)
	idx, cert := tr.guard(points, k, 1, func() []int { return []int{t.run(points, k, o, tr)} })
	return idx[0], cert
}

func (t TwoDPI) run(points []geom.Vector, k int, o oracle.Oracle, tr *tracker) int {
	parts := t.partitions(points, k)
	left, right := 0, len(parts)-1
	for left < right {
		x := (left + right) / 2 // median partition
		if tr.exhausted() {
			tr.finish(false, tr.stopReason(), twoDPIRegion(parts, left, right))
			return parts[x].Point
		}
		part := parts[x]
		tr.observe(geom.Vector{part.R, 1 - part.R}, nil)
		before := right - left + 1
		// The boundary pair crosses exactly at part.R, with BoundaryI
		// ranking higher for u[1] < part.R (Section 4.3).
		tr.ask(part.BoundaryI, part.BoundaryJ)
		ans := o.Prefer(points[part.BoundaryI], points[part.BoundaryJ])
		if ans {
			right = x
		} else {
			left = x + 1
		}
		tr.question(part.BoundaryI, part.BoundaryJ, ans)
		tr.pruned(before - (right - left + 1))
	}
	tr.finish(true, StopConverged, twoDPIRegion(parts, left, left))
	return parts[left].Point
}

// partitions returns the sweep partitions, memoized in the prep cache when
// one is attached. The binary search only reads the slice, so sessions can
// share one cached copy. The sweep runs before the first budget check in
// both Run and RunBudgeted, so populating from either is safe — the
// computation always completes.
func (t TwoDPI) partitions(points []geom.Vector, k int) []sweep.Partition {
	if t.Cache == nil || t.Fingerprint == 0 {
		return sweep.PartitionUtilitySpace(points, k)
	}
	key := prep.Key{Fingerprint: t.Fingerprint, Kind: "sweep-2d", Param: k}
	v, err := t.Cache.Do(key, t.Obs, func(obs.Observer) (any, int64, error) {
		parts := sweep.PartitionUtilitySpace(points, k)
		// L, R float64 + Point, BoundaryI, BoundaryJ ints per partition.
		return parts, int64(len(parts))*40 + 24, nil
	})
	if err != nil {
		return sweep.PartitionUtilitySpace(points, k)
	}
	return v.([]sweep.Partition)
}

// twoDPIRegion is the utility region still in play when partitions
// left..right survive the binary search: the sweep parameterizes the 2-d
// simplex as u = (x, 1−x), so the region's two vertices sit at the range's
// outer bounds.
func twoDPIRegion(parts []sweep.Partition, left, right int) []geom.Vector {
	lo, hi := parts[left].L, parts[right].R
	return []geom.Vector{{lo, 1 - lo}, {hi, 1 - hi}}
}

// Partitions exposes the Algorithm 1 output for inspection (examples and
// the istcli tool visualize it).
func (TwoDPI) Partitions(points []geom.Vector, k int) []sweep.Partition {
	return sweep.PartitionUtilitySpace(points, k)
}
