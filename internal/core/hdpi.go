package core

import (
	"fmt"
	"math/rand"

	"ist/internal/geom"
	"ist/internal/hull"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/polytope"
	"ist/internal/prep"
)

// ConvexMode selects how HD-PI finds the convex points that seed its
// utility-space partitions (Section 5.2.1).
type ConvexMode int

const (
	// ConvexSampling approximates the convex points by sampling utility
	// vectors (the paper's practical default; Figure 7 measures its cost).
	ConvexSampling ConvexMode = iota
	// ConvexExact computes the convex points exactly with LPs.
	ConvexExact
)

func (m ConvexMode) String() string {
	if m == ConvexExact {
		return "accurate"
	}
	return "sampling"
}

// HDPIOptions configures HD-PI.
type HDPIOptions struct {
	// Mode selects exact vs sampled convex points. Default ConvexSampling.
	Mode ConvexMode
	// Samples is the number of utility samples in sampling mode (default 400).
	Samples int
	// Beta is the even-score balance parameter β of Definition 5.4
	// (default 0.01, the value the paper settles on in Figure 6).
	Beta float64
	// Strategy is the bounding shortcut for classifying partitions against
	// hyperplanes. The zero value is the bounding ball, the paper's choice
	// after Figure 5.
	Strategy polytope.Strategy
	// Rng drives sampling; required. Use a fixed seed for reproducibility.
	Rng *rand.Rand
	// Stats, when non-nil, accumulates bounding-strategy effectiveness
	// counters (Figure 5's "effective ratio").
	Stats *polytope.BoundStats
	// StopCheckEvery runs the Lemma 5.5 stopping check every this many
	// rounds (default 1 = every round; ablation knob).
	StopCheckEvery int
	// Observer receives trace events (internal/obs); nil disables tracing.
	Observer obs.Observer
	// PrepCache, when non-nil and PrepFingerprint != 0, memoizes
	// dataset-level preprocessing (the exact convex-point set) across
	// sessions over the same dataset. Sampling mode is never cached (it
	// consumes randomness); budgeted runs only read the cache, never
	// populate it (a mid-scan stop would poison it with partial results).
	PrepCache *prep.Cache
	// PrepFingerprint keys PrepCache entries — ist.Fingerprint of the
	// dataset the algorithm will run on. 0 disables caching.
	PrepFingerprint uint64
}

// HDPI is the high-dimensional partition-based algorithm of Section 5.2.
// It asks O(n) questions in the worst case and O(log n) in the optimal case
// (Theorem 5.6), and empirically the fewest among all evaluated algorithms.
type HDPI struct {
	opt HDPIOptions
}

// NewHDPI builds an HD-PI instance, filling in option defaults.
func NewHDPI(opt HDPIOptions) *HDPI {
	if opt.Samples <= 0 {
		opt.Samples = 400
	}
	if opt.Beta == 0 {
		opt.Beta = 0.01
	}
	if opt.StopCheckEvery <= 0 {
		opt.StopCheckEvery = 1
	}
	if opt.Rng == nil {
		opt.Rng = rand.New(rand.NewSource(1))
	}
	return &HDPI{opt: opt}
}

// Name implements Algorithm.
func (a *HDPI) Name() string { return fmt.Sprintf("HD-PI-%s", a.opt.Mode) }

// SetObserver implements Observable.
func (a *HDPI) SetObserver(o obs.Observer) { a.opt.Observer = o }

// SetPrepCache implements PrepCached.
func (a *HDPI) SetPrepCache(c *prep.Cache, fingerprint uint64) {
	a.opt.PrepCache, a.opt.PrepFingerprint = c, fingerprint
}

// partition is one element of the set C: a polytope of the utility space
// whose every utility vector has points[point] as top-1 among the convex
// points.
type partition struct {
	poly  *polytope.Polytope
	point int
}

// Run implements Algorithm.
func (a *HDPI) Run(points []geom.Vector, k int, o oracle.Oracle) int {
	return a.run(points, k, o, obsTracker(a.opt.Observer))
}

// RunBudgeted implements Budgeted. On exhaustion it returns the top-1 at
// the mean vertex of the surviving partitions.
func (a *HDPI) RunBudgeted(points []geom.Vector, k int, o oracle.Oracle, b Budget) (idx int, cert Certificate) {
	tr := newTracker(b, a.opt.Strategy, a.opt.StopCheckEvery, a.opt.Observer)
	defer tr.rescue(points, k, &idx, &cert)
	idx = a.run(points, k, o, tr)
	cert = tr.certificate(points, k)
	return idx, cert
}

// bestEffortCells finishes a budget-exhausted run over a partition set: the
// answer is the top-1 at the mean of the surviving vertices.
func bestEffortCells(points []geom.Vector, C []partition, tr *tracker) int {
	verts := allVertices(C)
	if len(verts) == 0 {
		tr.finish(false, tr.stopReason(), nil)
		return argmaxAt(points, uniformUtility(len(points[0])))
	}
	tr.finish(false, tr.stopReason(), verts)
	return argmaxAt(points, geom.Mean(verts))
}

func (a *HDPI) run(points []geom.Vector, k int, o oracle.Oracle, tr *tracker) int {
	d := len(points[0])
	rng := a.opt.Rng

	// Convex points V (Section 5.2.1).
	V := convexPoints(points, a.opt, tr)

	// Initial partitions: Θ_i = {u : u·(p_i − p_j) >= 0 ∀ p_j ∈ V\{p_i}}.
	C := a.buildPartitions(points, V, d, tr)
	if tr.exhausted() {
		// The budget died during construction; C may be partial, so even a
		// single cell proves nothing.
		return bestEffortCells(points, C, tr)
	}
	if len(C) == 0 {
		// Degenerate input (e.g. a single point duplicated); the winner at
		// the simplex centre is top-1 everywhere it matters.
		tr.finish(true, StopConverged, nil)
		return argmaxAt(points, uniformUtility(d))
	}

	// Γ with cached partition relationships (Section 5.2.1's list).
	gamma := newGammaTable(points, V, C, a.opt)

	round := 0
	stopEvery := a.opt.StopCheckEvery
	lastProbe := uniformUtility(d)
	var stop stopScratch
	for {
		// Stopping condition 1: a single partition left.
		if len(C) == 1 {
			tr.finish(true, StopConverged, C[0].poly.Vertices())
			return C[0].point
		}
		if tr.exhausted() {
			return bestEffortCells(points, C, tr)
		}
		tr.maybeDegrade()
		if tr != nil && tr.active {
			stopEvery = tr.stopEvery
			gamma.opt.Strategy = tr.strategy
		}
		// Stopping condition 2: Lemma 5.5 over R = union of partitions.
		if round%stopEvery == 0 {
			verts := allVertices(C)
			probe := C[rng.Intn(len(C))].poly.Sample(rng)
			lastProbe = probe
			tr.observe(probe, verts)
			p, ok := stop.lemma55(points, k, verts, probe)
			tr.stopCheck(ok)
			if ok {
				tr.finish(true, StopConverged, verts)
				return p
			}
		}
		round++

		// Point selection: the Γ row with the highest even score.
		best := gamma.best()
		if best < 0 {
			// No informative hyperplane remains: the relative order of all
			// convex points is fixed over R, so the top-1 at any point of R
			// is determined and certainly among the top-k.
			tr.finish(true, StopConverged, allVertices(C))
			return argmaxAt(points, C[0].poly.Center())
		}

		// Ask the user and update C and Γ (information maintenance).
		row := gamma.rows[best]
		h := row.h
		tr.ask(row.i, row.j)
		ans := o.Prefer(points[row.i], points[row.j])
		if !ans {
			h = h.Flip()
		}
		tr.question(row.i, row.j, ans)
		beforeCells := len(C)
		C = gamma.apply(h, C, best)
		tr.pruned(beforeCells - len(C))
		if len(C) == 0 {
			// Only possible with an erring user (Section 6.4): every
			// partition contradicted some answer. Fall back to the best
			// point at the last known location estimate.
			tr.finish(false, StopDegenerate, nil)
			return argmaxAt(points, lastProbe)
		}
	}
}

// prepKindConvexExact is the prep.Cache kind for the exact convex-point set
// (both the 2-d envelope and the LP engine: the path is determined by the
// dimension, so one kind covers both).
const prepKindConvexExact = "convex-exact"

// convexPoints picks the right convex-point detection for the mode and
// dimension: the exact mode uses the LP-free upper-envelope method in 2-d
// and the certified LP scan otherwise. When the scan's certificates fail
// (hull.ConvexPointsExact returns an error), the exact mode degrades to
// sampling instead of building partitions from a set it cannot vouch for.
//
// The exact paths honour opt.PrepCache: unbudgeted exact results are
// memoized under the dataset fingerprint with their event tape, so a cached
// session emits the same stream a cold one does. Budgeted runs only read the
// cache — a hit hands them the complete exact set for free, a miss computes
// locally without populating (the scan may stop mid-way). Sampling mode
// consumes randomness and is never cached.
func convexPoints(points []geom.Vector, opt HDPIOptions, tr *tracker) []int {
	o := tr.observer()
	if opt.Mode != ConvexExact {
		V := hull.ConvexPointsSampling(points, opt.Samples, opt.Rng)
		obs.ConvexPointsFound(o, len(V), "sampling")
		return V
	}
	cache := opt.PrepCache
	if opt.PrepFingerprint == 0 {
		cache = nil
	}
	key := prep.Key{Fingerprint: opt.PrepFingerprint, Kind: prepKindConvexExact}
	if len(points) > 0 && len(points[0]) == 2 {
		if cache != nil {
			v, err := cache.Do(key, o, func(co obs.Observer) (any, int64, error) {
				V := hull.ConvexPoints2D(points)
				obs.ConvexPointsFound(co, len(V), "2d-envelope")
				return V, intsBytes(V), nil
			})
			if err == nil {
				return copyInts(v.([]int))
			}
		}
		V := hull.ConvexPoints2D(points)
		obs.ConvexPointsFound(o, len(V), "2d-envelope")
		return V
	}
	var err error
	if tr == nil || !tr.budgeted {
		var v any
		v, err = cache.Do(key, o, func(co obs.Observer) (any, int64, error) {
			V, err := hull.ConvexPointsExact(points, nil, co)
			return V, intsBytes(V), err
		})
		if err == nil {
			return copyInts(v.([]int))
		}
	} else {
		if v, ok := cache.Lookup(key, o); ok {
			return copyInts(v.([]int))
		}
		var V []int
		if V, err = hull.ConvexPointsExact(points, tr.exhausted, o); err == nil {
			return V
		}
	}
	tr.note("convex accurate→sampling (" + err.Error() + ")")
	V := hull.ConvexPointsSampling(points, opt.Samples, opt.Rng)
	obs.ConvexPointsFound(o, len(V), "sampling")
	return V
}

// copyInts detaches a cached slice from the cache: callers own their result
// and the shared entry must stay immutable.
func copyInts(v []int) []int {
	if v == nil {
		return nil
	}
	return append([]int(nil), v...)
}

// intsBytes approximates a cached []int's resident size for the byte cap.
func intsBytes(v []int) int64 { return int64(len(v))*8 + 24 }

// buildPartitions constructs the initial partition set C from the convex
// points, skipping empty (and therefore impossible) cells. Under an
// exhausted budget it stops early and returns the cells built so far
// (callers detect this via the tracker and answer best-effort).
func (a *HDPI) buildPartitions(points []geom.Vector, V []int, d int, tr *tracker) []partition {
	var C []partition
	for _, i := range V {
		if tr.exhausted() {
			break
		}
		poly := polytope.NewSimplex(d)
		for _, j := range V {
			if i == j {
				continue
			}
			h := geom.NewHyperplane(points[i], points[j])
			if h.Degenerate() {
				continue
			}
			poly.Cut(h)
			if poly.IsEmpty() {
				break
			}
		}
		if !poly.IsEmpty() {
			C = append(C, partition{poly: poly, point: i})
		}
	}
	return C
}

// allVertices concatenates the vertex sets of every partition: the vertex
// set of R = ⋃Θ for the Lemma 5.5 check.
func allVertices(C []partition) []geom.Vector {
	var out []geom.Vector
	for _, part := range C {
		out = append(out, part.poly.Vertices()...)
	}
	return out
}

func uniformUtility(d int) geom.Vector {
	u := geom.NewVector(d)
	for i := range u {
		u[i] = 1 / float64(d)
	}
	return u
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
