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

// HDPIOptions configures HD-PI and its noise-tolerant variant RobustHDPI,
// which share the set-up below; every field but Beta applies to both.
type HDPIOptions struct {
	// Mode selects exact vs sampled convex points. Default ConvexSampling.
	Mode ConvexMode
	// Beta is the even-score balance parameter β of Definition 5.4
	// (default 0.01, the value the paper settles on in Figure 6). HD-PI
	// only: RobustHDPI picks its questions by weight.
	Beta float64
	// Strategy is the bounding shortcut for classifying partitions against
	// hyperplanes. It sets how fast a partition is classified, never the
	// class, so only Figure 5's comparison sets it; the zero value is the
	// bounding ball, the paper's choice after that figure.
	Strategy polytope.Strategy
	// Rng drives sampling; required. Use a fixed seed for reproducibility.
	Rng *rand.Rand
	// Stats, when non-nil, accumulates bounding-strategy effectiveness
	// counters (Figure 5's "effective ratio").
	Stats *polytope.BoundStats
	// Observer receives trace events (internal/obs); nil disables tracing.
	Observer obs.Observer
	// PrepCache, when non-nil and PrepFingerprint != 0, memoizes
	// dataset-level preprocessing (the exact convex-point set) across
	// sessions over the same dataset. Sampling mode is never cached (it
	// consumes randomness); runs under an active budget only read the
	// cache, never populate it (a mid-scan stop would poison it with
	// partial results).
	PrepCache *prep.Cache
	// PrepFingerprint keys PrepCache entries — ist.Fingerprint of the
	// dataset the algorithm will run on. 0 disables caching.
	PrepFingerprint uint64
}

// HDPI is the high-dimensional partition-based algorithm of Section 5.2.
// It asks O(n) questions in the worst case and O(log n) in the optimal case
// (Theorem 5.6), and empirically the fewest among all evaluated algorithms.
//
// The same loop serves HD-PI-SomeTopK and HD-PI-AllTopK (Section 6.5.1),
// which stop once `want` points fulfil Lemma 5.5 and refine the partitions
// by the next convex layer when a lone cell settles its point or no
// question is left (refine): Run is RunMulti with want = 1.
type HDPI struct {
	opt HDPIOptions
}

// convexSamples is the number of utility vectors sampling mode draws to
// find the convex points.
const convexSamples = 400

// NewHDPI builds an HD-PI instance, filling in option defaults.
func NewHDPI(opt HDPIOptions) *HDPI {
	if opt.Beta == 0 {
		opt.Beta = 0.01
	}
	if opt.Rng == nil {
		opt.Rng = rand.New(rand.NewSource(1))
	}
	return &HDPI{opt: opt}
}

// Name implements Algorithm and MultiAlgorithm.
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
	return a.run(points, k, 1, o, obsTracker(a.opt.Observer))[0]
}

// RunMulti implements MultiAlgorithm.
func (a *HDPI) RunMulti(points []geom.Vector, k, want int, o oracle.Oracle) []int {
	checkWant(k, want)
	return a.run(points, k, want, o, obsTracker(a.opt.Observer))
}

// RunBudgeted implements Budgeted. On exhaustion it returns the top-1 at
// the mean vertex of the surviving partitions.
func (a *HDPI) RunBudgeted(points []geom.Vector, k int, o oracle.Oracle, b Budget) (int, Certificate) {
	idx, cert := a.runBudgeted(points, k, 1, o, b)
	return idx[0], cert
}

// RunMultiBudgeted implements MultiAlgorithm. On exhaustion it returns the
// top-want at the mean vertex of the surviving partitions, best-effort.
func (a *HDPI) RunMultiBudgeted(points []geom.Vector, k, want int, o oracle.Oracle, b Budget) ([]int, Certificate) {
	checkWant(k, want)
	return a.runBudgeted(points, k, want, o, b)
}

// runBudgeted runs HD-PI under b behind the tracker's panic barrier. Only
// the multi-answer entry point checks want, so a single-answer run keeps
// accepting any k.
func (a *HDPI) runBudgeted(points []geom.Vector, k, want int, o oracle.Oracle, b Budget) ([]int, Certificate) {
	tr := newTracker(b, a.opt.Observer)
	return tr.guard(points, k, want, func() []int { return a.run(points, k, want, o, tr) })
}

// bestEffortCells finishes a run over a partition set without a
// certificate, for reason: the answer is the top-want at the mean of the
// surviving vertices, or at the uniform utility when no cell survives.
func bestEffortCells(points []geom.Vector, want int, C []partition, tr *tracker, reason StopReason) []int {
	verts := allVertices(C)
	if len(verts) == 0 {
		tr.finish(false, reason, nil)
		return oracle.TopK(points, uniformUtility(len(points[0])), want)
	}
	tr.finish(false, reason, verts)
	return oracle.TopK(points, geom.Mean(verts), want)
}

// run is HD-PI's loop: it returns want points that are certainly among the
// user's top-k (best effort on any exit but Lemma 5.5 and, at want = 1, a
// lone cell).
func (a *HDPI) run(points []geom.Vector, k, want int, o oracle.Oracle, tr *tracker) []int {
	C, gamma, done := setup(points, want, a.opt, tr)
	if done != nil {
		return done
	}
	rng := a.opt.Rng
	lastProbe := uniformUtility(len(points[0]))
	// R = ⋃C as one polytope, cut by every answer. Its vertices span what
	// the cells' many do, so Lemma 5.5 reads them instead; refine splits
	// cells without changing their union.
	R := polytope.NewSimplex(len(points[0]))
	vd := map[int]bool{} // confirmed points (the paper's V_d)
	round := 0
	var stop stopScratch
	for {
		// Stopping condition 1: a single partition left, whose point is the
		// top-1 over all of R.
		if want == 1 && len(C) == 1 {
			tr.finish(true, StopConverged, C[0].poly.Vertices())
			return []int{C[0].point}
		}
		if tr.exhausted() {
			return bestEffortCells(points, want, C, tr, tr.stopReason())
		}
		tr.maybeDegrade()
		// Stopping condition 2: Lemma 5.5 over R.
		if tr.checkDue(round) {
			verts := R.Vertices()
			probe := C[rng.Intn(len(C))].poly.Sample(rng)
			lastProbe = probe
			tr.observe(probe, verts)
			res := stop.lemma55(points, k, verts, probe, want)
			tr.stopCheck(res != nil)
			if res != nil {
				tr.finish(true, StopConverged, verts)
				return res
			}
		}
		round++

		// Point selection: the Γ row with the highest even score. A lone
		// cell (want > 1) has settled its point as the top-1 over R, and an
		// uninformative Γ has no question left; either way the partitions
		// are refined by the next convex layer instead.
		best := -1
		if len(C) > 1 {
			best = gamma.best()
		}
		if best < 0 {
			next, Vnext := a.refine(points, k, C, vd, tr)
			if next == nil {
				return bestEffortCells(points, want, C, tr, tr.stopReason())
			}
			C = next
			gamma = newGammaTable(points, Vnext, C, a.opt)
			continue
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
		R.Cut(h)
		tr.pruned(beforeCells - len(C))
		if len(C) == 0 {
			return emptied(points, want, lastProbe, tr)
		}
	}
}

// setup is the set-up HD-PI and RobustHDPI share (Section 5.2.1): the
// convex points V, the initial partitions
// Θ_i = {u : u·(p_i − p_j) >= 0 ∀ p_j ∈ V\{p_i}} of the simplex, and Γ with
// its cached partition relationships. It has two exits, and done is non-nil,
// the run's answer, exactly when the run ended at one: a budget spent during
// construction answers best-effort (C may be partial, so even a single cell
// proves nothing), and no cell built takes the emptied exit at the uniform
// utility.
func setup(points []geom.Vector, want int, opt HDPIOptions, tr *tracker) (C []partition, gamma *gammaTable, done []int) {
	d := len(points[0])
	V := convexPoints(points, opt, tr)
	C = buildPartitions(points, V, polytope.NewSimplex(d), tr)
	if tr.exhausted() {
		return nil, nil, bestEffortCells(points, want, C, tr, tr.stopReason())
	}
	if len(C) == 0 {
		return nil, nil, emptied(points, want, uniformUtility(d), tr)
	}
	return C, newGammaTable(points, V, C, opt), nil
}

// emptied finishes a run whose utility region is empty, which only an
// erring user (Section 6.4) or degenerate input brings about: every
// partition (RH's one region R) contradicted some answer, or none was
// built. The answer is the top-want at u, best-effort: HD-PI's last probe,
// or the uniform utility where no cell was built and for RH.
func emptied(points []geom.Vector, want int, u geom.Vector, tr *tracker) []int {
	tr.finish(false, StopDegenerate, nil)
	return oracle.TopK(points, u, want)
}

// refine is the V_d partition refinement of Section 6.5.1, for a lone cell
// or an uninformative Γ: it confirms the points of the surviving
// partitions (each is top-1 over its partition) into vd, then splits every
// partition by the convex points of the unconfirmed points. It returns the
// refined partitions with those convex points, or nil when the refinement
// cannot go on: k points confirmed, none new, none unconfirmed, every cell
// empty, or the budget spent mid-way.
func (a *HDPI) refine(points []geom.Vector, k int, C []partition, vd map[int]bool, tr *tracker) ([]partition, []int) {
	progress := false
	for _, part := range C {
		if !vd[part.point] {
			vd[part.point] = true
			progress = true
		}
	}
	if len(vd) >= k || !progress {
		return nil, nil
	}
	var sub []geom.Vector
	var back []int
	for i, p := range points {
		if !vd[i] {
			sub = append(sub, p)
			back = append(back, i)
		}
	}
	if len(sub) == 0 {
		return nil, nil
	}
	// A subset's scan is keyed by nothing the fingerprint describes, and
	// uncached its result is a fresh slice, mapped back in place.
	opt := a.opt
	opt.PrepCache, opt.PrepFingerprint = nil, 0
	V := convexPoints(sub, opt, tr)
	for i, v := range V {
		V[i] = back[v]
	}
	var next []partition
	for _, part := range C {
		next = append(next, buildPartitions(points, V, part.poly, tr)...)
	}
	if tr.exhausted() || len(next) == 0 {
		return nil, nil
	}
	return next, V
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
// The exact paths honour opt.PrepCache: the exact results of runs that no
// active budget can stop are memoized under the dataset fingerprint with
// their event tape, so a cached session emits the same stream a cold one
// does. Runs under an active budget only read the cache — a hit hands them
// the complete exact set for free, a miss computes locally without
// populating (the scan may stop mid-way). Sampling mode consumes randomness
// and is never cached.
func convexPoints(points []geom.Vector, opt HDPIOptions, tr *tracker) []int {
	o := tr.observer()
	if opt.Mode != ConvexExact {
		V := hull.ConvexPointsSampling(points, convexSamples, opt.Rng)
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
	if tr == nil || !tr.active {
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
	V := hull.ConvexPointsSampling(points, convexSamples, opt.Rng)
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

// buildPartitions splits region into the cells of the convex points V: the
// cell of V's point i is the part of region where points[i] beats every
// other point of V. Empty (and therefore impossible) cells are skipped.
// Under an exhausted budget it stops early and returns the cells built so
// far (callers detect this via the tracker and answer best-effort).
func buildPartitions(points []geom.Vector, V []int, region *polytope.Polytope, tr *tracker) []partition {
	var C []partition
	for _, i := range V {
		if tr.exhausted() {
			break
		}
		poly := region.Clone()
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

// allVertices concatenates the vertex sets of every partition, whose mean
// places a best-effort answer.
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
