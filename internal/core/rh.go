package core

import (
	"math/rand"

	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/polytope"
)

// RHOptions configures the RH algorithm.
type RHOptions struct {
	// Rng drives the random point order and the stopping-check sampling;
	// required for reproducibility (defaults to a fixed seed).
	Rng *rand.Rand
	// Observer receives trace events (internal/obs); nil disables tracing.
	Observer obs.Observer
}

// RH is the random-hyperplane algorithm of Section 5.3. It maintains a
// single utility range R, walks a random order of the points, and at each
// step asks the question whose hyperplane intersects R closest to R's
// centre, finding the intersecting hyperplanes with Lemma 5.1's bounding
// ball first. It asks O(c·d·log n) questions in expectation (Theorem 5.7),
// asymptotically optimal for fixed d (Corollary 5.8), and is the fastest of
// the paper's algorithms.
//
// The same loop serves RH-SomeTopK and RH-AllTopK (Section 6.5), which stop
// once `want` points fulfil Lemma 5.5: Run is RunMulti with want = 1.
type RH struct {
	opt RHOptions
}

// NewRH builds an RH instance, filling in option defaults.
func NewRH(opt RHOptions) *RH {
	if opt.Rng == nil {
		opt.Rng = rand.New(rand.NewSource(1))
	}
	return &RH{opt: opt}
}

// NewRHDefault returns RH with default options and the given seed.
func NewRHDefault(seed int64) *RH {
	return NewRH(RHOptions{Rng: rand.New(rand.NewSource(seed))})
}

// Name implements Algorithm and MultiAlgorithm.
func (a *RH) Name() string { return "RH" }

// SetObserver implements Observable.
func (a *RH) SetObserver(o obs.Observer) { a.opt.Observer = o }

// Run implements Algorithm.
func (a *RH) Run(points []geom.Vector, k int, o oracle.Oracle) int {
	return a.run(points, k, 1, o, obsTracker(a.opt.Observer))[0]
}

// RunMulti implements MultiAlgorithm.
func (a *RH) RunMulti(points []geom.Vector, k, want int, o oracle.Oracle) []int {
	checkWant(k, want)
	return a.run(points, k, want, o, obsTracker(a.opt.Observer))
}

// RunBudgeted implements Budgeted. On exhaustion it returns the top-1 at
// R's centre — the centre of everything the answers so far have not ruled
// out.
func (a *RH) RunBudgeted(points []geom.Vector, k int, o oracle.Oracle, b Budget) (int, Certificate) {
	idx, cert := a.runBudgeted(points, k, 1, o, b)
	return idx[0], cert
}

// RunMultiBudgeted implements MultiAlgorithm. On exhaustion it returns the
// top-want at R's centre, best-effort.
func (a *RH) RunMultiBudgeted(points []geom.Vector, k, want int, o oracle.Oracle, b Budget) ([]int, Certificate) {
	checkWant(k, want)
	return a.runBudgeted(points, k, want, o, b)
}

// runBudgeted runs RH under b behind the tracker's panic barrier. Only the
// multi-answer entry point checks want, so a single-answer run keeps
// accepting any k.
func (a *RH) runBudgeted(points []geom.Vector, k, want int, o oracle.Oracle, b Budget) ([]int, Certificate) {
	tr := newTracker(b, a.opt.Observer)
	return tr.guard(points, k, want, func() []int { return a.run(points, k, want, o, tr) })
}

// run is RH's loop: it returns want points that are certainly among the
// user's top-k (best effort on a budgeted exit).
func (a *RH) run(points []geom.Vector, k, want int, o oracle.Oracle, tr *tracker) []int {
	n := len(points)
	d := len(points[0])
	rng := a.opt.Rng
	R := polytope.NewSimplex(d)
	perm := rng.Perm(n)
	var stop stopScratch

	i := 1 // current ladder position: H_i holds hyperplanes (perm[i], perm[j<i])
	round := 0
	for {
		if tr.exhausted() {
			// Best effort over R, as HD-PI's over its cells: the top-want
			// at R's centre.
			return bestEffortCells(points, want, []partition{{poly: R}}, tr, tr.stopReason())
		}
		tr.maybeDegrade()
		// Stopping condition 2 (Lemma 5.5) on the single polytope R.
		if tr.checkDue(round) {
			verts := R.Vertices()
			if len(verts) == 0 {
				// Only with an erring user: contradictory cuts emptied R.
				return emptied(points, want, uniformUtility(d), tr)
			}
			probe := R.Sample(rng)
			tr.observe(probe, verts)
			res := stop.lemma55(points, k, verts, probe, want)
			tr.stopCheck(res != nil)
			if res != nil {
				tr.finish(true, StopConverged, verts)
				return res
			}
		}
		round++

		// Hyperplane selection (Section 5.3.3): within the current H_i, the
		// intersecting hyperplane closest to R's centre; advance the ladder
		// when H_i has no intersecting hyperplane left. R only shrinks, so
		// abandoned ladders never need revisiting.
		center := R.Center()
		tr.observe(center, nil)
		bestJ, bestDist := -1, 0.0
		for {
			for j := 0; j < i; j++ {
				if tr.exhausted() {
					return bestEffortCells(points, want, []partition{{poly: R}}, tr, tr.stopReason())
				}
				h := geom.NewHyperplane(points[perm[i]], points[perm[j]])
				if h.Degenerate() {
					continue
				}
				if R.ClassifyWith(h, polytope.StrategyBall, nil) != polytope.ClassIntersect {
					continue
				}
				if dist := h.Distance(center); bestJ < 0 || dist < bestDist {
					bestJ, bestDist = j, dist
				}
			}
			if bestJ >= 0 {
				break
			}
			i++
			if i >= n {
				// Stopping condition 3: no pair hyperplane intersects R, so
				// the ranking of all points is fixed over R; the top-want at
				// R's centre are certainly among the top-k.
				tr.finish(true, StopConverged, R.Vertices())
				return oracle.TopK(points, center, want)
			}
		}

		pi, pj := points[perm[i]], points[perm[bestJ]]
		h := geom.NewHyperplane(pi, pj)
		tr.ask(perm[i], perm[bestJ])
		ans := o.Prefer(pi, pj)
		if !ans {
			h = h.Flip()
		}
		tr.question(perm[i], perm[bestJ], ans)
		R.CutObserved(h, tr.observer())
	}
}
