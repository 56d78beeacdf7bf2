package core

import (
	"fmt"

	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/polytope"
	"ist/internal/prep"
)

// This file implements the motivation-study variants of Section 6.5:
// returning `want` (SomeTopK, Section 6.5.2) or all k (AllTopK,
// Section 6.5.1) of the user's top-k points. The stopping condition becomes
// "there are `want` points which fulfil Lemma 5.5", and HD-PI additionally
// refines its partitioning with deeper convex-point layers (the V_d set)
// once a single partition remains.

// RHMulti is RH with the modified stopping condition (RH-AllTopK /
// RH-SomeTopK of Section 6.5).
type RHMulti struct {
	opt RHOptions
}

// NewRHMulti builds the multi-answer RH variant.
func NewRHMulti(opt RHOptions) *RHMulti {
	return &RHMulti{opt: NewRH(opt).opt}
}

// Name implements MultiAlgorithm.
func (a *RHMulti) Name() string { return "RH-SomeTopK" }

// SetObserver implements Observable.
func (a *RHMulti) SetObserver(o obs.Observer) { a.opt.Observer = o }

// RunMulti implements MultiAlgorithm.
func (a *RHMulti) RunMulti(points []geom.Vector, k, want int, o oracle.Oracle) []int {
	return a.runMulti(points, k, want, o, obsTracker(a.opt.Observer))
}

// RunMultiBudgeted implements BudgetedMulti. On exhaustion it returns the
// top-want at R's centre, best-effort.
func (a *RHMulti) RunMultiBudgeted(points []geom.Vector, k, want int, o oracle.Oracle, b Budget) (idx []int, cert Certificate) {
	tr := newTracker(b, a.opt.strategy(), a.opt.StopCheckEvery, a.opt.Observer)
	defer tr.rescueMulti(points, k, want, &idx, &cert)
	idx = a.runMulti(points, k, want, o, tr)
	cert = tr.certificate(points, k)
	return idx, cert
}

// bestEffortRegionMulti finishes a budget-exhausted multi run on R.
func bestEffortRegionMulti(points []geom.Vector, want int, R *polytope.Polytope, tr *tracker) []int {
	verts := R.Vertices()
	if len(verts) == 0 {
		tr.finish(false, tr.stopReason(), nil)
		return oracle.TopK(points, uniformUtility(len(points[0])), want)
	}
	tr.finish(false, tr.stopReason(), verts)
	return oracle.TopK(points, R.Center(), want)
}

func (a *RHMulti) runMulti(points []geom.Vector, k, want int, o oracle.Oracle, tr *tracker) []int {
	if want > k {
		panic(fmt.Sprintf("core: want %d > k %d", want, k))
	}
	n := len(points)
	d := len(points[0])
	rng := a.opt.Rng
	R := polytope.NewSimplex(d)
	perm := rng.Perm(n)

	strat := a.opt.strategy()
	stopEvery := a.opt.StopCheckEvery
	var stop stopScratch

	i := 1
	round := 0
	for {
		if tr.exhausted() {
			return bestEffortRegionMulti(points, want, R, tr)
		}
		tr.maybeDegrade()
		if tr != nil && tr.active {
			strat, stopEvery = tr.strategy, tr.stopEvery
		}
		if round%stopEvery == 0 {
			verts := R.Vertices()
			if len(verts) == 0 {
				tr.finish(false, StopDegenerate, nil)
				return oracle.TopK(points, uniformUtility(d), want)
			}
			probe := R.Sample(rng)
			tr.observe(probe, verts)
			res, resOK := stop.lemma55Multi(points, k, verts, probe, want)
			tr.stopCheck(resOK)
			if resOK {
				tr.finish(true, StopConverged, verts)
				return res
			}
		}
		round++

		center := R.Center()
		tr.observe(center, nil)
		bestJ, bestDist := -1, 0.0
		for {
			for j := 0; j < i; j++ {
				if tr.exhausted() {
					return bestEffortRegionMulti(points, want, R, tr)
				}
				h := geom.NewHyperplane(points[perm[i]], points[perm[j]])
				if h.Degenerate() {
					continue
				}
				if R.ClassifyWith(h, strat, nil) != polytope.ClassIntersect {
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
				// Ranking fixed over R: the top-k at the centre is exact.
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

// HDPIMulti is HD-PI with the modified stopping condition and the V_d
// partition-refinement of Section 6.5.1 (HD-PI-AllTopK / HD-PI-SomeTopK).
type HDPIMulti struct {
	opt HDPIOptions
}

// NewHDPIMulti builds the multi-answer HD-PI variant.
func NewHDPIMulti(opt HDPIOptions) *HDPIMulti {
	return &HDPIMulti{opt: NewHDPI(opt).opt}
}

// Name implements MultiAlgorithm.
func (a *HDPIMulti) Name() string { return fmt.Sprintf("HD-PI-%s-SomeTopK", a.opt.Mode) }

// SetObserver implements Observable.
func (a *HDPIMulti) SetObserver(o obs.Observer) { a.opt.Observer = o }

// SetPrepCache implements PrepCached.
func (a *HDPIMulti) SetPrepCache(c *prep.Cache, fingerprint uint64) {
	a.opt.PrepCache, a.opt.PrepFingerprint = c, fingerprint
}

// RunMulti implements MultiAlgorithm.
func (a *HDPIMulti) RunMulti(points []geom.Vector, k, want int, o oracle.Oracle) []int {
	return a.runMulti(points, k, want, o, obsTracker(a.opt.Observer))
}

// RunMultiBudgeted implements BudgetedMulti. On exhaustion it returns the
// top-want at the mean vertex of the surviving partitions, best-effort.
func (a *HDPIMulti) RunMultiBudgeted(points []geom.Vector, k, want int, o oracle.Oracle, b Budget) (idx []int, cert Certificate) {
	tr := newTracker(b, a.opt.Strategy, a.opt.StopCheckEvery, a.opt.Observer)
	defer tr.rescueMulti(points, k, want, &idx, &cert)
	idx = a.runMulti(points, k, want, o, tr)
	cert = tr.certificate(points, k)
	return idx, cert
}

func (a *HDPIMulti) runMulti(points []geom.Vector, k, want int, o oracle.Oracle, tr *tracker) []int {
	if want > k {
		panic(fmt.Sprintf("core: want %d > k %d", want, k))
	}
	d := len(points[0])
	rng := a.opt.Rng

	convex := func(excluded map[int]bool) []int {
		// Convex points of D \ V_d, reported as indices into points.
		var sub []geom.Vector
		var back []int
		for i, p := range points {
			if !excluded[i] {
				sub = append(sub, p)
				back = append(back, i)
			}
		}
		if len(sub) == 0 {
			return nil
		}
		sopt := a.opt
		if len(sub) != len(points) {
			// Subset scans are keyed by nothing the fingerprint describes;
			// the full-set scan (first round) is the cacheable one.
			sopt.PrepCache, sopt.PrepFingerprint = nil, 0
		}
		vs := convexPoints(sub, sopt, tr)
		out := make([]int, len(vs))
		for i, v := range vs {
			out[i] = back[v]
		}
		return out
	}

	vd := map[int]bool{} // confirmed points (paper's V_d)
	V := convex(nil)
	hd := &HDPI{opt: a.opt}
	C := hd.buildPartitions(points, V, d, tr)
	gamma := newGammaTable(points, V, C, a.opt)
	var stop stopScratch
	stopEvery := a.opt.StopCheckEvery
	round := 0

	// bestEffort answers from whatever region survives; certified=false
	// because the refinement could not finish (degenerate geometry, erring
	// user, or an exhausted budget).
	bestEffort := func(reason StopReason) []int {
		verts := allVertices(C)
		if len(verts) == 0 {
			tr.finish(false, reason, nil)
			return oracle.TopK(points, uniformUtility(d), want)
		}
		tr.finish(false, reason, verts)
		return oracle.TopK(points, geom.Mean(verts), want)
	}

	for {
		if tr.exhausted() {
			return bestEffort(tr.stopReason())
		}
		if len(C) == 0 {
			return bestEffort(StopDegenerate)
		}
		tr.maybeDegrade()
		if tr != nil && tr.active {
			stopEvery = tr.stopEvery
			gamma.opt.Strategy = tr.strategy
		}
		if round%stopEvery == 0 {
			verts := allVertices(C)
			probe := C[rng.Intn(len(C))].poly.Sample(rng)
			tr.observe(probe, verts)
			res, resOK := stop.lemma55Multi(points, k, verts, probe, want)
			tr.stopCheck(resOK)
			if resOK {
				tr.finish(true, StopConverged, verts)
				return res
			}
		}
		round++

		needRefine := len(C) == 1
		bestRow := -1
		if !needRefine {
			bestRow = gamma.best()
			if bestRow < 0 {
				needRefine = true
			}
		}

		if needRefine {
			// Section 6.5.1: confirm the associated points of the remaining
			// partitions (top-1 over R), subdivide by the next convex layer.
			progress := false
			for _, part := range C {
				if !vd[part.point] {
					vd[part.point] = true
					progress = true
				}
			}
			if len(vd) >= k || !progress {
				return bestEffort(StopDegenerate)
			}
			Vnext := convex(vd)
			if len(Vnext) == 0 {
				return bestEffort(StopDegenerate)
			}
			var refined []partition
			for _, part := range C {
				if tr.exhausted() {
					break
				}
				for _, i := range Vnext {
					cell := part.poly.Clone()
					for _, j := range Vnext {
						if i == j {
							continue
						}
						h := geom.NewHyperplane(points[i], points[j])
						if h.Degenerate() {
							continue
						}
						cell.Cut(h)
						if cell.IsEmpty() {
							break
						}
					}
					if !cell.IsEmpty() {
						refined = append(refined, partition{poly: cell, point: i})
					}
				}
			}
			if tr.exhausted() {
				return bestEffort(tr.stopReason())
			}
			if len(refined) == 0 {
				return bestEffort(StopDegenerate)
			}
			C = refined
			gamma = newGammaTable(points, Vnext, C, a.opt)
			continue
		}

		row := gamma.rows[bestRow]
		h := row.h
		tr.ask(row.i, row.j)
		ans := o.Prefer(points[row.i], points[row.j])
		if !ans {
			h = h.Flip()
		}
		tr.question(row.i, row.j, ans)
		beforeCells := len(C)
		C = gamma.apply(h, C, bestRow)
		tr.pruned(beforeCells - len(C))
		if len(C) == 0 {
			tr.finish(false, StopDegenerate, nil)
			return oracle.TopK(points, uniformUtility(d), want)
		}
	}
}
