package core

import (
	"fmt"

	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/prep"
)

// This file implements the motivation-study variants of Section 6.5:
// returning `want` (SomeTopK, Section 6.5.2) or all k (AllTopK,
// Section 6.5.1) of the user's top-k points. The stopping condition becomes
// "there are `want` points which fulfil Lemma 5.5"; RH's loop takes want as
// a parameter (rh.go), while HD-PI additionally refines its partitioning
// with deeper convex-point layers (the V_d set) once a single partition
// remains, so HDPIMulti keeps a loop of its own.

// checkWant panics unless 1 <= want <= k: a multi-answer run returns at
// least one point and cannot promise more of the top-k than k.
func checkWant(k, want int) {
	if want < 1 || want > k {
		panic(fmt.Sprintf("core: want %d outside [1, k = %d]", want, k))
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
	checkWant(k, want)
	return a.run(points, k, want, o, obsTracker(a.opt.Observer))
}

// RunMultiBudgeted implements MultiAlgorithm. On exhaustion it returns the
// top-want at the mean vertex of the surviving partitions, best-effort.
func (a *HDPIMulti) RunMultiBudgeted(points []geom.Vector, k, want int, o oracle.Oracle, b Budget) ([]int, Certificate) {
	checkWant(k, want)
	tr := newTracker(b, a.opt.Strategy, a.opt.StopCheckEvery, a.opt.Observer)
	return tr.guard(points, k, want, func() []int { return a.run(points, k, want, o, tr) })
}

func (a *HDPIMulti) run(points []geom.Vector, k, want int, o oracle.Oracle, tr *tracker) []int {
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
	C := buildPartitions(points, V, d, tr)
	gamma := newGammaTable(points, V, C, a.opt)
	var stop stopScratch
	stopEvery := a.opt.StopCheckEvery
	round := 0

	// Every exit but Lemma 5.5 is best effort: the refinement could not
	// finish (degenerate geometry, an erring user, or an exhausted budget).
	for {
		if tr.exhausted() {
			return bestEffortCells(points, want, C, tr, tr.stopReason())
		}
		if len(C) == 0 {
			return bestEffortCells(points, want, C, tr, StopDegenerate)
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
			res := stop.lemma55(points, k, verts, probe, want)
			tr.stopCheck(res != nil)
			if res != nil {
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
				return bestEffortCells(points, want, C, tr, StopDegenerate)
			}
			Vnext := convex(vd)
			if len(Vnext) == 0 {
				return bestEffortCells(points, want, C, tr, StopDegenerate)
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
				return bestEffortCells(points, want, C, tr, tr.stopReason())
			}
			if len(refined) == 0 {
				return bestEffortCells(points, want, C, tr, StopDegenerate)
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
			return bestEffortCells(points, want, C, tr, StopDegenerate)
		}
	}
}
