package baseline

import (
	"math/rand"

	"ist/internal/geom"
	"ist/internal/oracle"
	"ist/internal/polytope"
)

// UH implements the UH-Random and UH-Simplex algorithms of [36] ("Strongly
// Truthful Interactive Regret Minimization"), adapted to IST as described in
// Section 6 of the paper: they stop when either the top-1 point is
// determined or the maximum regret of a candidate over the remaining
// utility range R falls below the threshold ε = 1 − f(p_k)/f(p₁) (set by
// the experiment harness from the hidden utility, which guarantees the
// returned point is among the top-k).
//
// Both maintain the utility range R and prune candidate points that are
// R-dominated. They differ in hyperplane selection: UH-Random tests
// intersection with random utility samples of R and asks the first
// intersecting random pair; UH-Simplex tests intersection exactly (the
// original uses the simplex method; with an explicit vertex representation
// the vertex scan is the same predicate) and asks the pair whose hyperplane
// passes closest to R's centre.
type UH struct {
	// Simplex selects UH-Simplex behaviour; false is UH-Random.
	Simplex bool
	// Adapt enables the paper's -Adapt variant: prune a point once k points
	// R-dominate it, stop once at most k candidates remain.
	Adapt bool
	// Eps is the regret threshold ε (ignored by Adapt variants).
	Eps float64
	// Rng drives the random pair selection; required.
	Rng *rand.Rand
	// SamplesPerTest is the number of utility samples UH-Random uses per
	// intersection test (default 12).
	SamplesPerTest int
}

// Name implements core.Algorithm.
func (a *UH) Name() string {
	n := "UH-Random"
	if a.Simplex {
		n = "UH-Simplex"
	}
	if a.Adapt {
		n += "-Adapt"
	}
	return n
}

// Run implements core.Algorithm.
func (a *UH) Run(points []geom.Vector, k int, o oracle.Oracle) int {
	if a.Rng == nil {
		a.Rng = rand.New(rand.NewSource(1))
	}
	samples := a.SamplesPerTest
	if samples <= 0 {
		samples = 12
	}
	n := len(points)
	d := len(points[0])
	R := polytope.NewSimplex(d)

	alive := make([]int, n)
	for i := range alive {
		alive[i] = i
	}

	prune := func() {
		limit := 1
		if a.Adapt {
			limit = k
		}
		verts := R.Vertices()
		// Dominators are counted over the snapshot cur, so the filter does
		// not see its own removals.
		cur := append([]int(nil), alive...)
		kept := alive[:0]
		for _, i := range cur {
			dominators := 0
			for _, j := range cur {
				if i == j {
					continue
				}
				if rDominates(points[j], points[i], verts) {
					dominators++
					if dominators >= limit {
						break
					}
				}
			}
			if dominators < limit {
				kept = append(kept, i)
			}
		}
		alive = kept
	}
	prune()

	for round := 0; round < 4*n+64; round++ {
		if a.Adapt {
			if len(alive) <= k {
				if len(alive) > 0 {
					return alive[0]
				}
				return argmaxCenter(points, R)
			}
		} else {
			if len(alive) == 1 {
				return alive[0]
			}
			// ε-stopping: a candidate whose worst-case regret over R is
			// within ε may be returned (its true regret is then <= ε, so it
			// is among the top-k by the harness's choice of ε).
			if best, reg := bestWorstRegret(points, alive, R); reg <= a.Eps+geom.Eps {
				return best
			}
		}

		// Hyperplane selection among alive pairs.
		pi, pj, ok := a.selectPair(points, alive, R, samples)
		if !ok {
			// No alive-pair hyperplane intersects R: the relative order of
			// the candidates is fixed over R, so the centre's best alive
			// candidate is the exact top-1 (pruned points cannot be top-k).
			return argmaxAliveCenter(points, alive, R)
		}
		h := geom.NewHyperplane(points[pi], points[pj])
		if !o.Prefer(points[pi], points[pj]) {
			h = h.Flip()
		}
		R.Cut(h)
		if R.IsEmpty() {
			// Possible only with an erring user.
			break
		}
		prune()
	}
	if len(alive) > 0 {
		return alive[0]
	}
	return argmaxAt(points, uniform(d))
}

// selectPair picks the next question pair.
func (a *UH) selectPair(points []geom.Vector, alive []int, R *polytope.Polytope, samples int) (int, int, bool) {
	if len(alive) < 2 {
		return 0, 0, false
	}
	if !a.Simplex {
		// UH-Random: random pairs, intersection tested with utility samples;
		// fall back to the exact scan to detect exhaustion.
		us := make([]geom.Vector, samples)
		for s := range us {
			us[s] = R.Sample(a.Rng)
		}
		for attempt := 0; attempt < 4*len(alive); attempt++ {
			i := alive[a.Rng.Intn(len(alive))]
			j := alive[a.Rng.Intn(len(alive))]
			if i == j {
				continue
			}
			h := geom.NewHyperplane(points[i], points[j])
			if h.Degenerate() {
				continue
			}
			pos, neg := false, false
			for _, u := range us {
				switch h.SideOf(u) {
				case geom.Above:
					pos = true
				case geom.Below:
					neg = true
				}
			}
			if pos && neg {
				return i, j, true
			}
		}
	}
	// UH-Simplex (and UH-Random exhaustion fallback): exact intersection
	// test, pick the hyperplane closest to R's centre.
	center := R.Center()
	bi, bj, bestDist := -1, -1, 0.0
	for x := 0; x < len(alive); x++ {
		for y := x + 1; y < len(alive); y++ {
			i, j := alive[x], alive[y]
			h := geom.NewHyperplane(points[i], points[j])
			if h.Degenerate() {
				continue
			}
			if c := R.BallSide(h); c == polytope.ClassAbove || c == polytope.ClassBelow {
				continue
			}
			if R.Classify(h) != polytope.ClassIntersect {
				continue
			}
			if dist := h.Distance(center); bi < 0 || dist < bestDist {
				bi, bj, bestDist = i, j, dist
			}
		}
	}
	if bi < 0 {
		return 0, 0, false
	}
	return bi, bj, true
}

// rDominates reports whether p is at least as good as q at every vertex of
// R and strictly better at one — i.e. p R-dominates q.
func rDominates(p, q geom.Vector, verts []geom.Vector) bool {
	strict := false
	for _, v := range verts {
		diff := v.Dot(p) - v.Dot(q)
		if diff < -geom.Eps {
			return false
		}
		if diff > geom.Eps {
			strict = true
		}
	}
	return strict
}

// bestWorstRegret returns the candidate minimizing its worst-case regret
// ratio over R's vertices, and that regret.
func bestWorstRegret(points []geom.Vector, alive []int, R *polytope.Polytope) (int, float64) {
	verts := R.Vertices()
	best, bestReg := alive[0], 2.0
	for _, i := range alive {
		worst := 0.0
		for _, v := range verts {
			top := 0.0
			for _, j := range alive {
				if u := v.Dot(points[j]); u > top {
					top = u
				}
			}
			if top <= 0 {
				continue
			}
			if reg := 1 - v.Dot(points[i])/top; reg > worst {
				worst = reg
			}
		}
		if worst < bestReg {
			best, bestReg = i, worst
		}
	}
	return best, bestReg
}

func argmaxCenter(points []geom.Vector, R *polytope.Polytope) int {
	if R.IsEmpty() {
		return argmaxAt(points, uniform(len(points[0])))
	}
	return argmaxAt(points, R.Center())
}

// argmaxAliveCenter returns the alive candidate with the highest utility at
// R's centre (falling back over all points when nothing is alive).
func argmaxAliveCenter(points []geom.Vector, alive []int, R *polytope.Polytope) int {
	if len(alive) == 0 {
		return argmaxCenter(points, R)
	}
	u := uniform(len(points[0]))
	if !R.IsEmpty() {
		u = R.Center()
	}
	best, bestVal := alive[0], u.Dot(points[alive[0]])
	for _, i := range alive[1:] {
		if v := u.Dot(points[i]); v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

func argmaxAt(points []geom.Vector, u geom.Vector) int {
	best, bestVal := 0, u.Dot(points[0])
	for i := 1; i < len(points); i++ {
		if v := u.Dot(points[i]); v > bestVal {
			best, bestVal = i, v
		}
	}
	return best
}

func uniform(d int) geom.Vector {
	u := geom.NewVector(d)
	for i := range u {
		u[i] = 1 / float64(d)
	}
	return u
}
