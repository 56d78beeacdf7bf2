package core

import (
	"fmt"
	"sort"

	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/polytope"
	"ist/internal/prep"
)

// RobustHDPI is our extension for the paper's stated future work
// ("the situation that users might make mistakes when answering
// questions"). Where HD-PI hard-eliminates every partition inconsistent
// with an answer — so a single wrong answer can eliminate the partition
// holding the true utility vector — RobustHDPI keeps all partitions and
// maintains a multiplicative weight per partition (the weighted-majority /
// noisy-binary-search scheme): partitions on the side contradicted by an
// answer are multiplied by robustEta < 1 instead of removed. It stops when
// Lemma 5.5 certifies a point over the credible region, the heaviest
// partitions holding a robustConfidence fraction of the total weight.
//
// It is HD-PI in code as well as in name: the same options, set-up and Γ
// table (the partitions are never cut, so Γ is classified once).
//
// With a truthful user the behaviour converges to HD-PI's (the true
// partition's weight is never discounted); with an erring user a mistake
// costs weight but is recoverable, trading a few extra questions for
// accuracy (see the ext-noise experiment in EXPERIMENTS.md).
type RobustHDPI struct {
	opt HDPIOptions
}

const (
	// robustEta is the multiplicative penalty for partitions contradicting
	// an answer. Smaller trusts the user more. It plays the role of p/(1-p)
	// in a posterior update with assumed error rate p.
	robustEta = 0.25
	// robustCooldown is how many rounds must pass before the same question
	// can be asked again. Re-asking is what lets the posterior average out
	// answer noise, but a human should not see the identical pair twice in
	// a row.
	robustCooldown = 2
	// robustConfidence is the weight fraction the credible region must hold
	// to stop.
	robustConfidence = 0.95
)

// NewRobustHDPI builds the noise-tolerant HD-PI variant from HD-PI's
// options, with HD-PI's defaults. Its own question cap is
// 16 + 4·⌈log₂|C|⌉ for |C| partitions, enough for several recoveries; a
// caller who wants a tighter one runs it under a Budget.
func NewRobustHDPI(opt HDPIOptions) *RobustHDPI {
	return &RobustHDPI{opt: NewHDPI(opt).opt}
}

// Name implements Algorithm.
func (a *RobustHDPI) Name() string { return fmt.Sprintf("Robust-HD-PI-%s", a.opt.Mode) }

// SetObserver implements Observable.
func (a *RobustHDPI) SetObserver(o obs.Observer) { a.opt.Observer = o }

// SetPrepCache implements PrepCached.
func (a *RobustHDPI) SetPrepCache(c *prep.Cache, fingerprint uint64) {
	a.opt.PrepCache, a.opt.PrepFingerprint = c, fingerprint
}

// Run implements Algorithm.
func (a *RobustHDPI) Run(points []geom.Vector, k int, o oracle.Oracle) int {
	return a.run(points, k, o, obsTracker(a.opt.Observer))
}

// RunBudgeted implements Budgeted. The certificate additionally reports the
// posterior weight fraction behind the answer (CredibleWeight).
func (a *RobustHDPI) RunBudgeted(points []geom.Vector, k int, o oracle.Oracle, b Budget) (int, Certificate) {
	tr := newTracker(b, a.opt.Observer)
	idx, cert := tr.guard(points, k, 1, func() []int { return []int{a.run(points, k, o, tr)} })
	return idx[0], cert
}

func (a *RobustHDPI) run(points []geom.Vector, k int, o oracle.Oracle, tr *tracker) int {
	C, gamma, done := setup(points, 1, a.opt, tr)
	if done != nil {
		return done[0]
	}
	if len(C) == 1 {
		tr.finish(true, StopConverged, C[0].poly.Vertices())
		return C[0].point
	}

	// Fixed partitions, multiplicative weights. The partitions are never
	// cut, so Γ's classifications from set-up hold for the whole run.
	w := make([]float64, len(C))
	for i := range w {
		w[i] = 1
	}
	centers := make([]geom.Vector, len(C))
	for i, part := range C {
		centers[i] = part.poly.Center()
	}
	var stop stopScratch

	// credible returns the smallest set of cells (by descending weight)
	// holding at least a robustConfidence fraction of the total weight — the
	// region the posterior believes the utility vector is in — and the
	// weight fraction that set actually holds.
	credible := func() ([]int, float64) {
		idx := make([]int, len(C))
		for i := range idx {
			idx[i] = i
		}
		sortByWeightDesc(idx, w)
		total := 0.0
		for _, wi := range w {
			total += wi
		}
		need := robustConfidence * total
		var cells []int
		acc := 0.0
		for _, ci := range idx {
			cells = append(cells, ci)
			acc += w[ci]
			if acc >= need {
				break
			}
		}
		if total <= 0 {
			return cells, 0
		}
		return cells, acc / total
	}

	// answer extracts a point that is certainly top-k if the user's utility
	// vector lies in the credible region (Lemma 5.5 over the region's
	// vertices), falling back to the top-1 at the weighted centre. It also
	// returns the region's vertices for certificate accounting.
	answer := func(cells []int, strict bool) (int, []geom.Vector, bool) {
		var verts []geom.Vector
		probe := geom.NewVector(len(points[0]))
		var wsum float64
		for _, ci := range cells {
			verts = append(verts, C[ci].poly.Vertices()...)
			probe = probe.AddScaled(w[ci], centers[ci])
			wsum += w[ci]
		}
		probe = probe.Scale(1 / wsum)
		tr.observe(probe, nil)
		res := stop.lemma55(points, k, verts, probe, 1)
		tr.stopCheck(res != nil)
		if res != nil {
			return res[0], verts, true
		}
		if strict {
			return 0, verts, false
		}
		return oracle.TopK(points, probe, 1)[0], verts, true
	}

	maxQ := 16
	for m := 1; m < len(C); m *= 2 {
		maxQ += 4
	}
	lastAsked := map[int]int{}

	finish := func(certified bool, reason StopReason, frac float64, verts []geom.Vector) {
		if tr != nil {
			tr.credible = frac
		}
		tr.finish(certified, reason, verts)
	}

	for q := 0; q < maxQ; q++ {
		// Stopping: Lemma 5.5 over the credible region — the posterior's
		// generalization of HD-PI's stopping condition 2.
		if tr.checkDue(q) {
			cells, frac := credible()
			if p, verts, ok := answer(cells, true); ok {
				finish(true, StopConverged, frac, verts)
				return p
			}
		}
		if tr.exhausted() {
			break
		}
		tr.maybeDegrade()

		// Question selection: the Γ row splitting the WEIGHT most evenly
		// (the weighted analogue of the even score); straddling partitions
		// count half their weight per side. Rows stay askable after a
		// cooldown — repeating an informative question is exactly how a
		// posterior shakes off answer noise.
		bestRow, bestScore := -1, -1.0
		for _, r := range gamma.live {
			if tr.exhausted() {
				break
			}
			if asked, ok := lastAsked[r]; ok && q-asked <= robustCooldown {
				continue
			}
			var above, below float64
			for ci := range C {
				switch gamma.class(r, ci) {
				case polytope.ClassAbove:
					above += w[ci]
				case polytope.ClassBelow:
					below += w[ci]
				case polytope.ClassIntersect:
					above += w[ci] / 2
					below += w[ci] / 2
				}
			}
			if score := min(above, below); score > bestScore {
				bestRow, bestScore = r, score
			}
		}
		if tr.exhausted() {
			break
		}
		if bestRow < 0 || bestScore <= geom.TieEps {
			break // nothing splits the remaining mass
		}
		row := gamma.rows[bestRow]
		lastAsked[bestRow] = q
		tr.ask(row.i, row.j)
		ans := o.Prefer(points[row.i], points[row.j])
		tr.question(row.i, row.j, ans)
		// Posterior-style reweight: partitions entirely on the side the
		// answer contradicts (below the row's hyperplane, or above it when
		// the user prefers the second point) decay by robustEta (≈ p/(1-p)
		// for assumed error p); straddling partitions split the difference.
		// A degenerate ClassOn cell lies in the hyperplane itself, so the
		// answer carries no evidence against it — it gets the same mild
		// treatment as a straddler, not the full contradiction penalty. With
		// a truthful user the true partition is never entirely contradicted,
		// so repeated questions let it out-weigh every wrong cell.
		contradicted := polytope.ClassBelow
		if !ans {
			contradicted = polytope.ClassAbove
		}
		for ci := range C {
			switch gamma.class(bestRow, ci) {
			case contradicted:
				w[ci] *= robustEta
			case polytope.ClassIntersect, polytope.ClassOn:
				w[ci] *= (1 + robustEta) / 2
			}
		}
	}

	cells, frac := credible()
	p, verts, _ := answer(cells, false)
	reason := tr.stopReason()
	if tr == nil || tr.exhReason == "" {
		// The algorithm's own question cap (or an uninformative Γ) ended the
		// run without posterior convergence — best effort, not a budget
		// fault.
		reason = StopQuestions
	}
	finish(false, reason, frac, verts)
	return p
}

// sortByWeightDesc sorts cell indices by their weights, descending.
func sortByWeightDesc(idx []int, w []float64) {
	sort.SliceStable(idx, func(a, b int) bool { return w[idx[a]] > w[idx[b]] })
}
