package core

import (
	"fmt"
	"math/rand"
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
// answer are multiplied by Eta < 1 instead of removed. It stops when one
// partition holds a Confidence fraction of the total weight and returns its
// associated point.
//
// With a truthful user the behaviour converges to HD-PI's (the true
// partition's weight is never discounted); with an erring user a mistake
// costs weight but is recoverable, trading a few extra questions for
// accuracy (see the ext-noise experiment in EXPERIMENTS.md).
type RobustHDPI struct {
	opt RobustHDPIOptions
}

// RobustHDPIOptions configures RobustHDPI.
type RobustHDPIOptions struct {
	// Mode and Samples control convex-point detection as in HDPIOptions.
	Mode    ConvexMode
	Samples int
	// Eta is the multiplicative penalty for partitions contradicting an
	// answer (default 0.25). Smaller trusts the user more. It plays the
	// role of p/(1-p) in a posterior update with assumed error rate p.
	Eta float64
	// Cooldown is how many rounds must pass before the same question can be
	// asked again (default 2). Re-asking is what lets the posterior average
	// out answer noise, but a human should not see the identical pair twice
	// in a row.
	Cooldown int
	// Confidence is the weight fraction one partition must reach to stop
	// (default 0.95).
	Confidence float64
	// MaxQuestions caps the interaction (default 4·log₂ of the partition
	// count + 16, enough for several recoveries).
	MaxQuestions int
	// Rng drives sampling; required.
	Rng *rand.Rand
	// Observer receives trace events (internal/obs); nil disables tracing.
	Observer obs.Observer
	// PrepCache and PrepFingerprint control the exact convex-point scan as
	// in HDPIOptions.
	PrepCache       *prep.Cache
	PrepFingerprint uint64
}

// NewRobustHDPI builds the noise-tolerant HD-PI variant.
func NewRobustHDPI(opt RobustHDPIOptions) *RobustHDPI {
	if opt.Samples <= 0 {
		opt.Samples = 400
	}
	if opt.Eta == 0 {
		opt.Eta = 0.25
	}
	if opt.Confidence == 0 {
		opt.Confidence = 0.95
	}
	if opt.Cooldown <= 0 {
		opt.Cooldown = 2
	}
	if opt.Rng == nil {
		opt.Rng = rand.New(rand.NewSource(1))
	}
	return &RobustHDPI{opt: opt}
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
func (a *RobustHDPI) RunBudgeted(points []geom.Vector, k int, o oracle.Oracle, b Budget) (idx int, cert Certificate) {
	tr := newTracker(b, polytope.StrategyBall, 1, a.opt.Observer)
	defer tr.rescue(points, k, &idx, &cert)
	idx = a.run(points, k, o, tr)
	cert = tr.certificate(points, k)
	return idx, cert
}

func (a *RobustHDPI) run(points []geom.Vector, k int, o oracle.Oracle, tr *tracker) int {
	d := len(points[0])
	rng := a.opt.Rng

	V := convexPoints(points, HDPIOptions{
		Mode: a.opt.Mode, Samples: a.opt.Samples, Rng: rng,
		PrepCache: a.opt.PrepCache, PrepFingerprint: a.opt.PrepFingerprint,
	}, tr)
	base := &HDPI{opt: HDPIOptions{Rng: rng}}
	C := base.buildPartitions(points, V, d, tr)
	if tr.exhausted() {
		return bestEffortCells(points, C, tr)
	}
	if len(C) == 0 {
		tr.finish(true, StopConverged, nil)
		return argmaxAt(points, uniformUtility(d))
	}
	if len(C) == 1 {
		tr.finish(true, StopConverged, C[0].poly.Vertices())
		return C[0].point
	}

	// Fixed partitions, multiplicative weights. The bounding strategy starts
	// at the paper's ball and may be downgraded by the degradation ladder.
	strat := polytope.StrategyBall
	w := make([]float64, len(C))
	for i := range w {
		w[i] = 1
	}
	centers := make([]geom.Vector, len(C))
	for i, part := range C {
		centers[i] = part.poly.Center()
	}
	gamma := buildGamma(points, V)
	var stop stopScratch

	// credible returns the smallest set of cells (by descending weight)
	// holding at least a Confidence fraction of the total weight — the
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
		need := a.opt.Confidence * total
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
		probe := geom.NewVector(d)
		var wsum float64
		for _, ci := range cells {
			verts = append(verts, C[ci].poly.Vertices()...)
			probe = probe.AddScaled(w[ci], centers[ci])
			wsum += w[ci]
		}
		probe = probe.Scale(1 / wsum)
		tr.observe(probe, nil)
		p, ok := stop.lemma55(points, k, verts, probe)
		tr.stopCheck(ok)
		if ok {
			return p, verts, true
		}
		if strict {
			return 0, verts, false
		}
		return argmaxAt(points, probe), verts, true
	}

	maxQ := a.opt.MaxQuestions
	if maxQ <= 0 {
		maxQ = 16
		for m := 1; m < len(C); m *= 2 {
			maxQ += 4
		}
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
		cells, frac := credible()
		if p, verts, ok := answer(cells, true); ok {
			finish(true, StopConverged, frac, verts)
			return p
		}
		if tr.exhausted() {
			break
		}
		tr.maybeDegrade()
		if tr != nil && tr.active {
			strat = tr.strategy
		}

		// Question selection: the hyperplane splitting the WEIGHT most
		// evenly (the weighted analogue of the even score). Partition/
		// hyperplane relationships are exact (with the bounding-ball
		// shortcut); straddling partitions count half their weight per side.
		// Rows stay askable after a cooldown — repeating an informative
		// question is exactly how a posterior shakes off answer noise.
		bestRow, bestScore := -1, -1.0
		for ri, row := range gamma {
			if tr.exhausted() {
				break
			}
			if asked, ok := lastAsked[ri]; ok && q-asked <= a.opt.Cooldown {
				continue
			}
			var above, below float64
			for ci, part := range C {
				switch part.poly.ClassifyWith(row.h, strat, nil) {
				case polytope.ClassAbove:
					above += w[ci]
				case polytope.ClassBelow:
					below += w[ci]
				case polytope.ClassIntersect:
					above += w[ci] / 2
					below += w[ci] / 2
				}
			}
			score := above
			if below < above {
				score = below
			}
			if score > bestScore {
				bestRow, bestScore = ri, score
			}
		}
		if tr.exhausted() {
			break
		}
		if bestRow < 0 || bestScore <= geom.TieEps {
			break // nothing splits the remaining mass
		}
		row := gamma[bestRow]
		lastAsked[bestRow] = q
		h := row.h
		tr.ask(row.i, row.j)
		ans := o.Prefer(points[row.i], points[row.j])
		if !ans {
			h = h.Flip()
		}
		tr.question(row.i, row.j, ans)
		// Posterior-style reweight: partitions entirely on the
		// contradicted side decay by Eta (≈ p/(1-p) for assumed error p);
		// straddling partitions split the difference. A degenerate ClassOn
		// cell lies in the hyperplane itself, so the answer carries no
		// evidence against it — it gets the same mild treatment as a
		// straddler, not the full contradiction penalty. With a truthful
		// user the true partition is never entirely contradicted, so
		// repeated questions let it out-weigh every wrong cell.
		mild := (1 + a.opt.Eta) / 2
		for ci, part := range C {
			switch part.poly.ClassifyWith(h, strat, nil) {
			case polytope.ClassBelow:
				w[ci] *= a.opt.Eta
			case polytope.ClassIntersect, polytope.ClassOn:
				w[ci] *= mild
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
