package core

import (
	"math/rand"
	"slices"
	"testing"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/oracle"
	"ist/internal/polytope"
	"ist/internal/skyband"
)

// The references below are the Lemma 5.5 check as it was before the
// single-pass kernel: one scan of the points per candidate, candidates
// tried in top-k order. The kernel must agree with them exactly.

func lemma55Ref(points []geom.Vector, k int, rVerts []geom.Vector, probe geom.Vector) (int, bool) {
	if len(rVerts) == 0 {
		return 0, false
	}
	for _, i := range oracle.TopK(points, probe, k) {
		if countPossibleBeatersRef(points, i, rVerts, k) < k {
			return i, true
		}
	}
	return 0, false
}

func lemma55MultiRef(points []geom.Vector, k int, rVerts []geom.Vector, probe geom.Vector, want int) ([]int, bool) {
	if len(rVerts) == 0 {
		return nil, false
	}
	var qualified []int
	for _, i := range oracle.TopK(points, probe, k) {
		if countPossibleBeatersRef(points, i, rVerts, k) < k {
			qualified = append(qualified, i)
			if len(qualified) >= want {
				return qualified, true
			}
		}
	}
	return qualified, false
}

func countPossibleBeatersRef(points []geom.Vector, i int, rVerts []geom.Vector, limit int) int {
	pi := points[i]
	base := make([]float64, len(rVerts))
	for vi, v := range rVerts {
		base[vi] = v.Dot(pi)
	}
	count := 0
	for j, pj := range points {
		if j == i {
			continue
		}
		for vi, v := range rVerts {
			if v.Dot(pj) > base[vi]+geom.Eps {
				count++
				break
			}
		}
		if count >= limit {
			return count
		}
	}
	return count
}

// stopInput is the argument list of one Lemma 5.5 check.
type stopInput struct {
	name   string
	points []geom.Vector
	k      int
	verts  []geom.Vector
	probe  geom.Vector
}

// regionTap answers as a truthful user and, at every question, copies the
// probe and the region vertices the run's last stop check saw (the tracker
// records both just before the check).
type regionTap struct {
	user *oracle.User
	tr   *tracker
	seen []stopInput
}

func (o *regionTap) Prefer(p, q geom.Vector) bool {
	verts := make([]geom.Vector, len(o.tr.lastVerts))
	for i, v := range o.tr.lastVerts {
		verts[i] = v.Clone()
	}
	o.seen = append(o.seen, stopInput{verts: verts, probe: o.tr.lastU.Clone()})
	return o.user.Prefer(p, q)
}

func (o *regionTap) Questions() int { return o.user.Questions() }

// tappedRegions runs RH or HD-PI (exact convex points) on band for a
// random user and returns the stop-check regions met along the way.
func tappedRegions(name string, band []geom.Vector, k int, seed int64) []stopInput {
	rng := rand.New(rand.NewSource(seed))
	tap := &regionTap{user: oracle.RandomUser(rng, len(band[0]))}
	if name == "rh" {
		tap.tr = newTracker(Budget{}, nil)
		NewRH(RHOptions{Rng: rng}).run(band, k, 1, tap, tap.tr)
	} else {
		a := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rng})
		tap.tr = newTracker(Budget{}, nil)
		a.run(band, k, 1, tap, tap.tr)
	}
	for i := range tap.seen {
		tap.seen[i].points, tap.seen[i].k = band, k
	}
	return tap.seen
}

// hdpiQuestions is HDPI.run's loop after set-up, without a budget: from
// the partitions C and their table gamma it asks o until the run ends and
// returns the run's answer. Before every stop check it hands round the
// partitions, R and the probe. a.opt.Rng must be where set-up left it, so
// that the probes and any refinement draw what HDPI.run's do.
func hdpiQuestions(points []geom.Vector, k, want int, a *HDPI, C []partition, gamma *gammaTable, o oracle.Oracle, round func(C []partition, R *polytope.Polytope, probe geom.Vector)) []int {
	rng := a.opt.Rng
	R := polytope.NewSimplex(len(points[0]))
	lastProbe := uniformUtility(len(points[0]))
	vd := map[int]bool{}
	var stop stopScratch
	for {
		if want == 1 && len(C) == 1 {
			return []int{C[0].point}
		}
		probe := C[rng.Intn(len(C))].poly.Sample(rng)
		lastProbe = probe
		round(C, R, probe)
		if res := stop.lemma55(points, k, R.Vertices(), probe, want); res != nil {
			return res
		}
		best := -1
		if len(C) > 1 {
			best = gamma.best()
		}
		if best < 0 {
			next, Vnext := a.refine(points, k, C, vd, nil)
			if next == nil {
				return bestEffortCells(points, want, C, nil, StopDegenerate)
			}
			C, gamma = next, newGammaTable(points, Vnext, next, a.opt)
			continue
		}
		row := gamma.rows[best]
		h := row.h
		if !o.Prefer(points[row.i], points[row.j]) {
			h = h.Flip()
		}
		C = gamma.apply(h, C, best)
		R.Cut(h)
		if len(C) == 0 {
			return emptied(points, want, lastProbe, nil)
		}
	}
}

// hdpiRounds runs HD-PI on band for a random user drawn from seed, with
// a.opt.Rng seeded by seed too, and hands round every stop check's
// partitions, R and probe. It fails the test unless the run asks the
// questions and gives the answer that HDPI.run does.
func hdpiRounds(t testing.TB, band []geom.Vector, k, want int, mode ConvexMode, seed int64, round func(C []partition, R *polytope.Polytope, probe geom.Vector)) {
	t.Helper()
	u := oracle.RandomUtility(rand.New(rand.NewSource(seed)), len(band[0]))
	user, ref := oracle.NewUser(u), oracle.NewUser(u)
	a := NewHDPI(HDPIOptions{Mode: mode, Rng: rand.New(rand.NewSource(seed))})
	var got []int
	if C, gamma, done := setup(band, want, a.opt, nil); done != nil {
		got = done
	} else {
		got = hdpiQuestions(band, k, want, a, C, gamma, user, round)
	}
	res := NewHDPI(HDPIOptions{Mode: mode, Rng: rand.New(rand.NewSource(seed))}).RunMulti(band, k, want, ref)
	if !slices.Equal(got, res) || user.Questions() != ref.Questions() {
		t.Fatalf("seed %d: replay answers %v after %d questions, HDPI.run %v after %d", seed, got, user.Questions(), res, ref.Questions())
	}
}

// TestLemma55OverRMatchesCells holds HD-PI's stop check over R's vertices
// to the check over every partition's vertices, the vertex set of R = ⋃C
// it replaced: at every round of HD-PI dialogues on embed-slices-shaped and
// anti-correlated bands, in sampling and accurate mode, at want 1 and 5,
// both certify the same points or none.
func TestLemma55OverRMatchesCells(t *testing.T) {
	const k = 10
	var bands [][]geom.Vector
	catalog := carSliceCatalog(t)
	rng := rand.New(rand.NewSource(2))
	for len(bands) < 16 {
		bands = append(bands, carSlice(catalog, rng))
	}
	for seed := int64(3); seed <= 4; seed++ {
		pts := dataset.AntiCorrelated(rand.New(rand.NewSource(seed)), 300, 4).Points
		bands = append(bands, skyband.Filter(pts, skyband.KSkyband(pts, k)))
	}
	var sR, sC stopScratch
	checks, certified := 0, 0
	for n, band := range bands {
		for _, mode := range []ConvexMode{ConvexSampling, ConvexExact} {
			for _, want := range []int{1, 5} {
				hdpiRounds(t, band, k, want, mode, int64(n), func(C []partition, R *polytope.Polytope, probe geom.Vector) {
					fromR := sR.lemma55(band, k, R.Vertices(), probe, want)
					fromC := sC.lemma55(band, k, allVertices(C), probe, want)
					if !slices.Equal(fromR, fromC) {
						t.Fatalf("band %d, %v, want %d, check %d: %v over R, %v over the partitions", n, mode, want, checks, fromR, fromC)
					}
					checks++
					if fromR != nil {
						certified++
					}
				})
			}
		}
	}
	if checks < 200 || certified == 0 {
		t.Fatalf("%d checks, %d certified: too few to compare", checks, certified)
	}
}

// stopInputs collects regions from real RH and HD-PI runs on
// anti-correlated and Car-like bands, HD-PI's both as R, which its stop
// check reads, and as the union of its partitions, whose large vertex sets
// repeat every shared vertex. It then adds the edge cases: duplicated
// vertices, k ≥ n, k = 0 and no region vertices.
func stopInputs(t testing.TB) []stopInput {
	t.Helper()
	var out []stopInput
	bands := []struct {
		name string
		ds   *dataset.Dataset
		k    int
	}{
		{"anti", dataset.AntiCorrelated(rand.New(rand.NewSource(11)), 400, 4), 10},
		{"car", dataset.CarLike(rand.New(rand.NewSource(1)), 1500), 20},
		{"anti3", dataset.AntiCorrelated(rand.New(rand.NewSource(12)), 300, 3), 5},
	}
	for _, b := range bands {
		band := skyband.Filter(b.ds.Points, skyband.KSkyband(b.ds.Points, b.k))
		for _, alg := range []string{"rh", "hdpi"} {
			for seed := int64(1); seed <= 3; seed++ {
				for _, in := range tappedRegions(alg, band, b.k, seed) {
					in.name = b.name + "/" + alg
					out = append(out, in)
				}
			}
		}
		for seed := int64(1); seed <= 3; seed++ {
			hdpiRounds(t, band, b.k, 1, ConvexExact, seed, func(C []partition, _ *polytope.Polytope, probe geom.Vector) {
				out = append(out, stopInput{name: b.name + "/hdpi-cells", points: band, k: b.k, verts: allVertices(C), probe: probe.Clone()})
			})
		}
	}
	if len(out) < 30 {
		t.Fatalf("only %d regions tapped", len(out))
	}
	n := len(out)
	for i := 0; i < n; i += 3 {
		in := out[i]
		dup := in
		dup.name += "/dup-verts"
		dup.verts = append(append(slices.Clone(in.verts), in.verts...), in.verts[0])
		out = append(out, dup)
		if len(in.points) > 150 {
			continue // every point is a candidate: keep the references' n² small
		}
		for _, k := range []int{len(in.points) - 1, len(in.points), len(in.points) + 5} {
			big := in
			big.name += "/k>=n"
			big.k = k
			out = append(out, big)
		}
	}
	noK, noVerts := out[0], out[1]
	noK.name, noK.k = noK.name+"/k=0", 0
	noVerts.name, noVerts.verts = noVerts.name+"/no-verts", nil
	return append(out, noK, noVerts)
}

func TestStopCheckMatchesPerCandidate(t *testing.T) {
	var s stopScratch // one warm scratch across every check, as in a run
	for x, in := range stopInputs(t) {
		got := s.lemma55(in.points, in.k, in.verts, in.probe, 1)
		wantI, wantOK := lemma55Ref(in.points, in.k, in.verts, in.probe)
		if (got != nil) != wantOK || (wantOK && !slices.Equal(got, []int{wantI})) {
			t.Fatalf("%d %s k=%d: lemma55 = %v, want (%d, %v)", x, in.name, in.k, got, wantI, wantOK)
		}
		// The qualifying candidates, in top-k order, straight from the
		// per-candidate counts; a region without vertices certifies none.
		var quals []int
		for _, i := range oracle.TopK(in.points, in.probe, in.k) {
			if len(in.verts) > 0 && countPossibleBeatersRef(in.points, i, in.verts, in.k) < in.k {
				quals = append(quals, i)
			}
		}
		for _, want := range []int{0, 1, 2, len(quals), len(quals) + 1, in.k, in.k + 3} {
			got := s.lemma55(in.points, in.k, in.verts, in.probe, want)
			ok := got != nil
			ref, refOK := lemma55MultiRef(in.points, in.k, in.verts, in.probe, want)
			if ok != refOK || (ok && !slices.Equal(got, ref)) {
				t.Fatalf("%d %s k=%d want=%d: lemma55 = %v, reference (%v, %v)", x, in.name, in.k, want, got, ref, refOK)
			}
			if w := max(want, 1); ok != (len(quals) >= w) || (ok && !slices.Equal(got, quals[:w])) {
				t.Fatalf("%d %s k=%d want=%d: lemma55 = %v, qualifiers %v", x, in.name, in.k, want, got, quals)
			}
		}
	}
}

func TestStopCheckAllocatesNothingWarm(t *testing.T) {
	ds := dataset.CarLike(rand.New(rand.NewSource(1)), 1500)
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, 20))
	in := tappedRegions("rh", band, 20, 2)[1]
	var s stopScratch
	s.lemma55(band, 20, in.verts, in.probe, 3)
	allocs := testing.AllocsPerRun(20, func() {
		s.lemma55(band, 20, in.verts, in.probe, 1)
		s.lemma55(band, 20, in.verts, in.probe, 3)
	})
	if s.lemma55(band, 20, in.verts, in.probe, 1) != nil {
		t.Fatal("the tapped region certifies; pick an earlier one")
	}
	if allocs != 0 {
		t.Fatalf("a warm stop check allocates %v times", allocs)
	}
}

// BenchmarkStopCheck times one Lemma 5.5 check on serve-rh's input with a
// warm per-run scratch: the 20-skyband of the 68,010-tuple Car-like
// catalog of seed 1 (2,252 points) and the region RH leaves after its third
// question for a fixed user, where the check does not certify.
func BenchmarkStopCheck(b *testing.B) {
	const k = 20
	ds := dataset.CarLike(rand.New(rand.NewSource(1)), 68010)
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	if len(band) != 2252 {
		b.Fatalf("band has %d points, want 2252", len(band))
	}
	in := tappedRegions("rh", band, k, 1)[2]
	var s stopScratch
	if s.lemma55(band, k, in.verts, in.probe, 1) != nil {
		b.Fatal("the benchmark region certifies")
	}
	b.ReportAllocs()
	for b.Loop() {
		s.lemma55(band, k, in.verts, in.probe, 1)
	}
}
