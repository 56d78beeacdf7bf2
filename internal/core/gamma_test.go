package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/hull"
	"ist/internal/oracle"
	"ist/internal/polytope"
	"ist/internal/skyband"
)

// rebuildCounts recomputes a row's (N+, N−, N_int) from scratch.
func rebuildCounts(h geom.Hyperplane, C []partition) (na, nb, ni int) {
	for _, part := range C {
		switch part.poly.Classify(h) {
		case polytope.ClassAbove:
			na++
		case polytope.ClassBelow:
			nb++
		case polytope.ClassIntersect:
			ni++
		}
	}
	return
}

// TestGammaIncrementalMatchesScratch drives the cached Γ table through a
// simulated interaction and verifies after every apply() that the cached
// counters equal a from-scratch classification of every surviving row.
func TestGammaIncrementalMatchesScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		d := 2 + rng.Intn(3)
		ds := dataset.AntiCorrelated(rng, 60, d)
		pts := ds.Points
		V := hull.ConvexPointsSampling(pts, 150, rng)
		if len(V) < 3 {
			continue
		}
		opt := NewHDPI(HDPIOptions{Rng: rand.New(rand.NewSource(int64(trial)))}).opt
		// Use the exact strategy so cached and scratch classifications use
		// identical predicates.
		opt.Strategy = polytope.StrategyNone
		C := buildPartitions(pts, V, polytope.NewSimplex(d), nil)
		if len(C) < 2 {
			continue
		}
		g := newGammaTable(pts, V, C, opt)
		u := oracle.RandomUtility(rng, d)

		for round := 0; round < 6 && len(g.live) > 0 && len(C) > 1; round++ {
			best := g.best()
			if best < 0 {
				break
			}
			row := g.rows[best]
			h := row.h
			if u.Dot(pts[row.i]) < u.Dot(pts[row.j]) {
				h = h.Flip()
			}
			C = g.apply(h, C, best)
			for _, r := range g.live {
				na, nb, ni := rebuildCounts(g.rows[r].h, C)
				if cnt := g.counts[r]; na != int(cnt[polytope.ClassAbove]) || nb != int(cnt[polytope.ClassBelow]) || ni != int(cnt[polytope.ClassIntersect]) {
					t.Fatalf("trial %d round %d row %d: cached %v vs scratch (%d,%d,%d)", trial, round, r, cnt, na, nb, ni)
				}
			}
		}
	}
}

// Property: apply() never keeps a partition on the wrong side of the
// answered halfspace, and the surviving region always contains the true
// utility vector when answers are truthful.
func TestQuickGammaApplySoundness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(2)
		ds := dataset.AntiCorrelated(rng, 40, d)
		pts := ds.Points
		V := hull.ConvexPointsSampling(pts, 100, rng)
		if len(V) < 3 {
			return true
		}
		opt := NewHDPI(HDPIOptions{Rng: rng}).opt
		C := buildPartitions(pts, V, polytope.NewSimplex(d), nil)
		if len(C) < 2 {
			return true
		}
		g := newGammaTable(pts, V, C, opt)
		u := oracle.RandomUtility(rng, d)
		for round := 0; round < 5 && len(C) > 1; round++ {
			best := g.best()
			if best < 0 {
				break
			}
			row := g.rows[best]
			h := row.h
			if u.Dot(pts[row.i]) < u.Dot(pts[row.j]) {
				h = h.Flip()
			}
			C = g.apply(h, C, best)
			// No surviving partition may have a vertex strictly below h
			// (they were cut to the closed positive side).
			for _, part := range C {
				for _, v := range part.poly.Vertices() {
					if h.SideOf(v) == geom.Below {
						return false
					}
				}
			}
			// A live row's cached Above or Below class against a surviving
			// partition must hold at every vertex of it.
			for _, r := range g.live {
				for ci, part := range C {
					c := g.class(r, ci)
					for _, v := range part.poly.Vertices() {
						side := g.rows[r].h.SideOf(v)
						if (c == polytope.ClassAbove && side == geom.Below) || (c == polytope.ClassBelow && side == geom.Above) {
							return false
						}
					}
				}
			}
			// The true u must remain covered by some partition.
			covered := false
			for _, part := range C {
				if part.poly.Contains(u) {
					covered = true
					break
				}
			}
			if !covered && len(C) > 0 {
				// u may sit exactly on a removed sliver's boundary; accept
				// only if u is within eps of some partition via its center
				// distance — otherwise fail.
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// gammaTableRef is Γ as it stood before its classes went column by column:
// row-major classes, each row's in a slice of its own, and an apply that
// rebuilds every row over the surviving partitions. gammaTable must make
// the same choices, keep the same rows and classes and count the same
// classifications.
type gammaTableRef struct {
	rows    []gammaRow
	classes [][]int8 // classes[r][c]: relationship of row r to partition c
	nAbove  []int
	nBelow  []int
	nInt    []int
	opt     HDPIOptions
}

func newGammaTableRef(points []geom.Vector, V []int, C []partition, opt HDPIOptions) *gammaTableRef {
	rows := buildGamma(points, V)
	hs := make([]geom.Hyperplane, len(rows))
	for r, row := range rows {
		hs[r] = row.h
	}
	nc := len(C)
	block := make([]int8, len(rows)*nc)
	nAbove, nBelow, nInt := make([]int, len(rows)), make([]int, len(rows)), make([]int, len(rows))
	out := make([]polytope.Class, len(rows))
	for ci, part := range C {
		part.poly.ClassifyEach(hs, opt.Strategy, opt.Stats, out)
		for r, c := range out {
			block[r*nc+ci] = int8(c)
			switch c {
			case polytope.ClassAbove:
				nAbove[r]++
			case polytope.ClassBelow:
				nBelow[r]++
			case polytope.ClassIntersect:
				nInt[r]++
			}
		}
	}
	g := &gammaTableRef{opt: opt, rows: rows[:0], nAbove: nAbove[:0], nBelow: nBelow[:0], nInt: nInt[:0]}
	for r, row := range rows {
		na, nb, ni := nAbove[r], nBelow[r], nInt[r]
		if ni == 0 && (na == 0 || nb == 0) {
			continue // preference already implied over R
		}
		g.rows = append(g.rows, row)
		g.classes = append(g.classes, block[r*nc:(r+1)*nc:(r+1)*nc])
		g.nAbove = append(g.nAbove, na)
		g.nBelow = append(g.nBelow, nb)
		g.nInt = append(g.nInt, ni)
	}
	return g
}

func (g *gammaTableRef) best() int {
	bestRow, bestScore := -1, 0.0
	for r := range g.rows {
		score := float64(min(g.nAbove[r], g.nBelow[r])) - g.opt.Beta*float64(g.nInt[r])
		if bestRow == -1 || score > bestScore {
			bestRow, bestScore = r, score
		}
	}
	return bestRow
}

func (g *gammaTableRef) apply(h geom.Hyperplane, C []partition, asked int) []partition {
	// Classify and update partitions first, remembering the fate of each
	// old index: its new index, or -1 when removed; cutPart marks shrunk
	// partitions whose Intersect cache entries must be rechecked.
	newIdx := make([]int, len(C))
	cutPart := make([]bool, len(C))
	var next []partition
	for ci, part := range C {
		switch part.poly.ClassifyWith(h, g.opt.Strategy, g.opt.Stats) {
		case polytope.ClassAbove:
			newIdx[ci] = len(next)
			next = append(next, part)
		case polytope.ClassIntersect:
			part.poly.CutObserved(h, g.opt.Observer)
			if !part.poly.IsEmpty() {
				newIdx[ci] = len(next)
				cutPart[ci] = true
				next = append(next, part)
			} else {
				newIdx[ci] = -1
			}
		default: // Below, On, Empty: cannot contain the utility vector
			newIdx[ci] = -1
		}
	}

	// Rebuild each row's cache over the surviving partitions.
	keepRows := 0
	for r := range g.rows {
		if r == asked {
			continue
		}
		cls := make([]int8, len(next))
		na, nb, ni := 0, 0, 0
		for ci := range C {
			ni2 := newIdx[ci]
			if ni2 < 0 {
				continue
			}
			c := polytope.Class(g.classes[r][ci])
			if cutPart[ci] && c == polytope.ClassIntersect {
				// The partition shrank: an Intersect entry may have resolved.
				c = next[ni2].poly.ClassifyWith(g.rows[r].h, g.opt.Strategy, g.opt.Stats)
			}
			cls[ni2] = int8(c)
			switch c {
			case polytope.ClassAbove:
				na++
			case polytope.ClassBelow:
				nb++
			case polytope.ClassIntersect:
				ni++
			}
		}
		if ni == 0 && (na == 0 || nb == 0) {
			continue
		}
		g.rows[keepRows] = g.rows[r]
		g.classes[keepRows] = cls
		g.nAbove[keepRows] = na
		g.nBelow[keepRows] = nb
		g.nInt[keepRows] = ni
		keepRows++
	}
	g.rows = g.rows[:keepRows]
	g.classes = g.classes[:keepRows]
	g.nAbove = g.nAbove[:keepRows]
	g.nBelow = g.nBelow[:keepRows]
	g.nInt = g.nInt[:keepRows]
	return next
}

// sameGamma fails the test unless the live rows of got, in order, are the
// reference's rows with the same classes over C and the same counts.
func sameGamma(t *testing.T, what string, got *gammaTable, want *gammaTableRef, C []partition) {
	t.Helper()
	if len(got.live) != len(want.rows) {
		t.Fatalf("%s: %d live rows, reference %d", what, len(got.live), len(want.rows))
	}
	if len(got.cols) != len(C) {
		t.Fatalf("%s: %d columns for %d partitions", what, len(got.cols), len(C))
	}
	for x, r := range got.live {
		a, b := got.rows[r], want.rows[x]
		if a.i != b.i || a.j != b.j || !slices.Equal(a.h.Normal, b.h.Normal) {
			t.Fatalf("%s: live row %d is (%d,%d), reference (%d,%d)", what, x, a.i, a.j, b.i, b.j)
		}
		for ci := range C {
			if c := got.class(r, ci); c != polytope.Class(want.classes[x][ci]) {
				t.Fatalf("%s: live row %d partition %d is %v, reference %v", what, x, ci, c, polytope.Class(want.classes[x][ci]))
			}
		}
		cnt := got.counts[r]
		if int(cnt[polytope.ClassAbove]) != want.nAbove[x] || int(cnt[polytope.ClassBelow]) != want.nBelow[x] || int(cnt[polytope.ClassIntersect]) != want.nInt[x] {
			t.Fatalf("%s: live row %d counts %v, reference (%d,%d,%d)", what, x, cnt, want.nAbove[x], want.nBelow[x], want.nInt[x])
		}
		if total := cnt[0] + cnt[1] + cnt[2] + cnt[3] + cnt[4]; int(total) != len(C) {
			t.Fatalf("%s: live row %d counts %v over %d partitions", what, x, cnt, len(C))
		}
	}
}

// sameCells fails the test unless two partition sets hold the same points
// and vertices.
func sameCells(t *testing.T, what string, got, want []partition) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d partitions, reference %d", what, len(got), len(want))
	}
	for ci := range got {
		a, b := got[ci].poly.Vertices(), want[ci].poly.Vertices()
		same := func(x, y geom.Vector) bool { return slices.Equal(x, y) }
		if got[ci].point != want[ci].point || !slices.EqualFunc(a, b, same) {
			t.Fatalf("%s: partition %d of point %d, reference point %d", what, ci, got[ci].point, want[ci].point)
		}
	}
}

// carSliceCatalog is the catalog embed-slices draws its slices from: the
// 68,010-tuple Car-like catalog of seed 1.
func carSliceCatalog(tb testing.TB) []geom.Vector {
	tb.Helper()
	ds, err := dataset.ByName("car", rand.New(rand.NewSource(1)), 68010, 4)
	if err != nil {
		tb.Fatal(err)
	}
	return ds.Points
}

// carSlice is an embed-slices-shaped band: the k = 10 skyband of a uniform
// 1,000-tuple slice of the catalog drawn by rng. The first slice of a seed-1
// rng is BenchmarkConvexPointsExactCarSlice's band.
func carSlice(catalog []geom.Vector, rng *rand.Rand) []geom.Vector {
	slice := make([]geom.Vector, 0, 1000)
	for _, i := range rng.Perm(len(catalog))[:1000] {
		slice = append(slice, catalog[i])
	}
	return skyband.Filter(slice, skyband.KSkyband(slice, 10))
}

// TestGammaTableMatchesReference holds newGammaTable and apply to the
// row-major reference, under every bounding strategy, on
// embed-slices-shaped bands and small anti-correlated ones with an emptied
// cell among the partitions: after set-up and after every answer until one
// partition is left, both pick the same row and keep the same rows,
// classes, counts and partitions, and count the same classifications.
func TestGammaTableMatchesReference(t *testing.T) {
	type input struct {
		pts []geom.Vector
		V   []int
	}
	var inputs []input
	catalog := carSliceCatalog(t)
	rng := rand.New(rand.NewSource(1))
	for len(inputs) < 4 {
		pts := carSlice(catalog, rng)
		V, err := hull.ConvexPointsExact(pts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{pts, V})
	}
	for d := 2; d <= 5; d++ {
		pts := dataset.AntiCorrelated(rng, 80, d).Points
		inputs = append(inputs, input{pts, hull.ConvexPointsSampling(pts, 150, rng)})
	}
	strategies := []polytope.Strategy{polytope.StrategyBall, polytope.StrategyRect, polytope.StrategyRectFast, polytope.StrategyNone}
	for n, in := range inputs {
		d := len(in.pts[0])
		u := oracle.RandomUtility(rng, d)
		for _, strat := range strategies {
			cells := func() []partition {
				C := buildPartitions(in.pts, in.V, polytope.NewSimplex(d), nil)
				empty := polytope.NewSimplex(d)
				empty.Cut(geom.Hyperplane{Normal: uniformUtility(d).Scale(-1)})
				return append(C, partition{poly: empty, point: -1})
			}
			Cg, Cw := cells(), cells()
			var sg, sw polytope.BoundStats
			opt := NewHDPI(HDPIOptions{Strategy: strat}).opt
			opt.Stats = &sg
			got := newGammaTable(in.pts, in.V, Cg, opt)
			opt.Stats = &sw
			want := newGammaTableRef(in.pts, in.V, Cw, opt)
			what := fmt.Sprintf("input %d, %v", n, strat)
			sameGamma(t, what, got, want, Cg)
			if sg != sw || sg.Identifications == 0 {
				t.Fatalf("%s: stats %+v, reference %+v", what, sg, sw)
			}
			for round := 0; len(Cg) > 1; round++ {
				what := fmt.Sprintf("%s, answer %d", what, round+1)
				best, refBest := got.best(), want.best()
				if (best < 0) != (refBest < 0) {
					t.Fatalf("%s: best row %d, reference %d", what, best, refBest)
				}
				if best < 0 {
					break
				}
				row := got.rows[best]
				if ref := want.rows[refBest]; row.i != ref.i || row.j != ref.j {
					t.Fatalf("%s: best row (%d,%d), reference (%d,%d)", what, row.i, row.j, ref.i, ref.j)
				}
				h := row.h
				if u.Dot(in.pts[row.i]) < u.Dot(in.pts[row.j]) {
					h = h.Flip()
				}
				Cg, Cw = got.apply(h, Cg, best), want.apply(h, Cw, refBest)
				sameCells(t, what, Cg, Cw)
				sameGamma(t, what, got, want, Cg)
				if sg != sw {
					t.Fatalf("%s: stats %+v, reference %+v", what, sg, sw)
				}
			}
		}
	}
}

// TestGammaApplyAllocatesOnlyInCuts pins apply's allocations: whatever the
// number of rows, an answer allocates only in the cuts of the partitions it
// splits. Under the exact classifier nothing else in apply allocates, so on
// fresh tables of an embed-slices-shaped band, with over a thousand live
// rows, apply allocates exactly what cutting the same partitions does.
func TestGammaApplyAllocatesOnlyInCuts(t *testing.T) {
	pts := carSlice(carSliceCatalog(t), rand.New(rand.NewSource(1)))
	V, err := hull.ConvexPointsExact(pts, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := NewHDPI(HDPIOptions{Mode: ConvexExact, Strategy: polytope.StrategyNone}).opt
	// AllocsPerRun calls its function runs+1 times, each on a fresh state.
	const runs = 3
	tables := make([]*gammaTable, runs+1)
	applied, cut := make([][]partition, runs+1), make([][]partition, runs+1)
	for x := range tables {
		applied[x] = buildPartitions(pts, V, polytope.NewSimplex(4), nil)
		tables[x] = newGammaTable(pts, V, applied[x], opt)
		cut[x] = buildPartitions(pts, V, polytope.NewSimplex(4), nil)
	}
	if len(tables[0].live) < 1000 {
		t.Fatalf("%d live rows, want a large table", len(tables[0].live))
	}
	best := tables[0].best()
	h := tables[0].rows[best].h
	x := 0
	applyAllocs := testing.AllocsPerRun(runs, func() {
		tables[x].apply(h, applied[x], best)
		x++
	})
	y := 0
	cutAllocs := testing.AllocsPerRun(runs, func() {
		for _, part := range cut[y] {
			if part.poly.Classify(h) == polytope.ClassIntersect {
				part.poly.Cut(h)
			}
		}
		y++
	})
	if applyAllocs != cutAllocs || cutAllocs == 0 {
		t.Fatalf("apply allocates %v times, its cuts %v", applyAllocs, cutAllocs)
	}
}

// BenchmarkHDPISetup times HD-PI's set-up after the convex-point scan on
// BenchmarkConvexPointsExactCarSlice's band: cutting the cells out of the
// simplex (partitions) and classifying Γ against them (gamma).
func BenchmarkHDPISetup(b *testing.B) {
	pts := carSlice(carSliceCatalog(b), rand.New(rand.NewSource(1)))
	V, err := hull.ConvexPointsExact(pts, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	opt := NewHDPI(HDPIOptions{Mode: ConvexExact}).opt
	b.Run("partitions", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			buildPartitions(pts, V, polytope.NewSimplex(4), nil)
		}
	})
	b.Run("gamma", func(b *testing.B) {
		C := buildPartitions(pts, V, polytope.NewSimplex(4), nil)
		b.ReportAllocs()
		for b.Loop() {
			newGammaTable(pts, V, C, opt)
		}
	})
}

// BenchmarkHDPIQuestions times HD-PI's question step, from the first stop
// check to the last: at every round the Lemma 5.5 check over R, the choice
// of a Γ row and, after the answer, apply and R's cut. It runs accurate
// HD-PI dialogues (k = 10, one answer) for fixed users on eight
// embed-slices-shaped bands; the convex points, partitions and Γ of every
// dialogue are built untimed. It reports the time and allocations per
// answer.
func BenchmarkHDPIQuestions(b *testing.B) {
	const k = 10
	type dialogue struct {
		pts []geom.Vector
		V   []int
		u   geom.Vector
	}
	var ds []dialogue
	catalog := carSliceCatalog(b)
	rng := rand.New(rand.NewSource(1))
	for len(ds) < 8 {
		pts := carSlice(catalog, rng)
		V, err := hull.ConvexPointsExact(pts, nil, nil)
		if err != nil {
			b.Fatal(err)
		}
		ds = append(ds, dialogue{pts, V, oracle.RandomUtility(rng, 4)})
	}
	answers, mallocs := 0, uint64(0)
	var ms runtime.MemStats
	// Go 1.24's b.Loop scales b.N by the time since the last StartTimer, so
	// a benchmark that stops its timer counts iterations by hand.
	b.ResetTimer()
	for range b.N {
		for n, d := range ds {
			b.StopTimer()
			a := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(int64(n)))})
			C := buildPartitions(d.pts, d.V, polytope.NewSimplex(4), nil)
			gamma := newGammaTable(d.pts, d.V, C, a.opt)
			user := oracle.NewUser(d.u)
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			b.StartTimer()
			hdpiQuestions(d.pts, k, 1, a, C, gamma, user, func([]partition, *polytope.Polytope, geom.Vector) {})
			b.StopTimer()
			runtime.ReadMemStats(&ms)
			mallocs += ms.Mallocs - before
			answers += user.Questions()
			b.StartTimer()
		}
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(answers), "µs/answer")
	b.ReportMetric(float64(mallocs)/float64(answers), "allocs/answer")
}
