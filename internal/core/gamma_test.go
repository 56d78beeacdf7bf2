package core

import (
	"fmt"
	"math/rand"
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

		for round := 0; round < 6 && len(g.rows) > 0 && len(C) > 1; round++ {
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
			for r := range g.rows {
				na, nb, ni := rebuildCounts(g.rows[r].h, C)
				if na != g.nAbove[r] || nb != g.nBelow[r] || ni != g.nInt[r] {
					t.Fatalf("trial %d round %d row %d: cached (%d,%d,%d) vs scratch (%d,%d,%d)",
						trial, round, r, g.nAbove[r], g.nBelow[r], g.nInt[r], na, nb, ni)
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

// newGammaTableRef is newGammaTable as it stood before it went cell by
// cell: one row at a time against every partition, each row's classes in a
// slice of their own. newGammaTable must build the same table.
func newGammaTableRef(points []geom.Vector, V []int, C []partition, opt HDPIOptions) *gammaTable {
	g := &gammaTable{opt: opt}
	for _, row := range buildGamma(points, V) {
		cls := make([]int8, len(C))
		na, nb, ni := 0, 0, 0
		for ci, part := range C {
			c := part.poly.ClassifyWith(row.h, opt.Strategy, opt.Stats)
			cls[ci] = int8(c)
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
			continue // preference already implied over R
		}
		g.rows = append(g.rows, row)
		g.classes = append(g.classes, cls)
		g.nAbove = append(g.nAbove, na)
		g.nBelow = append(g.nBelow, nb)
		g.nInt = append(g.nInt, ni)
	}
	return g
}

// sameGamma fails the test unless two tables hold the same rows, classes
// and counts.
func sameGamma(t *testing.T, what string, got, want *gammaTable) {
	t.Helper()
	if len(got.rows) != len(want.rows) {
		t.Fatalf("%s: %d rows, reference %d", what, len(got.rows), len(want.rows))
	}
	for r := range got.rows {
		a, b := got.rows[r], want.rows[r]
		if a.i != b.i || a.j != b.j || !slices.Equal(a.h.Normal, b.h.Normal) {
			t.Fatalf("%s: row %d is (%d,%d), reference (%d,%d)", what, r, a.i, a.j, b.i, b.j)
		}
		if !slices.Equal(got.classes[r], want.classes[r]) {
			t.Fatalf("%s: row %d classes %v, reference %v", what, r, got.classes[r], want.classes[r])
		}
		if got.nAbove[r] != want.nAbove[r] || got.nBelow[r] != want.nBelow[r] || got.nInt[r] != want.nInt[r] {
			t.Fatalf("%s: row %d counts (%d,%d,%d), reference (%d,%d,%d)", what, r,
				got.nAbove[r], got.nBelow[r], got.nInt[r], want.nAbove[r], want.nBelow[r], want.nInt[r])
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

// TestGammaTableMatchesReference holds newGammaTable to the per-row
// reference, under every bounding strategy, on embed-slices-shaped bands
// and small anti-correlated ones with an emptied cell among the
// partitions, then through three answers of apply on both tables.
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
			sameGamma(t, what, got, want)
			if sg != sw || sg.Identifications == 0 {
				t.Fatalf("%s: stats %+v, reference %+v", what, sg, sw)
			}
			for round := 0; round < 3 && len(Cg) > 1; round++ {
				best := got.best()
				if best != want.best() {
					t.Fatalf("%s: best row %d, reference %d", what, best, want.best())
				}
				if best < 0 {
					break
				}
				h := got.rows[best].h
				if u.Dot(in.pts[got.rows[best].i]) < u.Dot(in.pts[got.rows[best].j]) {
					h = h.Flip()
				}
				Cg, Cw = got.apply(h, Cg, best), want.apply(h, Cw, best)
				sameGamma(t, what+" after apply", got, want)
			}
			if sg != sw {
				t.Fatalf("%s: stats after apply %+v, reference %+v", what, sg, sw)
			}
		}
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
