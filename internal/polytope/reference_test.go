package polytope

import (
	"math"
	"math/rand"
	"testing"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/hull"
	"ist/internal/skyband"
)

// This file keeps the cut and classification code as it stood before Cut
// became one side pass with an allocation-free rank check and the bounding
// ball took one dot product, verbatim apart from the names. The live code
// must make every decision from the same operands in the same order, so the
// tests below hold it to the reference bit for bit: each vertex coordinate,
// each tight set, the constraint list, every class and every BoundStats
// count.

// cutRef is the reference Cut: Classify first, then a second side pass to
// split.
func (p *Polytope) cutRef(h geom.Hyperplane) Class {
	p.ballValid, p.rectValid = false, false
	class := p.classifyRef(h)
	idx := p.dim + len(p.cons)
	p.cons = append(p.cons, h)

	switch class {
	case ClassEmpty:
		return class
	case ClassBelow:
		var kept []Vertex
		for _, v := range p.verts {
			if h.SideOf(v.P) == geom.On {
				v.tight.set(idx)
				kept = append(kept, v)
			}
		}
		p.verts = kept
		return class
	case ClassAbove, ClassOn:
		for i := range p.verts {
			if h.SideOf(p.verts[i].P) == geom.On {
				p.verts[i].tight.set(idx)
			}
		}
		return class
	}

	var above, below []Vertex
	var kept []Vertex
	for _, v := range p.verts {
		switch h.SideOf(v.P) {
		case geom.Above:
			above = append(above, v)
			kept = append(kept, v)
		case geom.Below:
			below = append(below, v)
		default:
			v.tight.set(idx)
			kept = append(kept, v)
		}
	}

	need := p.dim - 2
	if need < 0 {
		need = 0
	}
	for _, a := range above {
		for _, b := range below {
			if a.tight.commonCount(b.tight) < need {
				continue
			}
			x, ok := crossingRef(h, a.P, b.P)
			if !ok {
				continue
			}
			dup := false
			for _, k := range kept {
				if k.P.Equal(x) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			tight := p.crossingTight(a, b, x, idx)
			if !p.tightRankFullRef(tight) {
				tight = p.tightSetAt(x)
				tight.set(idx)
				if !p.tightRankFullRef(tight) {
					continue
				}
			}
			kept = append(kept, Vertex{P: x, tight: tight})
		}
	}
	p.verts = kept
	return class
}

// classifyRef is the reference Classify, the vertex scan inside cutRef.
func (p *Polytope) classifyRef(h geom.Hyperplane) Class {
	if len(p.verts) == 0 {
		return ClassEmpty
	}
	hasAbove, hasBelow := false, false
	for _, v := range p.verts {
		switch h.SideOf(v.P) {
		case geom.Above:
			hasAbove = true
		case geom.Below:
			hasBelow = true
		}
		if hasAbove && hasBelow {
			return ClassIntersect
		}
	}
	switch {
	case hasAbove:
		return ClassAbove
	case hasBelow:
		return ClassBelow
	default:
		return ClassOn
	}
}

// crossingRef is the reference Hyperplane.Crossing.
func crossingRef(h geom.Hyperplane, a, b geom.Vector) (geom.Vector, bool) {
	t, ok := h.CrossingParam(a, b)
	if !ok {
		return nil, false
	}
	return a.AddScaled(t, b.Sub(a)), true
}

// tightRankFullRef is the reference rank check: the rows as vectors, ranked
// through geom.RankOfRows.
func (p *Polytope) tightRankFullRef(t bitset) bool {
	d := p.dim
	ones := geom.NewVector(d)
	for i := range ones {
		ones[i] = 1
	}
	rows := make([]geom.Vector, 0, d+2)
	rows = append(rows, ones)
	for i := 0; i < d; i++ {
		if t.has(i) {
			e := geom.NewVector(d)
			e[i] = 1
			rows = append(rows, e)
		}
	}
	for i := range p.cons {
		if t.has(p.dim + i) {
			rows = append(rows, p.cons[i].Normal)
		}
	}
	if len(rows) < d {
		return false
	}
	return geom.RankOfRows(rows) >= d
}

// ballRef is the reference bounding ball: the centre through Center's
// allocating Scale, the radius through Vector.Sub and Norm.
func (p *Polytope) ballRef() (geom.Vector, float64) {
	c := geom.NewVector(p.dim)
	for _, v := range p.verts {
		for i, x := range v.P {
			c[i] += x
		}
	}
	c = c.Scale(1 / float64(len(p.verts)))
	r := 0.0
	for _, v := range p.verts {
		if d := v.P.Sub(c).Norm(); d > r {
			r = d
		}
	}
	return c, r
}

// distanceRef is the reference Hyperplane.Distance: the norm recomputed on
// every call.
func distanceRef(h geom.Hyperplane, x geom.Vector) float64 {
	n := h.Normal.Norm()
	if n <= geom.Eps {
		return 0
	}
	return math.Abs(h.Value(x)) / n
}

// ballSideRef is the reference BallSide: a distance and a side test, two
// dot products.
func (p *Polytope) ballSideRef(h geom.Hyperplane) Class {
	if len(p.verts) == 0 {
		return ClassEmpty
	}
	c, r := p.ballRef()
	d := distanceRef(h, c)
	if d <= r {
		return ClassIntersect
	}
	if h.SideOf(c) == geom.Above {
		return ClassAbove
	}
	return ClassBelow
}

// classifyWithRef is the reference ClassifyWith. RectSide and RectSideFast
// are called live: their code is the reference's.
func (p *Polytope) classifyWithRef(h geom.Hyperplane, strat Strategy, stats *BoundStats) Class {
	if stats != nil {
		stats.Identifications++
	}
	switch strat {
	case StrategyBall:
		if c := p.ballSideRef(h); c == ClassAbove || c == ClassBelow || c == ClassEmpty {
			if stats != nil {
				stats.ByBound++
			}
			return c
		}
	case StrategyRect:
		if c := p.RectSide(h); c == ClassAbove || c == ClassBelow || c == ClassEmpty {
			if stats != nil {
				stats.ByBound++
			}
			return c
		}
	case StrategyRectFast:
		if c := p.RectSideFast(h); c == ClassAbove || c == ClassBelow || c == ClassEmpty {
			if stats != nil {
				stats.ByBound++
			}
			return c
		}
	}
	return p.classifyRef(h)
}

// sameState fails the test unless live and ref hold bit-identical vertex
// coordinates, equal tight sets in the same vertex order, and the same
// constraint normals.
func sameState(t testing.TB, what string, live, ref *Polytope) {
	t.Helper()
	if live.dim != ref.dim {
		t.Fatalf("%s: dim %d, reference %d", what, live.dim, ref.dim)
	}
	if len(live.verts) != len(ref.verts) {
		t.Fatalf("%s: %d vertices, reference %d", what, len(live.verts), len(ref.verts))
	}
	for i := range live.verts {
		a, b := live.verts[i], ref.verts[i]
		if len(a.P) != len(b.P) {
			t.Fatalf("%s: vertex %d has %d coordinates, reference %d", what, i, len(a.P), len(b.P))
		}
		for j := range a.P {
			if math.Float64bits(a.P[j]) != math.Float64bits(b.P[j]) {
				t.Fatalf("%s: vertex %d = %v, reference %v", what, i, a.P, b.P)
			}
		}
		if !sameBits(a.tight, b.tight) {
			t.Fatalf("%s: vertex %d tight %v, reference %v", what, i, a.tight.w, b.tight.w)
		}
	}
	if len(live.cons) != len(ref.cons) {
		t.Fatalf("%s: %d constraints, reference %d", what, len(live.cons), len(ref.cons))
	}
	for i := range live.cons {
		a, b := live.cons[i].Normal, ref.cons[i].Normal
		for j := range a {
			if math.Float64bits(a[j]) != math.Float64bits(b[j]) {
				t.Fatalf("%s: constraint %d = %v, reference %v", what, i, a, b)
			}
		}
	}
}

// sameBits reports whether two bitsets hold the same members.
func sameBits(a, b bitset) bool {
	n := max(len(a.w), len(b.w))
	for i := 0; i < n; i++ {
		var x, y uint64
		if i < len(a.w) {
			x = a.w[i]
		}
		if i < len(b.w) {
			y = b.w[i]
		}
		if x != y {
			return false
		}
	}
	return true
}

// cutBoth cuts live with Cut and ref with cutRef and fails unless the two
// report the same class and end in the same state.
func cutBoth(t testing.TB, what string, live, ref *Polytope, h geom.Hyperplane) Class {
	t.Helper()
	cl, cr := live.Cut(h), ref.cutRef(h)
	if cl != cr {
		t.Fatalf("%s: Cut = %v, reference %v", what, cl, cr)
	}
	sameState(t, what, live, ref)
	return cl
}

// carSliceBands returns n embed-slices-shaped bands: k = 10 skybands of
// uniform 1,000-tuple slices of the Car-like catalog generated from seed 1,
// with their exact convex points.
func carSliceBands(t testing.TB, n int) (bands [][]geom.Vector, convex [][]int) {
	t.Helper()
	ds, err := dataset.ByName("car", rand.New(rand.NewSource(1)), 68010, 4)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for len(bands) < n {
		slice := make([]geom.Vector, 0, 1000)
		for _, i := range rng.Perm(len(ds.Points))[:1000] {
			slice = append(slice, ds.Points[i])
		}
		pts := skyband.Filter(slice, skyband.KSkyband(slice, 10))
		V, err := hull.ConvexPointsExact(pts, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		bands = append(bands, pts)
		convex = append(convex, V)
	}
	return bands, convex
}

// TestCutMatchesReference holds Cut to cutRef over HD-PI's cells of 16
// embed-slices-shaped bands, random cut sequences in d = 2…6, and
// degenerate sequences.
func TestCutMatchesReference(t *testing.T) {
	bands, convex := carSliceBands(t, 16)
	cuts := 0
	for bi, pts := range bands {
		for _, i := range convex[bi] {
			live, ref := NewSimplex(4), NewSimplex(4)
			for _, j := range convex[bi] {
				h := geom.NewHyperplane(pts[i], pts[j])
				if i == j || h.Degenerate() {
					continue
				}
				cutBoth(t, "band cell", live, ref, h)
				cuts++
				if live.IsEmpty() {
					break
				}
			}
		}
	}
	if cuts < 16*1000 {
		t.Fatalf("only %d band cuts compared", cuts)
	}

	rng := rand.New(rand.NewSource(7))
	for d := 2; d <= 6; d++ {
		for seq := 0; seq < 200; seq++ {
			live, ref := NewSimplex(d), NewSimplex(d)
			for c, m := 0, 4+rng.Intn(20); c < m; c++ {
				n := geom.NewVector(d)
				for j := range n {
					n[j] = rng.Float64()*2 - 1
				}
				cutBoth(t, "random", live, ref, geom.Hyperplane{Normal: n})
			}
		}
	}

	for d := 2; d <= 6; d++ {
		live, ref := NewSimplex(d), NewSimplex(d)
		// A normal through the simplex's last vertex, cut twice.
		n := geom.NewVector(d)
		n[0], n[1] = 1, -1
		cutBoth(t, "through a vertex", live, ref, geom.Hyperplane{Normal: n})
		cutBoth(t, "repeated normal", live, ref, geom.Hyperplane{Normal: n})
		cutBoth(t, "repeated normal from NewHyperplane", live, ref, geom.NewHyperplane(n, geom.NewVector(d)))
		// A cut through existing vertices: the crossing points of the
		// first cut lie on u[0] = u[1], and this normal vanishes on all of
		// them and on e_2…e_d.
		cutBoth(t, "through crossings", live, ref, geom.Hyperplane{Normal: n.Scale(-1)})
		cutBoth(t, "zero normal", live, ref, geom.Hyperplane{Normal: geom.NewVector(d)})
		// Empty the polytope, then keep cutting.
		all := geom.NewVector(d)
		for j := range all {
			all[j] = -1
		}
		if cutBoth(t, "emptying", live, ref, geom.Hyperplane{Normal: all}) != ClassBelow || !live.IsEmpty() {
			t.Fatalf("d=%d: the all-negative cut left %d vertices", d, live.NumVertices())
		}
		cutBoth(t, "after empty", live, ref, geom.Hyperplane{Normal: n})
		cutBoth(t, "zero normal after empty", live, ref, geom.Hyperplane{Normal: geom.NewVector(d)})
	}
}

// TestTightRankFullMatchesReference compares the rank check with its
// reference on every tight set a band cell's cuts produce, plus every
// subset of the constraints at a few vertices, and pins it at zero
// allocations.
func TestTightRankFullMatchesReference(t *testing.T) {
	bands, convex := carSliceBands(t, 2)
	checks := 0
	for bi, pts := range bands {
		for _, i := range convex[bi] {
			p := NewSimplex(4)
			for _, j := range convex[bi] {
				h := geom.NewHyperplane(pts[i], pts[j])
				if i == j || h.Degenerate() {
					continue
				}
				p.Cut(h)
				if p.IsEmpty() {
					break
				}
				for _, v := range p.verts {
					for _, tight := range []bitset{v.tight, p.tightSetAt(v.P), {}} {
						if got, want := p.tightRankFull(tight), p.tightRankFullRef(tight); got != want {
							t.Fatalf("tightRankFull(%v) = %v, reference %v", tight.w, got, want)
						}
						checks++
					}
				}
			}
		}
	}
	if checks == 0 {
		t.Fatal("no tight sets checked")
	}

	p := NewSimplex(4)
	for _, n := range []geom.Vector{{1, -1, 0, 0}, {0, 1, -1, 0}, {0.3, 0.2, -0.4, 0.1}} {
		p.Cut(geom.Hyperplane{Normal: n})
	}
	var all bitset
	for i := 0; i < p.dim+len(p.cons); i++ {
		all.set(i)
	}
	if allocs := testing.AllocsPerRun(100, func() { p.tightRankFull(all) }); allocs != 0 {
		t.Fatalf("tightRankFull allocates %.0f times a call, want 0", allocs)
	}
	for mask := 0; mask < 1<<uint(p.dim+len(p.cons)); mask++ {
		var s bitset
		for i := 0; i < p.dim+len(p.cons); i++ {
			if mask&(1<<uint(i)) != 0 {
				s.set(i)
			}
		}
		if got, want := p.tightRankFull(s), p.tightRankFullRef(s); got != want {
			t.Fatalf("tightRankFull(%b) = %v, reference %v", mask, got, want)
		}
	}
}

// TestClassifyMatchesReference holds ClassifyWith, ClassifyEach, BallSide
// and Distance to their references on band cells against their Γ rows and
// on random cells, for every strategy.
func TestClassifyMatchesReference(t *testing.T) {
	type probe struct {
		cells []*Polytope
		hs    []geom.Hyperplane
	}
	var probes []probe
	bands, convex := carSliceBands(t, 4)
	for bi, pts := range bands {
		var pr probe
		V := convex[bi]
		for a := range V {
			for b := a + 1; b < len(V); b++ {
				if h := geom.NewHyperplane(pts[V[a]], pts[V[b]]); !h.Degenerate() {
					pr.hs = append(pr.hs, h)
				}
			}
		}
		for _, i := range V {
			p := NewSimplex(4)
			for _, j := range V {
				if h := geom.NewHyperplane(pts[i], pts[j]); i != j && !h.Degenerate() {
					p.Cut(h)
				}
			}
			pr.cells = append(pr.cells, p)
		}
		probes = append(probes, pr)
	}
	rng := rand.New(rand.NewSource(3))
	for d := 2; d <= 6; d++ {
		var pr probe
		for c := 0; c < 8; c++ {
			p := NewSimplex(d)
			for k := 0; k < c; k++ {
				n := geom.NewVector(d)
				for j := range n {
					n[j] = rng.Float64()*2 - 1
				}
				p.Cut(geom.Hyperplane{Normal: n})
			}
			pr.cells = append(pr.cells, p)
		}
		for k := 0; k < 100; k++ {
			n := geom.NewVector(d)
			for j := range n {
				n[j] = rng.Float64()*2 - 1
			}
			pr.hs = append(pr.hs, geom.Hyperplane{Normal: n}, geom.NewHyperplane(n, geom.NewVector(d)).Flip())
		}
		pr.hs = append(pr.hs, geom.Hyperplane{Normal: geom.NewVector(d)})
		// A cell cut down to the vertex e_1, whose ball has radius 0,
		// against hyperplanes passing within Eps of it: the ball is off the
		// hyperplane, yet the centre is On it.
		point := NewSimplex(d)
		for j := 1; j < d; j++ {
			n := geom.NewVector(d)
			n[j] = -1
			point.Cut(geom.Hyperplane{Normal: n})
		}
		pr.cells = append(pr.cells, point)
		for _, off := range []float64{5e-10, -5e-10, 0, 2e-9, -2e-9} {
			n := geom.NewVector(d)
			n[0] = off
			n[d-1] = 1
			pr.hs = append(pr.hs, geom.Hyperplane{Normal: n}, geom.NewHyperplane(n, geom.NewVector(d)))
		}
		probes = append(probes, pr)
	}

	for _, strat := range []Strategy{StrategyBall, StrategyRect, StrategyRectFast, StrategyNone} {
		var one, each, ref BoundStats
		for _, pr := range probes {
			out := make([]Class, len(pr.hs))
			for _, p := range pr.cells {
				p.ClassifyEach(pr.hs, strat, &each, out)
				for i, h := range pr.hs {
					want := p.classifyWithRef(h, strat, &ref)
					if got := p.ClassifyWith(h, strat, &one); got != want {
						t.Fatalf("%v: ClassifyWith = %v, reference %v", strat, got, want)
					}
					if out[i] != want {
						t.Fatalf("%v: ClassifyEach = %v, reference %v", strat, out[i], want)
					}
					if strat != StrategyBall {
						continue
					}
					if got, want := p.BallSide(h), p.ballSideRef(h); got != want {
						t.Fatalf("BallSide = %v, reference %v", got, want)
					}
					if len(p.verts) == 0 {
						continue
					}
					c, _ := p.ball()
					if got, want := h.Distance(c), distanceRef(h, c); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("Distance = %v, reference %v", got, want)
					}
				}
			}
		}
		if one != ref || each != ref {
			t.Fatalf("%v: stats %+v one by one and %+v in batches, reference %+v", strat, one, each, ref)
		}
		if ref.Identifications == 0 {
			t.Fatalf("%v: nothing classified", strat)
		}
	}
}

// TestBallMatchesReference compares the cached bounding ball with its
// reference, bit for bit.
func TestBallMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for d := 2; d <= 6; d++ {
		p := NewSimplex(d)
		for c := 0; c < 10 && !p.IsEmpty(); c++ {
			gc, gr := p.ball()
			wc, wr := p.ballRef()
			if math.Float64bits(gr) != math.Float64bits(wr) {
				t.Fatalf("d=%d: radius %v, reference %v", d, gr, wr)
			}
			for i := range gc {
				if math.Float64bits(gc[i]) != math.Float64bits(wc[i]) {
					t.Fatalf("d=%d: centre %v, reference %v", d, gc, wc)
				}
			}
			n := geom.NewVector(d)
			for j := range n {
				n[j] = rng.Float64()*2 - 1
			}
			p.Cut(geom.Hyperplane{Normal: n})
		}
	}
}
