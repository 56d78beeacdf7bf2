// Package polytope implements convex polytopes on the utility simplex
// {u in R^d : Σu[i] = 1, u >= 0}, cut incrementally by preference halfspaces
// w·u >= 0 learned from user feedback (Section 5.1 of the paper).
//
// A polytope is stored in combined V+H representation: the list of halfspace
// constraints applied so far, and the exact vertex set with, for every
// vertex, the set of constraints tight at it. Cutting by a new halfspace
// keeps the inside vertices and adds the crossing points of boundary edges;
// edges are recognized combinatorially (two vertices sharing >= d-2 tight
// constraints span an edge candidate), which never misses a true edge
// because an edge's defining constraints are tight at both endpoints.
// Crossing points of non-edges are interior points of the new face and are
// harmless for every downstream use (side classification, bounding volumes,
// centers), so no exact-adjacency machinery is needed.
package polytope

import (
	"fmt"
	"math/rand"

	"ist/internal/geom"
)

// Class is the relationship between a polytope and a hyperplane
// (Section 5.1: in h+, in h-, or intersecting).
type Class int

const (
	// ClassIntersect means the polytope has vertices strictly on both sides.
	ClassIntersect Class = iota
	// ClassAbove means the polytope is contained in the closed positive halfspace.
	ClassAbove
	// ClassBelow means the polytope is contained in the closed negative halfspace.
	ClassBelow
	// ClassOn means every vertex lies on the hyperplane (degenerate).
	ClassOn
	// ClassEmpty means the polytope has no vertices.
	ClassEmpty
)

func (c Class) String() string {
	switch c {
	case ClassIntersect:
		return "intersect"
	case ClassAbove:
		return "above"
	case ClassBelow:
		return "below"
	case ClassOn:
		return "on"
	case ClassEmpty:
		return "empty"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Vertex is a polytope corner with the set of tight constraints at it.
// Constraint indices 0..d-1 are the coordinate bounds u[i] >= 0; indices
// d..d+len(cons)-1 are the applied halfspace cuts, offset by d.
type Vertex struct {
	P     geom.Vector
	tight bitset
}

// Polytope is a convex region of the utility simplex.
type Polytope struct {
	dim   int
	verts []Vertex
	cons  []geom.Hyperplane

	// side is Cut's scratch: each vertex's side of the hyperplane being cut.
	side []geom.Side

	// cached bounding volumes; invalidated on every cut.
	ballValid bool
	ballC     geom.Vector
	ballR     float64
	rectValid bool
	rectMin   geom.Vector
	rectMax   geom.Vector
}

// NewSimplex returns the whole utility space for dimension d: the standard
// simplex with vertices e_1..e_d.
func NewSimplex(d int) *Polytope {
	if d < 1 {
		panic("polytope: dimension must be >= 1")
	}
	p := &Polytope{dim: d}
	for i := 0; i < d; i++ {
		v := geom.NewVector(d)
		v[i] = 1
		var t bitset
		for j := 0; j < d; j++ {
			if j != i {
				t.set(j)
			}
		}
		p.verts = append(p.verts, Vertex{P: v, tight: t})
	}
	return p
}

// Dim returns the ambient dimension d.
func (p *Polytope) Dim() int { return p.dim }

// IsEmpty reports whether the polytope has no points left.
func (p *Polytope) IsEmpty() bool { return len(p.verts) == 0 }

// NumVertices returns the current vertex count.
func (p *Polytope) NumVertices() int { return len(p.verts) }

// NumConstraints returns the number of halfspace cuts applied.
func (p *Polytope) NumConstraints() int { return len(p.cons) }

// Vertices returns copies of the vertex coordinates.
func (p *Polytope) Vertices() []geom.Vector {
	out := make([]geom.Vector, len(p.verts))
	for i, v := range p.verts {
		out[i] = v.P.Clone()
	}
	return out
}

// Constraints returns the halfspace normals applied so far (each is
// Normal·u >= 0).
func (p *Polytope) Constraints() []geom.Vector {
	out := make([]geom.Vector, len(p.cons))
	for i, h := range p.cons {
		out[i] = h.Normal.Clone()
	}
	return out
}

// Clone returns an independent deep copy.
func (p *Polytope) Clone() *Polytope {
	c := &Polytope{dim: p.dim}
	c.verts = make([]Vertex, len(p.verts))
	for i, v := range p.verts {
		c.verts[i] = Vertex{P: v.P.Clone(), tight: v.tight.clone()}
	}
	c.cons = make([]geom.Hyperplane, len(p.cons))
	copy(c.cons, p.cons)
	return c
}

// Classify reports the relationship between the polytope and the hyperplane
// by scanning all vertices (the exact O(|V|) test of Section 5.1).
func (p *Polytope) Classify(h geom.Hyperplane) Class {
	if len(p.verts) == 0 {
		return ClassEmpty
	}
	hasAbove, hasBelow := false, false
	for i := range p.verts {
		switch h.SideOf(p.verts[i].P) {
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

// Cut intersects the polytope with the closed halfspace Normal·u >= 0 and
// returns the classification that held before the cut. After a
// ClassBelow cut the polytope becomes empty; after ClassOn it is unchanged
// except that the constraint is recorded (it is degenerate-tight).
//
// One side pass over the vertices serves both the classification, which
// Classify would give, and the split.
func (p *Polytope) Cut(h geom.Hyperplane) Class {
	p.ballValid, p.rectValid = false, false
	idx := p.dim + len(p.cons)
	p.cons = append(p.cons, h)
	if len(p.verts) == 0 {
		return ClassEmpty
	}
	side := p.side[:0]
	nAbove, nBelow := 0, 0
	for i := range p.verts {
		s := h.SideOf(p.verts[i].P)
		switch s {
		case geom.Above:
			nAbove++
		case geom.Below:
			nBelow++
		}
		side = append(side, s)
	}
	p.side = side

	switch {
	case nAbove == 0 && nBelow > 0:
		// Closed-halfspace semantics: vertices exactly on the hyperplane
		// survive the cut (the polytope collapses to its On face, possibly
		// empty). This matters for indifference answers and for the
		// degenerate hyperplanes of duplicated points.
		var kept []Vertex
		for i, v := range p.verts {
			if side[i] == geom.On {
				v.tight.set(idx)
				kept = append(kept, v)
			}
		}
		p.verts = kept
		return ClassBelow
	case nBelow == 0:
		// Nothing removed; mark tightness on touching vertices.
		for i := range p.verts {
			if side[i] == geom.On {
				p.verts[i].tight.set(idx)
			}
		}
		if nAbove > 0 {
			return ClassAbove
		}
		return ClassOn
	}

	// ClassIntersect: keep the Above and On vertices in order, then add the
	// edge crossings.
	old := p.verts
	kept := make([]Vertex, 0, len(old)+min(nAbove, nBelow))
	for i, v := range old {
		switch side[i] {
		case geom.Above:
			kept = append(kept, v)
		case geom.On:
			v.tight.set(idx)
			kept = append(kept, v)
		}
	}

	need := p.dim - 2 // tight constraints shared along an edge of a (d-1)-dim polytope
	if need < 0 {
		need = 0
	}
	for ia := range old {
		if side[ia] != geom.Above {
			continue
		}
		a := &old[ia]
		for ib := range old {
			if side[ib] != geom.Below {
				continue
			}
			b := &old[ib]
			if a.tight.commonCount(b.tight) < need {
				continue
			}
			x, ok := h.Crossing(a.P, b.P)
			if !ok {
				continue
			}
			dup := false
			for k := range kept {
				if kept[k].P.Equal(x) {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			tight := p.crossingTight(*a, *b, x, idx)
			if !p.tightRankFull(tight) {
				// The inherited tight set may undercount under degeneracy;
				// recompute exactly before rejecting the candidate.
				tight = p.tightSetAt(x)
				tight.set(idx)
				if !p.tightRankFull(tight) {
					// Fewer than d independent tight constraints: the point
					// is interior to a face, not a vertex. Dropping it keeps
					// the vertex set from ballooning combinatorially in
					// higher dimensions (it carries no extra volume).
					continue
				}
			}
			kept = append(kept, Vertex{P: x, tight: tight})
		}
	}
	p.verts = kept
	return ClassIntersect
}

// tightSetAt recomputes the exact tight-constraint set at point x.
func (p *Polytope) tightSetAt(x geom.Vector) bitset {
	var t bitset
	for i := 0; i < p.dim; i++ {
		if x[i] <= geom.Eps {
			t.set(i)
		}
	}
	for i, h := range p.cons {
		if h.SideOf(x) == geom.On {
			t.set(p.dim + i)
		}
	}
	return t
}

// rankBuf is the stack buffer tightRankFull stages its rows in: 16 rows at
// d = 4, 10 at d = 6. A larger tight set spills to the heap.
const rankBuf = 64

// tightRankFull reports whether the normals of the tight constraints,
// together with the simplex equality Σu = 1, span the full dimension d —
// the defining property of a polytope vertex. The rows (the all-ones row,
// the unit rows of the tight coordinates, the tight cuts' normals, in that
// order) are eliminated in place by geom's Matrix.Eliminate, which
// Matrix.Rank runs on a copy.
func (p *Polytope) tightRankFull(t bitset) bool {
	d := p.dim
	var buf [rankBuf]float64
	data := buf[:0]
	for i := 0; i < d; i++ {
		data = append(data, 1)
	}
	for i := 0; i < d; i++ {
		if t.has(i) {
			for j := 0; j < d; j++ {
				data = append(data, 0)
			}
			data[len(data)-d+i] = 1
		}
	}
	for i := range p.cons {
		if t.has(d + i) {
			data = append(data, p.cons[i].Normal...)
		}
	}
	rows := len(data) / d
	if rows < d {
		return false
	}
	m := geom.Matrix{Rows: rows, Cols: d, Data: data}
	return m.Eliminate(0) >= d
}

// crossingTight builds the tight-constraint set of a new crossing vertex
// incrementally (the double-description inheritance rule): the constraints
// tight at both edge endpoints stay tight along the edge, the new cut is
// tight by construction, and coordinate tightness is recomputed exactly in
// O(d). This avoids the O(constraints) rescan per crossing that dominates
// partition construction; in (rare) degenerate inputs an old constraint
// coincidentally tight only at the crossing point is missed, which can only
// add redundant vertices later, never lose polytope volume.
func (p *Polytope) crossingTight(a, b Vertex, x geom.Vector, newIdx int) bitset {
	n := len(a.tight.w)
	if len(b.tight.w) < n {
		n = len(b.tight.w)
	}
	var t bitset
	t.w = make([]uint64, n)
	for i := 0; i < n; i++ {
		t.w[i] = a.tight.w[i] & b.tight.w[i]
	}
	for i := 0; i < p.dim; i++ {
		if x[i] <= geom.Eps {
			t.set(i)
		} else if t.has(i) {
			// inherited coordinate tightness that does not actually hold
			t.w[i>>6] &^= 1 << uint(i&63)
		}
	}
	t.set(newIdx)
	return t
}

// Center returns the vertex centroid (the paper's R_c / B_c). It panics on an
// empty polytope.
func (p *Polytope) Center() geom.Vector {
	if len(p.verts) == 0 {
		panic("polytope: center of empty polytope")
	}
	c := geom.NewVector(p.dim)
	for _, v := range p.verts {
		for i, x := range v.P {
			c[i] += x
		}
	}
	inv := 1 / float64(len(p.verts))
	for i := range c {
		c[i] *= inv
	}
	return c
}

// Sample returns a random point of the polytope: a random convex combination
// of its vertices. It panics on an empty polytope.
func (p *Polytope) Sample(rng *rand.Rand) geom.Vector {
	if len(p.verts) == 0 {
		panic("polytope: sample of empty polytope")
	}
	w := make([]float64, len(p.verts))
	sum := 0.0
	for i := range w {
		w[i] = rng.ExpFloat64()
		sum += w[i]
	}
	x := geom.NewVector(p.dim)
	for i, v := range p.verts {
		f := w[i] / sum
		for j, c := range v.P {
			x[j] += f * c
		}
	}
	return x
}

// Contains reports whether u satisfies every recorded constraint and the
// coordinate bounds (within geom.Eps). It does not test Σu = 1 because all
// callers work with simplex points by construction.
func (p *Polytope) Contains(u geom.Vector) bool {
	for i := 0; i < p.dim; i++ {
		if u[i] < -geom.Eps {
			return false
		}
	}
	for _, h := range p.cons {
		if h.SideOf(u) == geom.Below {
			return false
		}
	}
	return true
}
