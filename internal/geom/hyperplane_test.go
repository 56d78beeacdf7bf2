package geom

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHyperplaneSides(t *testing.T) {
	// h_{i,j} with p_i = (1,0), p_j = (0,1): normal (1,-1).
	h := NewHyperplane(Vector{1, 0}, Vector{0, 1})
	if got := h.SideOf(Vector{0.9, 0.1}); got != Above {
		t.Errorf("u favouring p_i: side = %v, want above", got)
	}
	if got := h.SideOf(Vector{0.1, 0.9}); got != Below {
		t.Errorf("u favouring p_j: side = %v, want below", got)
	}
	if got := h.SideOf(Vector{0.5, 0.5}); got != On {
		t.Errorf("indifferent u: side = %v, want on", got)
	}
}

func TestHyperplaneFlip(t *testing.T) {
	h := NewHyperplane(Vector{1, 0}, Vector{0, 1})
	f := h.Flip()
	u := Vector{0.9, 0.1}
	if h.SideOf(u) != Above || f.SideOf(u) != Below {
		t.Fatal("Flip did not reverse orientation")
	}
}

func TestDegenerate(t *testing.T) {
	h := NewHyperplane(Vector{0.5, 0.5}, Vector{0.5, 0.5})
	if !h.Degenerate() {
		t.Fatal("identical points must give a degenerate hyperplane")
	}
	if h.SideOf(Vector{1, 2}) != On {
		t.Fatal("every point must be On a degenerate hyperplane")
	}
	if h.Distance(Vector{5, 5}) != 0 {
		t.Fatal("degenerate hyperplane distance must be 0")
	}
}

func TestDistance(t *testing.T) {
	h := Hyperplane{Normal: Vector{1, -1}}
	// Point (1,0): |1| / sqrt(2)
	if got, want := h.Distance(Vector{1, 0}), 1/math.Sqrt2; !almostEq(got, want) {
		t.Fatalf("Distance = %v, want %v", got, want)
	}
	// NewHyperplane and Flip carry the norm and a literal computes it; the
	// distance is |Normal·x| / ‖Normal‖ to the bit either way.
	x := Vector{0.3, 0.7}
	built := NewHyperplane(Vector{0.9, 0.2}, Vector{0.1, 0.6})
	lit := Hyperplane{Normal: built.Normal.Clone()}
	for _, h := range []Hyperplane{built, built.Flip(), lit, lit.Flip()} {
		want := math.Abs(h.Normal.Dot(x)) / h.Normal.Norm()
		v, d := h.ValueDistance(x)
		if v != h.Normal.Dot(x) || math.Float64bits(d) != math.Float64bits(want) || h.Distance(x) != d {
			t.Fatalf("%v: ValueDistance = (%v, %v), want (%v, %v)", h.Normal, v, d, h.Normal.Dot(x), want)
		}
	}
}

func TestCrossing(t *testing.T) {
	h := Hyperplane{Normal: Vector{1, -1}}
	a, b := Vector{1, 0}, Vector{0, 1}
	x, ok := h.Crossing(a, b)
	if !ok {
		t.Fatal("expected a crossing")
	}
	if !x.Equal(Vector{0.5, 0.5}) {
		t.Fatalf("Crossing = %v, want (0.5, 0.5)", x)
	}
	// Same side: no crossing.
	if _, ok := h.Crossing(Vector{1, 0}, Vector{2, 0}); ok {
		t.Fatal("same-side segment must not cross")
	}
	// Parallel segment on the plane: no strict crossing.
	if _, ok := h.Crossing(Vector{1, 1}, Vector{2, 2}); ok {
		t.Fatal("segment inside the hyperplane must not report a crossing")
	}
}

// Property: a reported crossing point is On the hyperplane and inside the
// segment's bounding box.
func TestQuickCrossingOnPlane(t *testing.T) {
	f := func(a, b [3]float64, n [3]float64) bool {
		for _, arr := range [][3]float64{a, b, n} {
			for _, x := range arr {
				if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e3 {
					return true
				}
			}
		}
		h := Hyperplane{Normal: Vector(n[:])}
		if h.Normal.Norm() < 1e-3 {
			return true
		}
		va, vb := Vector(a[:]), Vector(b[:])
		x, ok := h.Crossing(va, vb)
		if !ok {
			return true
		}
		// Crossing must be near the plane relative to the segment scale.
		tol := 1e-6 * (1 + va.Norm() + vb.Norm()) * h.Normal.Norm()
		return math.Abs(h.Value(x)) <= tol
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: SideOf(u) for preference hyperplane h_{i,j} agrees with comparing
// utilities u·p_i vs u·p_j.
func TestQuickPreferenceSemantics(t *testing.T) {
	f := func(pi, pj, u [4]float64) bool {
		for _, arr := range [][4]float64{pi, pj, u} {
			for _, x := range arr {
				if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e3 {
					return true
				}
			}
		}
		h := NewHyperplane(Vector(pi[:]), Vector(pj[:]))
		uv := Vector(u[:])
		fi, fj := uv.Dot(Vector(pi[:])), uv.Dot(Vector(pj[:]))
		switch h.SideOf(uv) {
		case Above:
			return fi > fj-1e-6
		case Below:
			return fj > fi-1e-6
		default:
			return math.Abs(fi-fj) <= 1e-6*(1+math.Abs(fi))
		}
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
