package geom

import "math"

// Side classifies a point relative to a hyperplane.
type Side int

const (
	// Below means the point is strictly on the negative side (normal·x < -Eps).
	Below Side = iota - 1
	// On means the point lies on the hyperplane within Eps.
	On
	// Above means the point is strictly on the positive side (normal·x > Eps).
	Above
)

func (s Side) String() string {
	switch s {
	case Below:
		return "below"
	case Above:
		return "above"
	default:
		return "on"
	}
}

// Hyperplane is a hyperplane through the origin, {x : Normal·x = 0}, as used
// for the preference hyperplanes h_{i,j} of the paper (Section 5.1): for
// points p_i and p_j, h_{i,j} has normal p_i − p_j, its positive halfspace
// h⁺_{i,j} holds the utility vectors preferring p_i, and the negative
// halfspace h⁻_{i,j} those preferring p_j.
//
// NewHyperplane and Flip carry ‖Normal‖ along, so a distance costs one dot
// product; a literal Hyperplane{Normal: n} computes the norm on use, to the
// same value. Normal must not be modified after construction.
type Hyperplane struct {
	Normal Vector
	norm   float64 // ‖Normal‖, or 0 when not yet known
}

// NewHyperplane builds the preference hyperplane h_{i,j} with normal pi − pj.
func NewHyperplane(pi, pj Vector) Hyperplane {
	n := pi.Sub(pj)
	return Hyperplane{Normal: n, norm: n.Norm()}
}

// Degenerate reports whether the hyperplane's normal is (numerically) zero,
// which happens exactly when p_i and p_j coincide. A degenerate hyperplane
// carries no preference information: every utility vector is "on" it.
func (h Hyperplane) Degenerate() bool { return h.Normal.IsZero() }

// Value returns Normal·x, the signed (unnormalized) offset of x.
func (h Hyperplane) Value(x Vector) float64 { return h.Normal.Dot(x) }

// SideOf classifies x against the hyperplane with tolerance Eps.
func (h Hyperplane) SideOf(x Vector) Side {
	v := h.Value(x)
	switch {
	case v > Eps:
		return Above
	case v < -Eps:
		return Below
	default:
		return On
	}
}

// Distance returns the Euclidean distance from x to the hyperplane,
// |Normal·x| / ‖Normal‖. A degenerate hyperplane is at distance 0 from
// everything.
func (h Hyperplane) Distance(x Vector) float64 {
	_, dist := h.ValueDistance(x)
	return dist
}

// ValueDistance returns both Value(x) and Distance(x) from one dot product.
func (h Hyperplane) ValueDistance(x Vector) (value, dist float64) {
	value = h.Value(x)
	n := h.norm
	if n == 0 {
		n = h.Normal.Norm()
	}
	if n <= Eps {
		return value, 0
	}
	return value, math.Abs(value) / n
}

// Flip returns the hyperplane with the opposite orientation (h_{j,i}). The
// negated normal has the same norm, bit for bit.
func (h Hyperplane) Flip() Hyperplane {
	return Hyperplane{Normal: h.Normal.Scale(-1), norm: h.norm}
}

// CrossingParam returns t in [0,1] such that a + t(b−a) lies on the
// hyperplane, and whether such a crossing exists with a and b strictly on
// opposite sides.
func (h Hyperplane) CrossingParam(a, b Vector) (float64, bool) {
	va, vb := h.Value(a), h.Value(b)
	if (va > Eps && vb > Eps) || (va < -Eps && vb < -Eps) {
		return 0, false
	}
	denom := va - vb
	if math.Abs(denom) <= Eps {
		return 0, false
	}
	t := va / denom
	if t < 0 {
		t = 0
	}
	if t > 1 {
		t = 1
	}
	return t, true
}

// Crossing returns the point where segment [a,b] crosses the hyperplane, and
// whether a strict crossing exists. The point is a + t·(b − a), rounded as
// a.AddScaled(t, b.Sub(a)) rounds it, in one allocation.
func (h Hyperplane) Crossing(a, b Vector) (Vector, bool) {
	t, ok := h.CrossingParam(a, b)
	if !ok {
		return nil, false
	}
	x := make(Vector, len(a))
	for i, ai := range a {
		x[i] = ai + t*(b[i]-ai)
	}
	return x, true
}
