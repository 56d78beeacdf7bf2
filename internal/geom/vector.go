// Package geom provides the d-dimensional vector and hyperplane primitives
// used throughout the IST reproduction.
//
// Points, utility vectors and hyperplane normals are all plain []float64
// wrapped as Vector. All geometric predicates share a single tolerance Eps so
// that "on the hyperplane", "strictly above" and "strictly below" partition
// space consistently across packages.
package geom

import (
	"fmt"
	"math"
)

// Eps is the tolerance for geometric predicates. A value v with |v| <= Eps is
// treated as zero (on a hyperplane, equal coordinates, ...).
const Eps = 1e-9

// Vector is a point or direction in R^d.
type Vector []float64

// NewVector returns a zero vector of dimension d.
func NewVector(d int) Vector { return make(Vector, d) }

// Clone returns a deep copy of v.
func (v Vector) Clone() Vector {
	c := make(Vector, len(v))
	copy(c, v)
	return c
}

// Dim returns the dimensionality of v.
func (v Vector) Dim() int { return len(v) }

// Dot returns the inner product v·w. It panics if dimensions differ, because
// mixing dimensionalities is always a programming error in this codebase.
func (v Vector) Dot(w Vector) float64 {
	if len(v) != len(w) {
		panic(dimMismatch{len(v), len(w)})
	}
	var s float64
	for i, x := range v {
		s += x * w[i]
	}
	return s
}

// dimMismatch is Dot's panic value. Its message is built only when printed,
// which keeps Dot small enough to inline.
type dimMismatch struct{ n, m int }

func (e dimMismatch) Error() string {
	return fmt.Sprintf("geom: dot of mismatched dimensions %d and %d", e.n, e.m)
}

// Add returns v + w as a new vector.
func (v Vector) Add(w Vector) Vector {
	c := v.Clone()
	for i := range c {
		c[i] += w[i]
	}
	return c
}

// Sub returns v - w as a new vector.
func (v Vector) Sub(w Vector) Vector {
	c := v.Clone()
	for i := range c {
		c[i] -= w[i]
	}
	return c
}

// Scale returns a*v as a new vector.
func (v Vector) Scale(a float64) Vector {
	c := v.Clone()
	for i := range c {
		c[i] *= a
	}
	return c
}

// AddScaled returns v + a*w as a new vector.
func (v Vector) AddScaled(a float64, w Vector) Vector {
	c := v.Clone()
	for i := range c {
		c[i] += a * w[i]
	}
	return c
}

// Norm returns the Euclidean norm of v.
func (v Vector) Norm() float64 {
	var s float64
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// Normalize returns v scaled to unit Euclidean norm. The zero vector is
// returned unchanged.
func (v Vector) Normalize() Vector {
	n := v.Norm()
	if n <= Eps {
		return v.Clone()
	}
	return v.Scale(1 / n)
}

// Dist returns the Euclidean distance between v and w: v.Sub(w).Norm()
// without the intermediate vector.
func (v Vector) Dist(w Vector) float64 {
	var s float64
	for i, x := range v {
		d := x - w[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// Sum returns the sum of the components of v.
func (v Vector) Sum() float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// Equal reports whether v and w agree in every coordinate within Eps.
func (v Vector) Equal(w Vector) bool {
	if len(v) != len(w) {
		return false
	}
	for i, x := range v {
		if math.Abs(x-w[i]) > Eps {
			return false
		}
	}
	return true
}

// IsZero reports whether every coordinate of v is within Eps of zero.
func (v Vector) IsZero() bool {
	for _, x := range v {
		if math.Abs(x) > Eps {
			return false
		}
	}
	return true
}

// Dominates reports whether v dominates w in the skyline sense: v is at least
// as large as w in every coordinate and strictly larger in at least one.
// Larger values are preferred in every dimension (Section 3 of the paper).
func (v Vector) Dominates(w Vector) bool {
	strict := false
	for i, x := range v {
		if x < w[i]-Eps {
			return false
		}
		if x > w[i]+Eps {
			strict = true
		}
	}
	return strict
}

// Mean returns the arithmetic mean of the given vectors. It panics on an
// empty input because a mean of nothing has no dimension.
func Mean(vs []Vector) Vector {
	if len(vs) == 0 {
		panic("geom: mean of no vectors")
	}
	m := NewVector(len(vs[0]))
	for _, v := range vs {
		for i, x := range v {
			m[i] += x
		}
	}
	return m.Scale(1 / float64(len(vs)))
}

// String formats v with enough precision for debugging.
func (v Vector) String() string {
	s := "("
	for i, x := range v {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%.6g", x)
	}
	return s + ")"
}
