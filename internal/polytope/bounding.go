package polytope

import (
	"ist/internal/geom"
)

// Bounding volumes from Section 5.1 (Lemma 5.1): a bounding ball gives an
// O(1) sufficient condition for "polytope contained in a halfspace", and a
// bounding rectangle gives a tighter O(2^d) condition.

// Strategy selects which bounding shortcut Classify-with-bounds uses before
// falling back to the exact vertex scan. The zero value is StrategyBall —
// the paper's default after the Figure 5 comparison — so that callers who
// do not care get the fast behaviour.
type Strategy int

const (
	// StrategyBall uses the O(1) bounding-ball test first (the default).
	StrategyBall Strategy = iota
	// StrategyRect uses the paper's O(2^d) bounding-rectangle test first.
	StrategyRect
	// StrategyRectFast uses the O(d) separable bounding-rectangle test first
	// (our optimization, benchmarked as an ablation).
	StrategyRectFast
	// StrategyNone always uses the exact vertex scan.
	StrategyNone
)

func (s Strategy) String() string {
	switch s {
	case StrategyBall:
		return "ball"
	case StrategyRect:
		return "rectangle"
	case StrategyRectFast:
		return "rectangle-fast"
	default:
		return "none"
	}
}

// ball returns the bounding ball (B_c, B_r), computing and caching it.
func (p *Polytope) ball() (geom.Vector, float64) {
	if !p.ballValid {
		p.ballC = p.Center()
		p.ballR = 0
		for _, v := range p.verts {
			if d := v.P.Dist(p.ballC); d > p.ballR {
				p.ballR = d
			}
		}
		p.ballValid = true
	}
	return p.ballC, p.ballR
}

// rect returns the bounding rectangle [min_i, max_i] per dimension,
// computing and caching it.
func (p *Polytope) rect() (geom.Vector, geom.Vector) {
	if !p.rectValid {
		p.rectMin = p.verts[0].P.Clone()
		p.rectMax = p.verts[0].P.Clone()
		for _, v := range p.verts[1:] {
			for i, x := range v.P {
				if x < p.rectMin[i] {
					p.rectMin[i] = x
				}
				if x > p.rectMax[i] {
					p.rectMax[i] = x
				}
			}
		}
		p.rectValid = true
	}
	return p.rectMin, p.rectMax
}

// BallSide tests the bounding ball against the hyperplane: it returns
// ClassAbove or ClassBelow when the whole ball is strictly on one side, and
// ClassIntersect when the ball straddles it (inconclusive about the
// polytope). Empty polytopes report ClassEmpty. One dot product, h·B_c,
// gives both the distance and the side.
func (p *Polytope) BallSide(h geom.Hyperplane) Class {
	if len(p.verts) == 0 {
		return ClassEmpty
	}
	c, r := p.ball()
	v, dist := h.ValueDistance(c)
	if dist <= r {
		return ClassIntersect
	}
	if v > geom.Eps {
		return ClassAbove
	}
	return ClassBelow
}

// RectSide tests the bounding rectangle against the hyperplane by explicitly
// checking all 2^d corners, exactly as the paper describes (O(2^d),
// Section 5.1). It returns ClassAbove/ClassBelow when every corner is
// strictly on that side, ClassIntersect otherwise (inconclusive).
func (p *Polytope) RectSide(h geom.Hyperplane) Class {
	if len(p.verts) == 0 {
		return ClassEmpty
	}
	lo, hi := p.rect()
	d := p.dim
	allAbove, allBelow := true, true
	corner := geom.NewVector(d)
	for mask := 0; mask < 1<<uint(d); mask++ {
		for i := 0; i < d; i++ {
			if mask&(1<<uint(i)) != 0 {
				corner[i] = hi[i]
			} else {
				corner[i] = lo[i]
			}
		}
		switch h.SideOf(corner) {
		case geom.Above:
			allBelow = false
		case geom.Below:
			allAbove = false
		default:
			allAbove, allBelow = false, false
		}
		if !allAbove && !allBelow {
			return ClassIntersect
		}
	}
	if allAbove {
		return ClassAbove
	}
	return ClassBelow
}

// RectSideFast is our O(d) ablation of RectSide: per dimension, the corner
// minimizing (resp. maximizing) the dot product is picked directly, which
// yields the same classification as enumerating all 2^d corners because the
// dot product is separable across dimensions. Kept distinct from RectSide so
// the paper's claimed O(2^d) cost profile (Figure 5) stays reproducible.
func (p *Polytope) RectSideFast(h geom.Hyperplane) Class {
	if len(p.verts) == 0 {
		return ClassEmpty
	}
	lo, hi := p.rect()
	minDot, maxDot := 0.0, 0.0
	for i, w := range h.Normal {
		if w >= 0 {
			minDot += w * lo[i]
			maxDot += w * hi[i]
		} else {
			minDot += w * hi[i]
			maxDot += w * lo[i]
		}
	}
	switch {
	case minDot > geom.Eps:
		return ClassAbove
	case maxDot < -geom.Eps:
		return ClassBelow
	default:
		return ClassIntersect
	}
}

// BoundStats counts how often bounding shortcuts decide a classification,
// feeding the paper's "effective ratio" measurement (Figure 5).
type BoundStats struct {
	// Identifications is N_I: total classification requests.
	Identifications int
	// ByBound is N_B: requests decided by the bounding volume alone.
	ByBound int
}

// EffectiveRatio returns N_B / N_I (0 when nothing was classified).
func (s BoundStats) EffectiveRatio() float64 {
	if s.Identifications == 0 {
		return 0
	}
	return float64(s.ByBound) / float64(s.Identifications)
}

// ClassifyWith classifies the polytope against h using the given bounding
// strategy first and the exact vertex scan as fallback, updating stats (which
// may be nil).
func (p *Polytope) ClassifyWith(h geom.Hyperplane, strat Strategy, stats *BoundStats) Class {
	c, byBound := p.classify(h, strat)
	if stats != nil {
		stats.Identifications++
		if byBound {
			stats.ByBound++
		}
	}
	return c
}

// ClassifyEach classifies the polytope against every hyperplane of hs as
// ClassifyWith does, writing hs[i]'s class to out[i] and counting every
// classification in stats (which may be nil). One call per polytope keeps
// its vertices and bounding volume at hand across many hyperplanes.
func (p *Polytope) ClassifyEach(hs []geom.Hyperplane, strat Strategy, stats *BoundStats, out []Class) {
	nBound := 0
	for i, h := range hs {
		c, byBound := p.classify(h, strat)
		if byBound {
			nBound++
		}
		out[i] = c
	}
	if stats != nil {
		stats.Identifications += len(hs)
		stats.ByBound += nBound
	}
}

// classify is the decision ClassifyWith and ClassifyEach share: strat's
// bounding test, which decides Above, Below or Empty (byBound), else the
// exact vertex scan. Intersect from a bound is inconclusive, and
// StrategyNone has no bound.
func (p *Polytope) classify(h geom.Hyperplane, strat Strategy) (c Class, byBound bool) {
	c = ClassIntersect
	switch strat {
	case StrategyBall:
		c = p.BallSide(h)
	case StrategyRect:
		c = p.RectSide(h)
	case StrategyRectFast:
		c = p.RectSideFast(h)
	}
	if c != ClassIntersect {
		return c, true
	}
	return p.Classify(h), false
}
