package core

import (
	"math"

	"ist/internal/geom"
	"ist/internal/oracle"
)

// stopScratch is one run's working memory for stopping condition 2
// (Lemma 5.5). Its buffers grow to the largest check of the run, so after
// the first round a check allocates nothing.
type stopScratch struct {
	rank  oracle.Ranker
	base  []float64 // base[c·|V|+vi] = rVerts[vi]·points[cand[c]]
	beat  []int     // beaters found so far, per candidate
	live  []int     // candidates below k beaters, in top-k order
	floor []float64 // floor[vi] = the lowest live base at rVerts[vi]
	vu    []float64 // rVerts[vi]·p_j for the point being scanned
}

// lemma55 implements stopping condition 2 (Lemma 5.5): given the vertices of
// the current utility range R and a probe utility vector u inside R, it
// checks whether want of the top-k points w.r.t. u are guaranteed to be
// among the top-k for every utility vector in R. A point p_j can displace
// p_i only if some u' in R has u'·p_j > u'·p_i, i.e. some vertex of R lies
// strictly above the hyperplane h_{j,i}; if fewer than k points can
// displace p_i, p_i is certainly top-k.
//
// The candidates are the top-k w.r.t. the probe; one pass over the points
// counts, for every candidate still live, the points that beat it at some
// vertex of R (v·p_j > v·p_i + Eps). The vertex utilities of p_j are
// computed once, lazily, and shared by every candidate, and a point that
// stays under the live candidates' floor at every vertex is skipped after
// those comparisons alone. A candidate retires at its k-th beater, and the
// pass ends early once fewer than want candidates are live. A candidate's
// capped count does not depend on the scan order, so the first want
// survivors in top-k order are exactly the points a candidate-by-candidate
// check accepts. It returns them in a new slice, or nil when fewer than
// want (at least 1) qualify.
func (s *stopScratch) lemma55(points []geom.Vector, k int, rVerts []geom.Vector, probe geom.Vector, want int) []int {
	if len(rVerts) == 0 {
		return nil
	}
	want = max(want, 1)
	cand := s.rank.TopK(points, probe, k)
	if len(cand) < want {
		return nil
	}
	nv := len(rVerts)
	s.base = grow(s.base, len(cand)*nv)
	s.beat = grow(s.beat, len(cand))
	s.vu = grow(s.vu, nv)
	s.floor = grow(s.floor, nv)
	live := s.live[:0]
	for c, i := range cand {
		b := s.base[c*nv : (c+1)*nv]
		for vi, v := range rVerts {
			b[vi] = v.Dot(points[i])
		}
		s.beat[c] = 0
		live = append(live, c)
	}
	s.setFloor(live, nv)
	for j, pj := range points {
		if len(live) < want {
			break
		}
		// p_j can beat a live candidate only at a vertex where it rises
		// above the floor; most points rise nowhere once R is small.
		known, above := 0, false // s.vu[:known] holds rVerts[:known]·p_j
		for known < nv && !above {
			s.vu[known] = rVerts[known].Dot(pj)
			above = s.vu[known] > s.floor[known]+geom.Eps
			known++
		}
		if !above {
			continue
		}
		kept := live[:0]
		for _, c := range live {
			if cand[c] != j {
				b := s.base[c*nv : (c+1)*nv]
				for vi := range b {
					if vi == known {
						s.vu[vi] = rVerts[vi].Dot(pj)
						known++
					}
					if s.vu[vi] > b[vi]+geom.Eps {
						s.beat[c]++
						break
					}
				}
				if s.beat[c] >= k {
					continue
				}
			}
			kept = append(kept, c)
		}
		if len(kept) < len(live) {
			s.setFloor(kept, nv)
		}
		live = kept
	}
	s.live = live
	if len(live) < want {
		return nil
	}
	out := make([]int, want)
	for x, c := range live[:want] {
		out[x] = cand[c]
	}
	return out
}

// setFloor sets s.floor to the lowest base of the live candidates at each
// vertex. Rounding is monotone, so v·p_j ≤ floor + Eps implies
// v·p_j ≤ base + Eps for every live candidate: skipping such a point
// changes no count.
func (s *stopScratch) setFloor(live []int, nv int) {
	for vi := range s.floor {
		s.floor[vi] = math.Inf(1)
	}
	for _, c := range live {
		for vi, b := range s.base[c*nv : (c+1)*nv] {
			if b < s.floor[vi] {
				s.floor[vi] = b
			}
		}
	}
}

// grow returns buf resized to n, reallocating only when it is too small.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
