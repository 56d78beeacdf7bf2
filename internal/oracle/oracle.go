// Package oracle simulates the interacting user of the IST problem: a hidden
// linear utility vector that answers pairwise preference questions, with an
// optional per-question mistake rate for the user-study experiments
// (Sections 6.4 and 6.5.2). It also hosts the ranking helpers (top-k of a
// dataset w.r.t. a utility vector) shared by algorithms and experiments.
package oracle

import (
	"math"
	"math/rand"

	"ist/internal/geom"
)

// Oracle answers pairwise preference questions. Implementations count the
// questions they are asked, which is the paper's primary cost measure.
type Oracle interface {
	// Prefer reports whether the user prefers p to q. Ties are reported as
	// preferring p (the user must pick one of the two displayed tuples).
	Prefer(p, q geom.Vector) bool
	// Questions returns the number of questions asked so far.
	Questions() int
}

// User is a truthful simulated user with a hidden utility vector.
type User struct {
	u         geom.Vector
	questions int
}

// NewUser returns a truthful user with the given utility vector.
func NewUser(u geom.Vector) *User { return &User{u: u.Clone()} }

// RandomUser returns a truthful user with a utility vector drawn uniformly
// from the standard simplex.
func RandomUser(rng *rand.Rand, d int) *User {
	return NewUser(RandomUtility(rng, d))
}

// Prefer implements Oracle.
func (o *User) Prefer(p, q geom.Vector) bool {
	o.questions++
	// The simulated user IS the ground truth: its exact utility comparison
	// defines the true preference the algorithms are measured against, so no
	// tolerance belongs here (ties go to the first point, deterministically).
	//lint:ignore floatcmp the oracle's exact comparison defines ground truth
	return o.u.Dot(p) >= o.u.Dot(q)
}

// Questions implements Oracle.
func (o *User) Questions() int { return o.questions }

// Utility exposes the hidden vector for evaluation purposes only (verifying
// that a returned point really is among the top-k). Algorithms must never
// touch it.
func (o *User) Utility() geom.Vector { return o.u.Clone() }

// NoisyUser answers like User but flips each answer independently with the
// given probability, modelling the user mistakes studied in Section 6.4.
type NoisyUser struct {
	User
	errRate float64
	rng     *rand.Rand
	flips   int
}

// NewNoisyUser returns a user who errs with probability errRate per question.
func NewNoisyUser(u geom.Vector, errRate float64, rng *rand.Rand) *NoisyUser {
	return &NoisyUser{User: User{u: u.Clone()}, errRate: errRate, rng: rng}
}

// Prefer implements Oracle.
func (o *NoisyUser) Prefer(p, q geom.Vector) bool {
	ans := o.User.Prefer(p, q)
	if o.rng.Float64() < o.errRate {
		o.flips++
		return !ans
	}
	return ans
}

// Flips returns how many answers were flipped by noise.
func (o *NoisyUser) Flips() int { return o.flips }

// RandomUtility draws a utility vector uniformly from the standard simplex
// (via normalized exponentials).
func RandomUtility(rng *rand.Rand, d int) geom.Vector {
	u := geom.NewVector(d)
	s := 0.0
	for i := range u {
		u[i] = rng.ExpFloat64() + geom.TieEps
		s += u[i]
	}
	return u.Scale(1 / s)
}

// TopK returns the indices of the k highest-utility points w.r.t. u,
// best first. Ties are broken by index for determinism.
func TopK(points []geom.Vector, u geom.Vector, k int) []int {
	var r Ranker
	return r.TopK(points, u, k)
}

// Ranker selects top-k points and keeps its buffers between calls, so a
// warm Ranker selects without allocating. The zero value is ready to use.
type Ranker struct {
	util []float64 // util[i] = u·points[i] from the last TopK call
	top  []int
}

// TopK is the package-level TopK with the result in r's buffer, valid until
// r's next call. It computes each utility once and keeps the k best in a
// bounded heap: n dot products and O(n log k) comparisons. k is clamped to
// [0, len(points)].
func (r *Ranker) TopK(points []geom.Vector, u geom.Vector, k int) []int {
	n := len(points)
	k = max(0, min(k, n))
	if cap(r.util) < n {
		r.util = make([]float64, n)
	}
	r.util = r.util[:n]
	for i, p := range points {
		r.util[i] = u.Dot(p)
	}
	if r.top == nil || cap(r.top) < k {
		r.top = make([]int, 0, k) // non-nil even for k = 0
	}
	// h is a heap with the worst selected point at its root.
	h := r.top[:0]
	for i := 0; i < n; i++ {
		switch {
		case len(h) < k:
			h = append(h, i)
			r.up(h, len(h)-1)
		case k > 0 && r.worse(h[0], i):
			h[0] = i
			r.down(h, 0, k)
		}
	}
	// Heap sort: moving the root (the worst left) to the back leaves h
	// best first.
	for end := len(h) - 1; end > 0; end-- {
		h[0], h[end] = h[end], h[0]
		r.down(h, 0, end)
	}
	r.top = h
	return h
}

// worse is the strict order TopK ranks by: point i ranks below point j if
// its utility is lower, or equal with a higher index.
func (r *Ranker) worse(i, j int) bool {
	ui, uj := r.util[i], r.util[j]
	// An eps-based comparison is not transitive; selection needs a strict
	// weak order, so the ranking tie-break must compare exactly.
	//lint:ignore floatcmp exact tie-break keeps the ranking a strict weak order
	if ui != uj {
		return ui < uj
	}
	return i > j
}

func (r *Ranker) up(h []int, c int) {
	for c > 0 {
		p := (c - 1) / 2
		if !r.worse(h[c], h[p]) {
			return
		}
		h[c], h[p] = h[p], h[c]
		c = p
	}
}

func (r *Ranker) down(h []int, p, n int) {
	for {
		c := 2*p + 1
		if c >= n {
			return
		}
		if c+1 < n && r.worse(h[c+1], h[c]) {
			c++
		}
		if !r.worse(h[c], h[p]) {
			return
		}
		h[c], h[p] = h[p], h[c]
		p = c
	}
}

// kth returns f(p₁) and f(p_k) w.r.t. u from one selection, with k clamped
// to [1, len(points)]; both are 0 when there are no points.
func kth(points []geom.Vector, u geom.Vector, k int) (f1, fk float64) {
	var r Ranker
	top := r.TopK(points, u, max(k, 1))
	if len(top) == 0 {
		return 0, 0
	}
	return r.util[top[0]], r.util[top[len(top)-1]]
}

// IsTopK reports whether point p (by value) has one of the k highest
// utilities in points w.r.t. u. Points with utility equal to the k-th
// highest count as top-k, matching the paper's tie semantics.
func IsTopK(points []geom.Vector, u geom.Vector, k int, p geom.Vector) bool {
	fp := u.Dot(p)
	better := 0
	for _, q := range points {
		if u.Dot(q) > fp+geom.Eps {
			better++
			if better >= k {
				return false
			}
		}
	}
	return true
}

// KthUtility returns the k-th largest utility among points w.r.t. u, with
// k clamped to [1, len(points)]; it is 0 when there are no points.
func KthUtility(points []geom.Vector, u geom.Vector, k int) float64 {
	_, fk := kth(points, u, k)
	return fk
}

// EpsilonForTopK is the paper's adapted regret threshold
// ε = 1 − f(p_k)/f(p₁) (Section 6), read from one top-k selection with k
// clamped as in KthUtility. It is how the experiments configure
// UtilityApprox, UH-Random and UH-Simplex so that their regret-based
// stopping implies a top-k answer. It is 0 when there are no points or
// f(p₁) ≤ 0.
func EpsilonForTopK(points []geom.Vector, u geom.Vector, k int) float64 {
	f1, fk := kth(points, u, k)
	if f1 <= 0 {
		return 0
	}
	return 1 - fk/f1
}

// Accuracy is the paper's result-quality measure (Section 6.1, after [8,10]):
// f(p)/f(p_k) when f(p) < f(p_k), else 1, where p_k has the k-th largest
// utility.
func Accuracy(points []geom.Vector, u geom.Vector, k int, p geom.Vector) float64 {
	fk := KthUtility(points, u, k)
	fp := u.Dot(p)
	if fp >= fk || fk <= 0 {
		return 1
	}
	return fp / fk
}

// Boredom maps a question count to the paper's 1–10 "degree of boredness"
// scale. The coefficients are fitted to the (questions, boredness) pairs the
// paper reports in Figure 16 — (4.1, 1.9), (7.1, 3.0), (45.4, 7.7) — giving
// boredom ≈ −1.5 + 2.4·ln(questions), clamped to [1, 10].
func Boredom(questions float64) float64 {
	if questions < 1 {
		questions = 1
	}
	b := -1.5 + 2.4*math.Log(questions)
	if b < 1 {
		b = 1
	}
	if b > 10 {
		b = 10
	}
	return b
}

// RankByBoredom assigns 1-based ranks to algorithms given their average
// question counts (fewer questions → less boredom → better rank), the
// ordering participants produced in the user studies. Ties share the better
// rank.
func RankByBoredom(questions []float64) []int {
	n := len(questions)
	ranks := make([]int, n)
	for i := range ranks {
		r := 1
		for j := range questions {
			if questions[j] < questions[i]-geom.TieEps {
				r++
			}
		}
		ranks[i] = r
	}
	return ranks
}
