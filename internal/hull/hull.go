// Package hull finds the convex points of a dataset: points that are top-1
// w.r.t. at least one utility vector of the simplex (Section 5.2.1). HD-PI
// builds its initial utility-space partitions from exactly these points.
//
// Two strategies are provided, matching the paper's two HD-PI versions:
//
//   - ConvexPointsExact ("accurate"): an output-sensitive LP method. Each
//     candidate p is tested against the confirmed convex points V with the
//     minimax LP min t s.t. Σ_q λ_q·q + t·1 ≥ p, λ ∈ Δ(V): d+1 rows, one
//     column per confirmed point. Its optimum equals max_u min_q u·(p−q),
//     the margin by which p can beat every confirmed point at its best
//     utility u. Neither outcome is taken on trust. A reject (t < −Eps)
//     must come with a convex combination c = Σλ_q·q that beats p by more
//     than Eps in every coordinate, which proves p loses by more than Eps
//     at every utility and costs O(|V|·d) to check. An accept yields the
//     witness u = −y[0:d], read off the LP's row multipliers; u must lie on
//     the simplex, and a scan of the full dataset at u then either confirms
//     p (tied-)top-1 or names the real winner w, a new convex point that
//     joins V before p is tested again. A certificate that fails
//     (non-optimal solve, a λ or u that does not check, or an
//     already-confirmed winner at u) retries that one test with the primal
//     LP max δ s.t. u·(q−p) + δ ≤ 0 ∀q ∈ V, u ∈ Δ, whose λ are its row
//     multipliers. If the retry fails too, the scan returns an error, which
//     HD-PI turns into its accurate→sampling degradation. Every re-test
//     follows a new confirm, so the scan solves O(n + |V|) small LPs.
//
//   - ConvexPointsSampling ("sampling"): the paper's practical strategy —
//     sample utility vectors uniformly and collect the distinct top-1
//     points. May miss convex points with small top-1 regions; Figure 7
//     measures how little this costs in result accuracy.
package hull

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"ist/internal/geom"
	"ist/internal/lp"
	"ist/internal/obs"
	"ist/internal/oracle"
)

// ConvexPointsExact returns, in ascending order, the indices of all points
// that are top-1 for at least one utility vector (ties count as top-1).
//
// stop, when non-nil, is called once per candidate not yet confirmed when
// the scan reaches it, in ascending index order; once it returns true the
// scan ends and reports the points confirmed so far. o receives one lp-solve
// event per LP solve and one convex-point-test event per tested candidate.
//
// An error means one candidate's test failed its certificate on the dual
// LP and again on the primal retry; the points confirmed before that
// candidate come with it, but they are not the complete set.
func ConvexPointsExact(points []geom.Vector, stop func() bool, o obs.Observer) ([]int, error) {
	if len(points) == 0 {
		return nil, nil
	}
	c := seedConfirmed(points)
	s := new(scratch)
	for p := range points {
		if c.in[p] {
			continue
		}
		if stop != nil && stop() {
			break // budget exhausted: report what is confirmed so far
		}
		before := len(c.list)
		if err := c.test(points, p, s, o); err != nil {
			// Drop what the failed test confirmed; c is not used again.
			c.list = c.list[:before]
			return c.sorted(), err
		}
		obs.ConvexPointTest(o, p, c.in[p])
	}
	return c.sorted(), nil
}

// confirmed is a scan's growing set of convex points: the list in
// confirmation order (which fixes the LP's column order) and a membership
// index over all points.
type confirmed struct {
	list []int
	in   []bool
}

// seedConfirmed starts a scan with the winners at the simplex corners and at
// the centroid, convex points by construction.
func seedConfirmed(points []geom.Vector) *confirmed {
	c := &confirmed{in: make([]bool, len(points))}
	for _, u := range seedUtilities(len(points[0])) {
		c.add(argmax(points, u, -1))
	}
	return c
}

func (c *confirmed) add(w int) {
	if !c.in[w] {
		c.in[w] = true
		c.list = append(c.list, w)
	}
}

func (c *confirmed) sorted() []int {
	sort.Ints(c.list)
	return c.list
}

// seedUtilities returns the utility vectors whose winners are convex points
// by construction: the d simplex corners and the centroid.
func seedUtilities(d int) []geom.Vector {
	seeds := make([]geom.Vector, 0, d+1)
	for i := 0; i < d; i++ {
		e := geom.NewVector(d)
		e[i] = 1
		seeds = append(seeds, e)
	}
	c := geom.NewVector(d)
	for i := range c {
		c[i] = 1 / float64(d)
	}
	return append(seeds, c)
}

// test decides candidate p against the confirmed points: each round solves
// p's LP against c.list, checks its certificate and either rejects p,
// confirms p, or confirms the witness's winner w and tests again with w
// among the constraints. Confirms extend c.list in order, p last iff p was
// confirmed.
func (c *confirmed) test(points []geom.Vector, p int, s *scratch, o obs.Observer) error {
	for {
		v, w, _ := s.check(points, p, c.list, s.solveDual(points, p, c.list, o))
		if v == failed {
			var why string
			if v, w, why = s.check(points, p, c.list, s.solvePrimal(points, p, c.list, o)); v == failed {
				return fmt.Errorf("hull: convex-point test of candidate %d failed its certificate on the dual LP and on the primal retry: %s", p, why)
			}
		}
		switch v {
		case rejected:
			return nil
		case accepted:
			c.add(p)
			return nil
		}
		c.add(w)
	}
}

// verdict is the outcome of one certified LP test.
type verdict int

const (
	failed   verdict = iota // the certificate did not check
	rejected                // p loses by more than Eps at every utility
	accepted                // p is (tied-)top-1 at the witness
	grown                   // the witness's winner is a new convex point
)

// scratch holds a scan's candidate-test working memory: the LP staging
// buffers (coefficient arena, constraint headers, free-variable mask), the
// dual witness and the combination c. A scan owns one and reuses it for
// every test. Reused memory is re-zeroed, so a test's result does not depend
// on what the buffers held before.
type scratch struct {
	arena []float64
	cons  []lp.Constraint
	free  []bool
	u, c  []float64
}

// zeroed returns a zeroed slice of length n, reusing *buf's array when it
// is large enough and otherwise at least doubling it, so a scan's growing
// tests reallocate O(log n) times.
func zeroed[T any](buf *[]T, n int) []T {
	b := *buf
	if cap(b) < n {
		b = make([]T, n, max(n, 2*cap(b)))
	} else {
		b = b[:n]
		clear(b)
	}
	*buf = b
	return b
}

// solution is one solved test in the form its certificates are read in:
// the margin δ = max_u min_q u·(p−q), the weights λ over against, and the
// witness utility u. Only status is set when the solve is not optimal.
type solution struct {
	status    lp.Status
	delta     float64
	lambda, u []float64
}

// solveDual stages p's minimax LP in the scratch buffers and solves it:
// maximize −t over (λ, t), t free, s.t. Σ_q λ_q·q_i + t ≥ p_i for each
// coordinate i, then Σ_q λ_q = 1. Columns follow against's order, so a test
// is a pure function of (p, against). δ = t, and u is minus the coordinate
// rows' multipliers.
func (s *scratch) solveDual(points []geom.Vector, p int, against []int, o obs.Observer) solution {
	d, m := len(points[p]), len(against)
	nv := m + 1
	arena := zeroed(&s.arena, nv*(d+2))
	obj := arena[:nv]
	obj[m] = -1
	free := zeroed(&s.free, nv)
	free[m] = true
	cons := s.cons[:0]
	for i := 0; i < d; i++ {
		a := arena[(i+1)*nv : (i+2)*nv]
		for j, q := range against {
			a[j] = points[q][i]
		}
		a[m] = 1
		cons = append(cons, lp.Constraint{Coef: a, Rel: lp.GE, RHS: points[p][i]})
	}
	one := arena[(d+1)*nv:]
	for j := range against {
		one[j] = 1
	}
	cons = append(cons, lp.Constraint{Coef: one, Rel: lp.EQ, RHS: 1})
	s.cons = cons
	res := lp.SolveTraced(lp.Problem{NumVars: nv, Objective: obj, Constraints: cons, Free: free}, o)
	if res.Status != lp.Optimal {
		return solution{status: res.Status}
	}
	u := zeroed(&s.u, d)
	for i := range u {
		u[i] = -res.Dual[i]
	}
	return solution{status: lp.Optimal, delta: res.X[m], lambda: res.X[:m], u: u}
}

// solvePrimal stages and solves the primal the dual test falls back to:
// maximize δ over (u, δ), δ free, s.t. Σ_i u_i = 1, then u·(q − p) + δ ≤ 0
// for each q in against. Stated as ≤ rows with RHS 0, the margin rows start
// on their slacks and only Σu = 1 needs an artificial column. λ are the
// margin rows' multipliers.
func (s *scratch) solvePrimal(points []geom.Vector, p int, against []int, o obs.Observer) solution {
	d, m := len(points[p]), len(against)
	nv := d + 1
	arena := zeroed(&s.arena, nv*(m+2))
	obj := arena[:nv]
	obj[d] = 1
	free := zeroed(&s.free, nv)
	free[d] = true
	one := arena[nv : 2*nv]
	for i := 0; i < d; i++ {
		one[i] = 1
	}
	cons := append(s.cons[:0], lp.Constraint{Coef: one, Rel: lp.EQ, RHS: 1})
	pp := points[p]
	for j, q := range against {
		a := arena[(j+2)*nv : (j+3)*nv]
		for i, x := range points[q] {
			a[i] = x - pp[i]
		}
		a[d] = 1
		cons = append(cons, lp.Constraint{Coef: a, Rel: lp.LE, RHS: 0})
	}
	s.cons = cons
	res := lp.SolveTraced(lp.Problem{NumVars: nv, Objective: obj, Constraints: cons, Free: free}, o)
	if res.Status != lp.Optimal {
		return solution{status: res.Status}
	}
	return solution{status: lp.Optimal, delta: res.Value, lambda: res.Dual[1:], u: res.X[:d]}
}

// check reads one solved test's certificate. For grown it also returns the
// new convex point; for failed, why the certificate did not check.
func (s *scratch) check(points []geom.Vector, p int, against []int, sol solution) (verdict, int, string) {
	if sol.status != lp.Optimal {
		return failed, -1, "LP status " + sol.status.String()
	}
	if sol.delta < -geom.Eps {
		if s.dominated(points, p, against, sol.lambda) {
			return rejected, -1, ""
		}
		return failed, -1, "reject certificate does not check"
	}
	if !onSimplex(sol.u) {
		return failed, -1, "witness utility off the simplex"
	}
	// argmaxVals hands back the dot products the witness scan already
	// computed, so the tie-top-1 test below re-derives nothing.
	w, dp, dw := argmaxVals(points, sol.u, p)
	if dp >= dw-geom.Eps {
		return accepted, p, ""
	}
	if slices.Contains(against, w) {
		return failed, -1, fmt.Sprintf("confirmed point %d beats it at the witness", w)
	}
	return grown, w, ""
}

// dominated checks the reject certificate: λ, clamped at 0 and renormalised,
// combines the confirmed points into c with p_i − c_i < −Eps in every
// coordinate. For any utility u on the simplex, u·c ≤ max_q u·q, so this
// proves min_q u·(p − q) < −Eps everywhere.
func (s *scratch) dominated(points []geom.Vector, p int, against []int, lambda []float64) bool {
	c := zeroed(&s.c, len(points[p]))
	sum := 0.0
	for j, q := range against {
		l := lambda[j]
		if l <= 0 {
			continue
		}
		sum += l
		for i, x := range points[q] {
			c[i] += l * x
		}
	}
	if sum <= 0 {
		return false
	}
	for i, x := range points[p] {
		if x-c[i]/sum >= -geom.Eps {
			return false
		}
	}
	return true
}

// onSimplex checks the accept certificate's witness — every coordinate at
// least −FeasEps and the sum within FeasEps of 1 — and, if it holds, clamps u
// at 0 and renormalises it in place.
func onSimplex(u []float64) bool {
	sum := 0.0
	for _, x := range u {
		if x < -geom.FeasEps {
			return false
		}
		sum += x
	}
	if sum < 1-geom.FeasEps || sum > 1+geom.FeasEps {
		return false
	}
	sum = 0
	for i, x := range u {
		u[i] = max(x, 0)
		sum += u[i]
	}
	for i := range u {
		u[i] /= sum
	}
	return true
}

// argmax returns the index with the highest utility w.r.t. u; prefer wins
// ties when it is within Eps of the maximum (pass -1 to disable).
func argmax(points []geom.Vector, u geom.Vector, prefer int) int {
	if prefer < 0 {
		best, bestVal := 0, u.Dot(points[0])
		for i := 1; i < len(points); i++ {
			if v := u.Dot(points[i]); v > bestVal {
				best, bestVal = i, v
			}
		}
		return best
	}
	best, _, _ := argmaxVals(points, u, prefer)
	return best
}

// argmaxVals is argmax for a real candidate (prefer >= 0) that also returns
// the dot products the scan computed — prefer's value and the maximum — so
// callers deciding a tie-top-1 test need no repeat Dot calls. prefer's value
// is tracked inside the single pass instead of being recomputed after it.
func argmaxVals(points []geom.Vector, u geom.Vector, prefer int) (int, float64, float64) {
	best, bestVal := 0, u.Dot(points[0])
	preferVal := bestVal // prefer == 0 is covered by the init
	for i := 1; i < len(points); i++ {
		v := u.Dot(points[i])
		if i == prefer {
			preferVal = v
		}
		if v > bestVal {
			best, bestVal = i, v
		}
	}
	if preferVal >= bestVal-geom.Eps {
		return prefer, preferVal, bestVal
	}
	return best, preferVal, bestVal
}

// ConvexPointsSampling approximates the convex points by sampling `samples`
// utility vectors uniformly from the simplex (always including the corners
// and the centroid) and collecting the distinct top-1 winners.
func ConvexPointsSampling(points []geom.Vector, samples int, rng *rand.Rand) []int {
	if len(points) == 0 {
		return nil
	}
	d := len(points[0])
	seen := map[int]bool{}
	try := func(u geom.Vector) { seen[argmax(points, u, -1)] = true }

	for i := 0; i < d; i++ {
		e := geom.NewVector(d)
		e[i] = 1
		try(e)
	}
	c := geom.NewVector(d)
	for i := range c {
		c[i] = 1 / float64(d)
	}
	try(c)
	for s := 0; s < samples; s++ {
		try(oracle.RandomUtility(rng, d))
	}

	out := make([]int, 0, len(seen))
	for i := range seen {
		out = append(out, i)
	}
	sort.Ints(out)
	return out
}
