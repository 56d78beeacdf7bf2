package core

import (
	"context"
	"time"

	"ist/internal/clock"
	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
)

// This file is the anytime engine: a Budget bounds an interaction (question
// count, deadline on an injected clock, context cancellation), a tracker
// threads it through an algorithm's question boundaries and heavy loops, and
// a Certificate reports honestly what the returned point is worth. The
// unbudgeted Run entry points pass a nil tracker, whose methods are all
// no-op on the nil receiver, so the hot experiment paths pay nothing and —
// crucially for transcript replay — consume no randomness and ask exactly
// the same question sequence as before the engine existed.

// Budget bounds an interactive run. The zero value is inactive: no limits,
// identical behaviour to plain Run.
type Budget struct {
	// MaxQuestions caps how many questions the algorithm may ask
	// (0 = unlimited). Each Oracle.Prefer call from the algorithm counts
	// once, regardless of any vote amplification inside the oracle.
	MaxQuestions int
	// Deadline stops the run once Clock reaches it (zero = none).
	Deadline time.Time
	// Clock supplies time for Deadline checks and the degradation ladder;
	// nil defaults to clock.Real.
	Clock clock.Clock
	// Ctx cancels the run between question boundaries and inside heavy
	// loops when its Done channel fires (nil = no cancellation).
	Ctx context.Context
}

// Active reports whether the budget constrains anything.
func (b Budget) Active() bool {
	return b.MaxQuestions > 0 || !b.Deadline.IsZero() || b.Ctx != nil
}

// StopReason says why a budgeted run returned.
type StopReason string

const (
	// StopConverged is the algorithm's own stopping rule: the result is
	// guaranteed top-k (up to the algorithm's usual caveats, e.g. sampled
	// convex points).
	StopConverged StopReason = "converged"
	// StopQuestions means the question budget ran out.
	StopQuestions StopReason = "question-budget"
	// StopDeadline means the deadline passed.
	StopDeadline StopReason = "deadline"
	// StopCanceled means the context was canceled.
	StopCanceled StopReason = "canceled"
	// StopDegenerate means the utility region collapsed (an erring user or
	// numerically degenerate input) and the result is a best guess.
	StopDegenerate StopReason = "degenerate-region"
	// StopPanic means the algorithm panicked mid-run and the engine
	// recovered with the best point known at that moment.
	StopPanic StopReason = "panic-recovered"
)

// Certificate is the honest receipt attached to a budgeted result.
type Certificate struct {
	// Certified reports whether the point is guaranteed to be among the
	// user's top-k; false means best effort.
	Certified bool `json:"certified"`
	// Reason says which condition ended the run.
	Reason StopReason `json:"reason"`
	// Questions is how many questions this run asked.
	Questions int `json:"questions"`
	// Candidates counts the points not yet certainly beaten by k others
	// over the surviving utility region — the set the true answer is still
	// hiding in. It shrinks toward k (and below, to the certified answers)
	// as answers accumulate; len(points) means nothing was narrowed.
	Candidates int `json:"candidates"`
	// CredibleWeight is the posterior weight fraction behind the answer
	// (RobustHDPI only; 0 otherwise).
	CredibleWeight float64 `json:"credibleWeight,omitempty"`
	// Degradations lists the trade-offs the run took under pressure: the
	// halved stop-check cadence near a deadline, the accurate→sampling
	// convex-point fallback.
	Degradations []string `json:"degradations,omitempty"`
	// Elapsed is the run's wall time, measured on the budget's injected
	// clock (zero for inactive budgets, which perform no clock reads).
	// JSON carries it as integer nanoseconds.
	Elapsed time.Duration `json:"elapsed,omitempty"`
}

// tracker carries one budgeted run's accounting. A nil tracker is the
// unbudgeted fast path: every method is safe and free on the nil receiver.
type tracker struct {
	active bool
	budget Budget
	clk    clock.Clock
	// obs receives trace events; nil is the silent fast path. Events carry
	// only already-computed state, so an attached observer consumes no
	// randomness and leaves transcripts bit-identical.
	obs obs.Observer

	// Degradation-ladder state. start/horizon scale deadline pressure;
	// halved is set once the ladder has halved the Lemma 5.5 cadence.
	start   time.Time
	horizon time.Duration
	halved  bool
	notes   []string

	asked     int
	exhReason StopReason

	// Best-effort state observed along the way, for panic rescue and the
	// final certificate.
	lastU     geom.Vector
	lastVerts []geom.Vector

	certified bool
	reason    StopReason
	credible  float64
}

// newTracker builds a tracker for the budget, carrying the run's trace
// observer (nil for untraced runs).
func newTracker(b Budget, o obs.Observer) *tracker {
	t := &tracker{budget: b, active: b.Active(), obs: o}
	if !t.active {
		return t
	}
	t.clk = b.Clock
	if t.clk == nil {
		t.clk = clock.Real
	}
	t.start = t.clk.Now()
	if !b.Deadline.IsZero() {
		t.horizon = b.Deadline.Sub(t.start)
	}
	return t
}

// obsTracker returns the tracker of an unbudgeted run: nil when there is
// nothing to observe, keeping the uninstrumented fast path
// allocation-free, and otherwise an inactive tracker that only carries the
// observer, so every budget gate lets the run through unchanged.
func obsTracker(o obs.Observer) *tracker {
	if o == nil {
		return nil
	}
	return newTracker(Budget{}, o)
}

// observer returns the trace observer, nil-safe on a nil tracker.
func (t *tracker) observer() obs.Observer {
	if t == nil {
		return nil
	}
	return t.obs
}

// ask emits a question-asked event immediately before the oracle is
// consulted; i and j are the compared point indices.
func (t *tracker) ask(i, j int) {
	if t != nil {
		obs.QuestionAsked(t.obs, i, j)
	}
}

// pruned emits a candidate-pruned event for n eliminated candidates.
func (t *tracker) pruned(n int) {
	if t != nil {
		obs.CandidatePruned(t.obs, n)
	}
}

// stopCheck emits a stop-check event with the stopping rule's outcome.
func (t *tracker) stopCheck(ok bool) {
	if t != nil {
		obs.StopConditionCheck(t.obs, ok)
	}
}

// exhausted reports whether the budget has run out, recording the first
// reason sticky so every later check agrees. It consumes no randomness.
func (t *tracker) exhausted() bool {
	if t == nil || !t.active {
		return false
	}
	if t.exhReason != "" {
		return true
	}
	switch {
	case t.budget.Ctx != nil && t.budget.Ctx.Err() != nil:
		t.exhReason = StopCanceled
	case t.budget.MaxQuestions > 0 && t.asked >= t.budget.MaxQuestions:
		t.exhReason = StopQuestions
	case !t.budget.Deadline.IsZero() && !t.clk.Now().Before(t.budget.Deadline):
		t.exhReason = StopDeadline
	}
	return t.exhReason != ""
}

// stopReason is the exhaustion (or collapse) reason for a best-effort exit.
func (t *tracker) stopReason() StopReason {
	if t == nil || t.exhReason == "" {
		return StopDegenerate
	}
	return t.exhReason
}

// question accounts one answered question and emits the answer-received
// event. Call it after Oracle.Prefer returns, so a question that panicked
// mid-ask is not billed to the user; i and j are the compared point indices
// and preferFirst is the user's answer.
func (t *tracker) question(i, j int, preferFirst bool) {
	if t != nil {
		t.asked++
		obs.AnswerReceived(t.obs, i, j, preferFirst)
	}
}

// observe remembers the algorithm's current location estimate (a utility
// vector inside the surviving region) and, when non-nil, the region's
// vertices — the state a best-effort answer is built from.
func (t *tracker) observe(u geom.Vector, verts []geom.Vector) {
	if t == nil {
		return
	}
	if u != nil {
		t.lastU = u
	}
	if verts != nil {
		t.lastVerts = verts
	}
}

// maybeDegrade is the degradation ladder's one step: past three quarters
// of the deadline horizon the Lemma 5.5 check runs every other round, so
// the remaining time goes to questions that shrink the region rather than
// to certification attempts that keep failing. It reads the clock once per
// call, before and after the step alike.
func (t *tracker) maybeDegrade() {
	if t == nil || !t.active || t.horizon <= 0 {
		return
	}
	elapsed := t.clk.Now().Sub(t.start)
	if !t.halved && elapsed*4 >= t.horizon*3 {
		t.halved = true
		t.note("stop-check cadence halved under deadline pressure")
	}
}

// checkDue reports whether the algorithm checks Lemma 5.5 in the given
// round: every round, and every other round once the ladder has halved the
// cadence. It is true on a nil tracker.
func (t *tracker) checkDue(round int) bool {
	return t == nil || !t.halved || round%2 == 0
}

// note records a degradation once, emitting a degradation-step event on
// first occurrence.
func (t *tracker) note(msg string) {
	if t == nil {
		return
	}
	for _, n := range t.notes {
		if n == msg {
			return
		}
	}
	t.notes = append(t.notes, msg)
	obs.DegradationStep(t.obs, msg)
}

// finish records the run's outcome; verts (may be nil) is the surviving
// utility region the certificate's candidate count is computed over.
func (t *tracker) finish(certified bool, reason StopReason, verts []geom.Vector) {
	if t == nil {
		return
	}
	t.certified = certified
	t.reason = reason
	if verts != nil {
		t.lastVerts = verts
	}
}

// certificate packages the run's accounting.
func (t *tracker) certificate(points []geom.Vector, k int) Certificate {
	if t == nil {
		return Certificate{}
	}
	reason := t.reason
	if reason == "" {
		reason = StopConverged
	}
	var elapsed time.Duration
	if t.clk != nil {
		elapsed = t.clk.Now().Sub(t.start)
	}
	return Certificate{
		Certified:      t.certified,
		Reason:         reason,
		Questions:      t.asked,
		Candidates:     countCandidates(points, k, t.lastVerts),
		CredibleWeight: t.credible,
		Degradations:   t.notes,
		Elapsed:        elapsed,
	}
}

// guard runs one budgeted dialogue behind the engine's panic barrier and
// certifies the want answers run returns.
func (t *tracker) guard(points []geom.Vector, k, want int, run func() []int) (idx []int, cert Certificate) {
	defer t.rescue(points, k, want, &idx, &cert)
	idx = run()
	return idx, t.certificate(points, k)
}

// rescue is the panic barrier of every budgeted entry point, single- or
// multi-answer: a panic inside a budget-active run (a poisoned oracle, a
// numerical explosion) is converted into a best-effort answer, the top-want
// at the last location estimate, with an honest panic-recovered certificate
// instead of unwinding into the caller. Unbudgeted runs keep their
// propagate-the-panic contract — the session layer's own isolation depends
// on it.
func (t *tracker) rescue(points []geom.Vector, k, want int, idx *[]int, cert *Certificate) {
	if t == nil || !t.active {
		return
	}
	if r := recover(); r == nil {
		return
	}
	u := t.lastU
	if u == nil {
		u = uniformUtility(len(points[0]))
	}
	*idx = oracle.TopK(points, u, want)
	t.finish(false, StopPanic, nil)
	*cert = t.certificate(points, k)
}

// countCandidates counts the points that could still be in the user's top-k
// given that the utility vector lies in the region spanned by verts: a point
// is ruled out only when k other points certainly beat it, i.e. beat it at
// every region vertex. With no region information, every point is a
// candidate. Over the full simplex this is exactly the k-skyband.
func countCandidates(points []geom.Vector, k int, verts []geom.Vector) int {
	n := len(points)
	if len(verts) == 0 {
		return n
	}
	// util[j][vi] = verts[vi]·points[j], computed once.
	util := make([][]float64, n)
	for j, p := range points {
		row := make([]float64, len(verts))
		for vi, v := range verts {
			row[vi] = v.Dot(p)
		}
		util[j] = row
	}
	candidates := 0
	for i := 0; i < n; i++ {
		beaters := 0
		for j := 0; j < n && beaters < k; j++ {
			if j == i {
				continue
			}
			certain := true
			for vi := range verts {
				if util[j][vi] <= util[i][vi]+geom.Eps {
					certain = false
					break
				}
			}
			if certain {
				beaters++
			}
		}
		if beaters < k {
			candidates++
		}
	}
	return candidates
}
