// Package obs is the repository's dependency-free observability layer:
// a structured trace Observer fed by the LP core, the geometry packages and
// every algorithm in internal/core, plus a metrics Registry with Prometheus
// text exposition (metrics.go) and a JSONL trace writer (jsonl.go).
//
// The design mirrors the nil-safe tracker of internal/core's Budget (PR 3):
// instrumented code never calls an Observer method directly — it goes
// through the package-level emit helpers (QuestionAsked, LPSolve, ...),
// each of which is a no-op on a nil Observer. A nil observer therefore
// costs one nil check per event site, allocates nothing, consumes no
// randomness, and leaves every algorithm's question transcript bit-identical
// to an uninstrumented run (asserted by TestNilObserverTranscripts in
// internal/core). The obsnil analyzer in internal/analysis enforces the
// wrappers-only rule mechanically.
//
// Timing discipline: this package never reads the wall clock. Durations
// arrive in events from callers (who measure on an injected clock.Clock),
// and the JSONL writer stamps records from the clock it was constructed
// with — so the wallclock analyzer stays clean and traces are replayable
// under a fake clock.
package obs

import "time"

// EventKind labels a trace event. Kinds are strings so traces are
// self-describing in JSONL without a decoder table.
type EventKind string

// The event taxonomy (DESIGN.md §9). One event is emitted per occurrence,
// in algorithm order, from the goroutine running the algorithm.
const (
	// KindQuestionAsked fires immediately before the oracle is consulted;
	// I and J are the indices of the compared points.
	KindQuestionAsked EventKind = "question-asked"
	// KindAnswerReceived fires after the oracle returns; Answer is true when
	// the user preferred point I over point J. The span between a
	// QuestionAsked and its AnswerReceived brackets real user latency in a
	// live session.
	KindAnswerReceived EventKind = "answer-received"
	// KindHalfspaceCut fires when an answered halfspace cuts a polytope;
	// Status is the pre-cut classification, Before/After are vertex counts.
	KindHalfspaceCut EventKind = "halfspace-cut"
	// KindCandidatePruned fires when answers eliminate candidate partitions
	// or sweep intervals; Count is how many were removed.
	KindCandidatePruned EventKind = "candidate-pruned"
	// KindLPSolve fires per linear-program solve; Status, Count (simplex
	// iterations) and Duration describe it.
	KindLPSolve EventKind = "lp-solve"
	// KindConvexPointTest fires per convex-point decision: with I/OK for an
	// exact per-candidate LP test, or with Count/Note summarizing a whole
	// sampling (or 2-d envelope) detection.
	KindConvexPointTest EventKind = "convex-point-test"
	// KindDegradationStep fires when the budget's degradation ladder trades
	// quality for time; Note is the human-readable step.
	KindDegradationStep EventKind = "degradation-step"
	// KindStopConditionCheck fires per stopping-rule evaluation (Lemma 5.5
	// and friends); OK reports whether the run may stop.
	KindStopConditionCheck EventKind = "stop-check"
)

// Event is one structured trace record. Only the fields meaningful for the
// Kind are set; the rest stay zero and are omitted from JSON.
type Event struct {
	Kind EventKind `json:"kind"`
	// I, J are point indices (questions, convex tests).
	I int `json:"i,omitempty"`
	J int `json:"j,omitempty"`
	// Answer is AnswerReceived's verdict: the user preferred point I.
	Answer bool `json:"answer,omitempty"`
	// OK is the outcome of a stop check or a convex-point test.
	OK bool `json:"ok,omitempty"`
	// Count is the kind's cardinality: pruned candidates, LP iterations,
	// convex points found.
	Count int `json:"count,omitempty"`
	// Before/After are polytope vertex counts around a halfspace cut.
	Before int `json:"before,omitempty"`
	After  int `json:"after,omitempty"`
	// Status is an LP solve status or a cut classification.
	Status string `json:"status,omitempty"`
	// Duration is the LP solve time, measured by the caller on its clock.
	Duration time.Duration `json:"durationNs,omitempty"`
	// Note carries free-form detail (degradation steps, detection method).
	Note string `json:"note,omitempty"`
}

// Observer receives trace events. Implementations must tolerate calls from
// the single goroutine running the observed algorithm; a shared observer
// (e.g. the server's metrics bridge) must be internally synchronized.
//
// Library code must not call Event directly: use the package-level emit
// helpers, which are nil-safe (the obsnil analyzer enforces this).
type Observer interface {
	Event(Event)
}

// Emit forwards e to o, tolerating a nil observer. It is the single choke
// point every other helper goes through.
func Emit(o Observer, e Event) {
	if o != nil {
		o.Event(e)
	}
}

// QuestionAsked records that the pair (i, j) is about to be put to the user.
func QuestionAsked(o Observer, i, j int) {
	Emit(o, Event{Kind: KindQuestionAsked, I: i, J: j})
}

// AnswerReceived records the user's verdict on the pair (i, j).
func AnswerReceived(o Observer, i, j int, preferFirst bool) {
	Emit(o, Event{Kind: KindAnswerReceived, I: i, J: j, Answer: preferFirst})
}

// HalfspaceCut records an answered halfspace cutting a polytope.
func HalfspaceCut(o Observer, class string, vertsBefore, vertsAfter int) {
	Emit(o, Event{Kind: KindHalfspaceCut, Status: class, Before: vertsBefore, After: vertsAfter})
}

// CandidatePruned records count candidates eliminated by an answer.
func CandidatePruned(o Observer, count int) {
	if count <= 0 {
		return // an answer that removed nothing is not a prune
	}
	Emit(o, Event{Kind: KindCandidatePruned, Count: count})
}

// LPSolve records one linear-program solve.
func LPSolve(o Observer, status string, iterations int, d time.Duration) {
	Emit(o, Event{Kind: KindLPSolve, Status: status, Count: iterations, Duration: d})
}

// ConvexPointTest records one exact per-candidate convex-point decision.
func ConvexPointTest(o Observer, candidate int, confirmed bool) {
	Emit(o, Event{Kind: KindConvexPointTest, I: candidate, OK: confirmed})
}

// ConvexPointsFound summarizes a whole convex-point detection (sampling or
// the 2-d envelope, which have no per-candidate decision to report).
func ConvexPointsFound(o Observer, count int, method string) {
	Emit(o, Event{Kind: KindConvexPointTest, OK: true, Count: count, Note: method})
}

// DegradationStep records a quality trade-off taken by the budget ladder.
func DegradationStep(o Observer, note string) {
	Emit(o, Event{Kind: KindDegradationStep, Note: note})
}

// StopConditionCheck records one stopping-rule evaluation and its outcome.
func StopConditionCheck(o Observer, ok bool) {
	Emit(o, Event{Kind: KindStopConditionCheck, OK: ok})
}

// Multi fans events out to several observers; nil members are skipped.
// Combine returns nil when every argument is nil, preserving the fast path.
func Combine(observers ...Observer) Observer {
	var live []Observer
	for _, o := range observers {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return multiObserver(live)
}

type multiObserver []Observer

// Event implements Observer.
func (m multiObserver) Event(e Event) {
	for _, o := range m {
		o.Event(e)
	}
}
