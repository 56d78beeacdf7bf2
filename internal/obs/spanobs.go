package obs

// SpanObserver turns the flat Observer event stream into the span tree of
// DESIGN.md §13 without touching any algorithm code: it is just another
// Observer hung off obs.Combine. Under a session-root span it maintains one
// "question" span per question of the dialogue, aligned with the
// question-latency metric: the span opens lazily at the FIRST event that
// contributes to computing the question (for question 0 that is the first
// LP solve of session create; for question N it is the first cut or prune
// that the previous answer triggered) and closes when the question's answer
// arrives (or the session finishes). Each question span therefore reads as
// "compute + user think time for this question", and the phase spans that
// produced it — LP solves, halfspace cuts, prunes, stopping-rule checks,
// degradations — are its children. LP solves carry a measured duration and
// are backdated with StartAt so the waterfall shows where the time went,
// while cuts, prunes and stop checks are point spans (start == end) marking
// the moment.
//
// The trailing compute after the LAST answer (the work that certifies the
// result rather than surfacing another pair) opens one final question span
// that never receives i/j attributes; Finish closes it with final=true so
// the waterfall shows the certification tail instead of dropping it.

import (
	"fmt"
	"strconv"
	"sync"
)

// SpanObserver is an Observer that assembles phase spans under a session
// root. Safe for concurrent use; nil-safe like every observer here.
type SpanObserver struct {
	mu    sync.Mutex
	tr    *Tracer
	root  *Span
	q     *Span // the open question span (lazily created)
	asked bool  // the open span's question actually surfaced
	seq   int   // questions opened so far
}

// NewSpanObserver builds the bridge, or nil when tracing is off (nil tracer
// or root) — so callers can pass the result straight to Combine.
func NewSpanObserver(tr *Tracer, root *Span) *SpanObserver {
	if tr == nil || root == nil {
		return nil
	}
	return &SpanObserver{tr: tr, root: root}
}

// Finish closes the open question span, if any. The server calls it when
// the session certifies or tears down; a span that never saw its question
// surface (the certification tail) is marked final.
func (o *SpanObserver) Finish() {
	if o == nil {
		return
	}
	o.mu.Lock()
	q, asked := o.q, o.asked
	o.q = nil
	o.mu.Unlock()
	if q != nil && !asked {
		q.SetAttr("final", "true")
	}
	q.End()
}

// QuestionSpan returns the currently open question span (nil between an
// answer and the next event), for callers that want to attach exemplars or
// server spans.
func (o *SpanObserver) QuestionSpan() *Span {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.q
}

// ensureLocked opens the question span for the dialogue position we are
// computing toward, if none is open yet.
func (o *SpanObserver) ensureLocked() *Span {
	if o.q == nil {
		o.q = o.tr.Start("question", ChildOf(o.root), WithAttrs(
			Attr{"seq", strconv.Itoa(o.seq)},
		))
		o.asked = false
		o.seq++
	}
	return o.q
}

// Event implements Observer.
func (o *SpanObserver) Event(e Event) {
	if o == nil {
		return
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	switch e.Kind {
	case KindQuestionAsked:
		q := o.ensureLocked()
		o.asked = true
		q.SetAttr("i", strconv.Itoa(e.I))
		q.SetAttr("j", strconv.Itoa(e.J))
	case KindAnswerReceived:
		q := o.q
		o.q = nil
		q.SetAttr("answer", strconv.FormatBool(e.Answer))
		q.End()
	case KindLPSolve:
		// The solve already happened: reconstruct it from the measured
		// duration so it lands where it ran on the timeline.
		now := o.tr.clk.Now()
		sp := o.tr.Start("lp-solve", ChildOf(o.ensureLocked()), StartAt(now.Add(-e.Duration)), WithAttrs(
			Attr{"status", e.Status},
			Attr{"iterations", strconv.Itoa(e.Count)},
		))
		sp.EndAt(now)
	case KindHalfspaceCut:
		sp := o.tr.Start("halfspace-cut", ChildOf(o.ensureLocked()), WithAttrs(
			Attr{"class", e.Status},
			Attr{"vertices", fmt.Sprintf("%d->%d", e.Before, e.After)},
		))
		sp.EndAt(sp.start)
	case KindCandidatePruned:
		sp := o.tr.Start("prune", ChildOf(o.ensureLocked()), WithAttrs(
			Attr{"count", strconv.Itoa(e.Count)},
		))
		sp.EndAt(sp.start)
	case KindStopConditionCheck:
		sp := o.tr.Start("stop-check", ChildOf(o.ensureLocked()), WithAttrs(
			Attr{"certified", strconv.FormatBool(e.OK)},
		))
		sp.EndAt(sp.start)
	case KindDegradationStep:
		sp := o.tr.Start("degradation", ChildOf(o.ensureLocked()), WithAttrs(
			Attr{"step", e.Note},
		))
		sp.EndAt(sp.start)
	}
}
