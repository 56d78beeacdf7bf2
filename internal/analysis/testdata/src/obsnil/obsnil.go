// Package obsnildata exercises the obsnil analyzer.
package obsnildata

import "ist/internal/obs"

func direct(o obs.Observer) {
	o.Event(obs.Event{Kind: obs.KindQuestionAsked}) // want `direct Observer.Event call`
}

func directConcrete(c *obs.Recorder) {
	c.Event(obs.Event{Kind: obs.KindHalfspaceCut}) // want `direct Observer.Event call`
}

func wrapped(o obs.Observer) {
	obs.Emit(o, obs.Event{Kind: obs.KindQuestionAsked}) // nil-safe wrapper: allowed
	obs.QuestionAsked(o, 0, 1)                          // nil-safe wrapper: allowed
}

// unrelated has an Event method that does not implement obs.Observer; calls
// to it must not be flagged.
type unrelated struct{}

func (unrelated) Event(n int) int { return n + 1 }

func otherEvent(u unrelated) int {
	return u.Event(3) // not an Observer: allowed
}

func suppressed(o obs.Observer) {
	//lint:ignore obsnil caller guarantees a non-nil observer on this path
	o.Event(obs.Event{Kind: obs.KindStopConditionCheck})
}
