package obs

import (
	"reflect"
	"testing"
	"time"
)

// TestNilSafeWrappers asserts the core contract: every emit helper is a
// no-op on a nil observer. Instrumented library code relies on this for its
// uninstrumented fast path (and the obsnil analyzer forbids bypassing it).
func TestNilSafeWrappers(t *testing.T) {
	Emit(nil, Event{Kind: KindQuestionAsked})
	QuestionAsked(nil, 0, 1)
	AnswerReceived(nil, 0, 1, true)
	HalfspaceCut(nil, "intersect", 5, 3)
	CandidatePruned(nil, 2)
	LPSolve(nil, "optimal", 7, time.Millisecond)
	ConvexPointTest(nil, 3, true)
	ConvexPointsFound(nil, 4, "sampling")
	DegradationStep(nil, "ball->rect")
	StopConditionCheck(nil, false)
}

// TestEmitHelpersTape pins what each emit helper delivers: one event of
// its kind with its fields set, except a prune that removed nothing, which
// is not an event at all.
func TestEmitHelpersTape(t *testing.T) {
	var r Recorder
	QuestionAsked(&r, 0, 1)
	AnswerReceived(&r, 0, 1, true)
	LPSolve(&r, "optimal", 10, time.Millisecond)
	CandidatePruned(&r, 5)
	CandidatePruned(&r, 0) // removed nothing: not a prune event
	want := []Event{
		{Kind: KindQuestionAsked, I: 0, J: 1},
		{Kind: KindAnswerReceived, I: 0, J: 1, Answer: true},
		{Kind: KindLPSolve, Status: "optimal", Count: 10, Duration: time.Millisecond},
		{Kind: KindCandidatePruned, Count: 5},
	}
	if got := r.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("tape = %+v, want %+v", got, want)
	}
}

func TestCombine(t *testing.T) {
	if Combine() != nil || Combine(nil, nil) != nil {
		t.Fatal("Combine of nothing must stay nil to preserve the fast path")
	}
	r := &Recorder{}
	if got := Combine(nil, r, nil); got != Observer(r) {
		t.Fatal("Combine with one live observer must return it unwrapped")
	}
	r2 := &Recorder{}
	both := Combine(r, r2)
	QuestionAsked(both, 1, 2)
	if r.Len() != 1 || r2.Len() != 1 {
		t.Fatal("Combine did not fan out to both observers")
	}
}
