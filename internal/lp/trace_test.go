package lp

import (
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/obs"
)

// TestSolveTraced pins the lp-solve trace event: one event per solve with
// the final status, a positive pivot count, and a duration measured on the
// injected package clock (two reads of a stepping fake = one step).
func TestSolveTraced(t *testing.T) {
	fake := clock.NewFake(time.Unix(0, 0))
	fake.SetStep(5 * time.Millisecond)
	SetClock(fake)
	defer SetClock(nil)

	o := &obs.Recorder{}
	res := SolveTraced(Problem{
		NumVars:   2,
		Objective: []float64{1, 1},
		Constraints: []Constraint{
			{Coef: []float64{1, 0}, Rel: LE, RHS: 2},
			{Coef: []float64{0, 1}, Rel: LE, RHS: 3},
		},
	}, o)
	if res.Status != Optimal {
		t.Fatalf("status = %v, want optimal", res.Status)
	}
	events := o.Events()
	if len(events) != 1 {
		t.Fatalf("emitted %d events, want 1", len(events))
	}
	e := events[0]
	if e.Kind != obs.KindLPSolve {
		t.Fatalf("kind = %q", e.Kind)
	}
	if e.Status != "optimal" {
		t.Fatalf("event status = %q, want optimal", e.Status)
	}
	if e.Count <= 0 {
		t.Fatalf("iterations = %d, want > 0", e.Count)
	}
	if e.Duration != 5*time.Millisecond {
		t.Fatalf("duration = %v, want one 5ms clock step", e.Duration)
	}
}

// TestSolveTracedInfeasible asserts the event reports the status the caller
// saw, including failures.
func TestSolveTracedInfeasible(t *testing.T) {
	o := &obs.Recorder{}
	res := SolveTraced(Problem{
		NumVars:   1,
		Objective: []float64{1},
		Constraints: []Constraint{
			{Coef: []float64{1}, Rel: LE, RHS: -1},
		},
	}, o)
	if res.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", res.Status)
	}
	if events := o.Events(); len(events) != 1 || events[0].Status != "infeasible" {
		t.Fatalf("events = %+v", events)
	}
}

// TestSolveUntracedIsSolve asserts the nil-observer path matches Solve
// exactly (it IS Solve).
func TestSolveUntracedIsSolve(t *testing.T) {
	p := Problem{
		NumVars:   2,
		Objective: []float64{3, 2},
		Constraints: []Constraint{
			{Coef: []float64{1, 1}, Rel: LE, RHS: 4},
			{Coef: []float64{1, 3}, Rel: LE, RHS: 6},
		},
	}
	a, b := Solve(p), SolveTraced(p, nil)
	if a.Status != b.Status || a.Value != b.Value {
		t.Fatalf("Solve and SolveTraced(nil) diverge: %+v vs %+v", a, b)
	}
}
