package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/skyband"
)

func TestBudgetActive(t *testing.T) {
	cases := []struct {
		name string
		b    Budget
		want bool
	}{
		{"zero", Budget{}, false},
		{"questions", Budget{MaxQuestions: 5}, true},
		{"deadline", Budget{Deadline: time.Unix(1, 0)}, true},
		{"context", Budget{Ctx: context.Background()}, true},
	}
	for _, c := range cases {
		if got := c.b.Active(); got != c.want {
			t.Errorf("%s: Active() = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestNilTrackerIsFree asserts the unbudgeted fast path: every tracker
// method must be a safe no-op on the nil receiver, because the plain Run
// entry points thread a nil tracker through the shared implementations.
func TestNilTrackerIsFree(t *testing.T) {
	var tr *tracker
	if tr.exhausted() {
		t.Fatal("nil tracker reports exhaustion")
	}
	tr.question(0, 1, true)
	tr.ask(0, 1)
	tr.pruned(3)
	tr.stopCheck(false)
	if tr.observer() != nil {
		t.Fatal("nil tracker has an observer")
	}
	tr.observe(geom.Vector{1, 0}, nil)
	tr.maybeDegrade()
	if !tr.checkDue(1) {
		t.Fatal("nil tracker skips a stop check")
	}
	tr.note("ignored")
	tr.finish(true, StopConverged, nil)
	if got := tr.certificate(nil, 1); got.Certified || got.Reason != "" || got.Questions != 0 || got.Candidates != 0 {
		t.Fatalf("nil tracker certificate = %+v, want zero", got)
	}
	if tr.stopReason() != StopDegenerate {
		t.Fatalf("nil tracker stopReason = %q", tr.stopReason())
	}
}

func TestTrackerQuestionBudget(t *testing.T) {
	tr := newTracker(Budget{MaxQuestions: 2}, nil)
	if tr.exhausted() {
		t.Fatal("exhausted before any question")
	}
	tr.question(0, 1, true)
	if tr.exhausted() {
		t.Fatal("exhausted after 1 of 2 questions")
	}
	tr.question(0, 1, false)
	if !tr.exhausted() {
		t.Fatal("not exhausted after 2 of 2 questions")
	}
	if tr.stopReason() != StopQuestions {
		t.Fatalf("stopReason = %q, want %q", tr.stopReason(), StopQuestions)
	}
}

func TestTrackerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	tr := newTracker(Budget{Ctx: ctx}, nil)
	if tr.exhausted() {
		t.Fatal("exhausted before cancellation")
	}
	cancel()
	if !tr.exhausted() {
		t.Fatal("not exhausted after cancellation")
	}
	if tr.stopReason() != StopCanceled {
		t.Fatalf("stopReason = %q, want %q", tr.stopReason(), StopCanceled)
	}
}

// TestTrackerDeadlineLadder walks the degradation ladder on a fake clock:
// nothing changes through half the horizon, the Lemma 5.5 cadence halves
// past three quarters, and the deadline finally exhausts the run. Every
// maybeDegrade call reads the clock exactly once, so a run on a stepping
// clock meets its deadline at the same question whatever the ladder did.
func TestTrackerDeadlineLadder(t *testing.T) {
	const cadenceNote = "stop-check cadence halved under deadline pressure"
	start := time.Unix(100, 0)
	fake := clock.NewFake(start)
	tr := newTracker(Budget{Deadline: start.Add(1 * time.Second), Clock: fake}, nil)
	everyRound := func() bool { return tr.checkDue(0) && tr.checkDue(1) && tr.checkDue(2) }

	tr.maybeDegrade()
	if !everyRound() || len(tr.notes) != 0 {
		t.Fatalf("degraded at t=0: notes %v", tr.notes)
	}

	fake.Advance(500 * time.Millisecond) // exactly half the horizon
	tr.maybeDegrade()
	if !everyRound() || len(tr.notes) != 0 {
		t.Fatalf("degraded at half horizon: notes %v", tr.notes)
	}

	fake.Advance(250 * time.Millisecond) // three quarters
	tr.maybeDegrade()
	if !tr.checkDue(0) || tr.checkDue(1) || !tr.checkDue(2) || tr.checkDue(3) {
		t.Fatal("at three-quarter horizon: the stop check does not run every other round")
	}
	if tr.exhausted() {
		t.Fatal("exhausted before the deadline")
	}

	fake.Advance(250 * time.Millisecond) // the deadline itself
	if !tr.exhausted() {
		t.Fatal("not exhausted at the deadline")
	}
	if tr.stopReason() != StopDeadline {
		t.Fatalf("stopReason = %q, want %q", tr.stopReason(), StopDeadline)
	}
	// Notes are deduplicated: walking the ladder again records nothing new.
	tr.maybeDegrade()
	if !slices.Equal(tr.notes, []string{cadenceNote}) {
		t.Fatalf("degradation notes = %v, want only %q", tr.notes, cadenceNote)
	}

	fake.SetStep(time.Millisecond)
	before := fake.Now()
	for range 3 {
		tr.maybeDegrade()
	}
	if reads := fake.Now().Sub(before)/time.Millisecond - 1; reads != 3 {
		t.Fatalf("three maybeDegrade calls read the clock %d times, want 3", reads)
	}
}

// TestCountCandidates pins the candidate counter on a hand-checkable 2-d
// instance: p0 dominates p2 everywhere, so over the full simplex p2 is ruled
// out for k=1 while p0 and p1 (each winning a corner) stay candidates.
func TestCountCandidates(t *testing.T) {
	points := []geom.Vector{
		{0.9, 0.2}, // p0: wins at u=(1,0)
		{0.1, 0.9}, // p1: wins at u=(0,1)
		{0.5, 0.1}, // p2: beaten by p0 at every u
	}
	simplex := []geom.Vector{{1, 0}, {0, 1}}

	if got := countCandidates(points, 1, simplex); got != 2 {
		t.Fatalf("k=1 over the simplex: %d candidates, want 2", got)
	}
	// With k=2 a single certain beater is not enough to rule anyone out.
	if got := countCandidates(points, 2, simplex); got != 3 {
		t.Fatalf("k=2 over the simplex: %d candidates, want 3", got)
	}
	// No region information: everything is a candidate.
	if got := countCandidates(points, 1, nil); got != 3 {
		t.Fatalf("no region: %d candidates, want 3", got)
	}
	// A region where p0 certainly wins: only p0 survives... plus p1? At
	// u=(1,0): p0=0.9 > p1=0.1 and at u=(0.8,0.2): p0=0.76 > p1=0.26 — both
	// vertices rule p1 and p2 out for k=1.
	narrow := []geom.Vector{{1, 0}, {0.8, 0.2}}
	if got := countCandidates(points, 1, narrow); got != 1 {
		t.Fatalf("narrow region: %d candidates, want 1", got)
	}
}

// jumpingOracle moves a fake clock forward by jump just before its at-th
// question, putting a run under deadline pressure mid-dialogue.
type jumpingOracle struct {
	inner oracle.Oracle
	fake  *clock.Fake
	at    int
	jump  time.Duration
	asked int
}

func (o *jumpingOracle) Prefer(p, q geom.Vector) bool {
	o.asked++
	if o.asked == o.at {
		o.fake.Advance(o.jump)
	}
	return o.inner.Prefer(p, q)
}

func (o *jumpingOracle) Questions() int { return o.inner.Questions() }

// TestDegradedStopCadenceHonoured: once the ladder halves the stop-check
// cadence, every budgeted variant lists that step, and only that step, in
// its certificate and checks at most every other round from then on.
func TestDegradedStopCadenceHonoured(t *testing.T) {
	const k = 5
	rng := rand.New(rand.NewSource(42))
	ds := dataset.AntiCorrelated(rng, 400, 4)
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	u := geom.Vector{0.4, 0.3, 0.2, 0.1}
	const cadenceNote = "stop-check cadence halved under deadline pressure"

	type run func(o obs.Observer, user oracle.Oracle, b Budget) Certificate
	for _, c := range []struct {
		name string
		run  run
	}{
		{"rh", func(o obs.Observer, user oracle.Oracle, b Budget) Certificate {
			alg := NewRHDefault(5)
			alg.SetObserver(o)
			_, cert := alg.RunBudgeted(band, k, user, b)
			return cert
		}},
		{"hdpi", func(o obs.Observer, user oracle.Oracle, b Budget) Certificate {
			alg := NewHDPI(HDPIOptions{Mode: ConvexSampling, Rng: rand.New(rand.NewSource(5))})
			alg.SetObserver(o)
			_, cert := alg.RunBudgeted(band, k, user, b)
			return cert
		}},
		{"rh-multi", func(o obs.Observer, user oracle.Oracle, b Budget) Certificate {
			alg := NewRH(RHOptions{Rng: rand.New(rand.NewSource(5))})
			alg.SetObserver(o)
			_, cert := alg.RunMultiBudgeted(band, k, 2, user, b)
			return cert
		}},
		{"hdpi-multi", func(o obs.Observer, user oracle.Oracle, b Budget) Certificate {
			alg := NewHDPI(HDPIOptions{Mode: ConvexSampling, Rng: rand.New(rand.NewSource(5))})
			alg.SetObserver(o)
			_, cert := alg.RunMultiBudgeted(band, k, 2, user, b)
			return cert
		}},
		{"robust-hdpi", func(o obs.Observer, user oracle.Oracle, b Budget) Certificate {
			alg := NewRobustHDPI(HDPIOptions{Mode: ConvexSampling, Rng: rand.New(rand.NewSource(5))})
			alg.SetObserver(o)
			_, cert := alg.RunBudgeted(band, k, user, b)
			return cert
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			start := time.Unix(100, 0)
			fake := clock.NewFake(start)
			user := &jumpingOracle{inner: oracle.NewUser(u), fake: fake, at: 3, jump: 800 * time.Millisecond}
			var rec obs.Recorder
			cert := c.run(&rec, user, Budget{Deadline: start.Add(time.Second), Clock: fake})

			if !slices.Equal(cert.Degradations, []string{cadenceNote}) {
				t.Fatalf("certificate degradations %v, want only %q", cert.Degradations, cadenceNote)
			}
			var degraded bool
			var questions, checks int
			for _, e := range rec.Events() {
				switch {
				case e.Kind == obs.KindDegradationStep && e.Note == cadenceNote:
					degraded = true
				case !degraded:
				case e.Kind == obs.KindAnswerReceived:
					questions++
				case e.Kind == obs.KindStopConditionCheck:
					checks++
				}
			}
			if questions < 4 {
				t.Fatalf("only %d questions after the cadence step; the run proves nothing", questions)
			}
			// One check per two rounds, plus the round the step fell in and
			// the final, certifying check.
			if limit := questions/2 + 2; checks > limit {
				t.Errorf("%d stop checks over %d questions after the cadence step, want at most %d", checks, questions, limit)
			}
		})
	}
}
