package core

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/skyband"
)

// recordingOracle wraps a simulated user and logs every question put to it
// (both points and the verdict) so two runs can be compared transcript by
// transcript.
type recordingOracle struct {
	inner oracle.Oracle
	log   []recordedQuestion
}

type recordedQuestion struct {
	P, Q    geom.Vector
	Answer  bool
	Ordinal int
}

func (r *recordingOracle) Prefer(p, q geom.Vector) bool {
	ans := r.inner.Prefer(p, q)
	r.log = append(r.log, recordedQuestion{
		P:       append(geom.Vector(nil), p...),
		Q:       append(geom.Vector(nil), q...),
		Answer:  ans,
		Ordinal: len(r.log),
	})
	return ans
}

func (r *recordingOracle) Questions() int { return r.inner.Questions() }

// countKind counts the recorded events of one kind.
func countKind(r *obs.Recorder, kind obs.EventKind) int64 {
	var n int64
	for _, e := range r.Events() {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// sumKind totals the Count field over the recorded events of one kind.
func sumKind(r *obs.Recorder, kind obs.EventKind) int64 {
	var n int64
	for _, e := range r.Events() {
		if e.Kind == kind {
			n += int64(e.Count)
		}
	}
	return n
}

// observedCase is one instrumented algorithm variant under test. run builds
// a fresh algorithm (same seed every call), attaches the observer, and
// returns the result indices.
type observedCase struct {
	name string
	d    int
	run  func(o obs.Observer, band []geom.Vector, k int, user oracle.Oracle) []int
}

func observedCases() []observedCase {
	return []observedCase{
		{"2dpi", 2, func(o obs.Observer, band []geom.Vector, k int, user oracle.Oracle) []int {
			alg := &TwoDPI{}
			alg.SetObserver(o)
			return []int{alg.Run(band, k, user)}
		}},
		{"hdpi-sampling", 3, func(o obs.Observer, band []geom.Vector, k int, user oracle.Oracle) []int {
			alg := NewHDPI(HDPIOptions{Mode: ConvexSampling, Rng: rand.New(rand.NewSource(9))})
			alg.SetObserver(o)
			return []int{alg.Run(band, k, user)}
		}},
		{"hdpi-accurate", 3, func(o obs.Observer, band []geom.Vector, k int, user oracle.Oracle) []int {
			alg := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(9))})
			alg.SetObserver(o)
			return []int{alg.Run(band, k, user)}
		}},
		{"rh", 3, func(o obs.Observer, band []geom.Vector, k int, user oracle.Oracle) []int {
			alg := NewRHDefault(5)
			alg.SetObserver(o)
			return []int{alg.Run(band, k, user)}
		}},
		{"robust-hdpi", 3, func(o obs.Observer, band []geom.Vector, k int, user oracle.Oracle) []int {
			alg := NewRobustHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(3))})
			alg.SetObserver(o)
			return []int{alg.Run(band, k, user)}
		}},
		{"rh-multi", 3, func(o obs.Observer, band []geom.Vector, k int, user oracle.Oracle) []int {
			alg := NewRH(RHOptions{Rng: rand.New(rand.NewSource(5))})
			alg.SetObserver(o)
			return alg.RunMulti(band, k, 2, user)
		}},
		{"hdpi-multi", 3, func(o obs.Observer, band []geom.Vector, k int, user oracle.Oracle) []int {
			alg := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(5))})
			alg.SetObserver(o)
			return alg.RunMulti(band, k, 2, user)
		}},
	}
}

// TestNilObserverTranscripts is the tentpole guarantee of the observability
// layer: attaching an observer is passive. For every algorithm variant, a
// run with a counting observer must produce the exact same question
// transcript (questions, order, answers) and the same result as a run with
// a nil observer — proving instrumentation changes no control flow and
// consumes no randomness.
func TestNilObserverTranscripts(t *testing.T) {
	k := 4
	u3 := geom.Vector{0.5, 0.3, 0.2}
	u2 := geom.Vector{0.4, 0.6}
	for _, c := range observedCases() {
		t.Run(c.name, func(t *testing.T) {
			u := u3
			if c.d == 2 {
				u = u2
			}
			rng := rand.New(rand.NewSource(42))
			ds := dataset.AntiCorrelated(rng, 120, c.d)
			band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))

			plain := &recordingOracle{inner: oracle.NewUser(u)}
			plainRes := c.run(nil, band, k, plain)

			counting := &obs.Recorder{}
			observed := &recordingOracle{inner: oracle.NewUser(u)}
			observedRes := c.run(counting, band, k, observed)

			if !reflect.DeepEqual(plainRes, observedRes) {
				t.Fatalf("results diverge: nil=%v observed=%v", plainRes, observedRes)
			}
			if !reflect.DeepEqual(plain.log, observed.log) {
				t.Fatalf("transcripts diverge after %d vs %d questions", len(plain.log), len(observed.log))
			}
			if got := countKind(counting, obs.KindAnswerReceived); got != int64(len(observed.log)) {
				t.Fatalf("observer saw %d answers, oracle answered %d", got, len(observed.log))
			}
			if got := countKind(counting, obs.KindQuestionAsked); got != int64(len(observed.log)) {
				t.Fatalf("observer saw %d questions, oracle answered %d", got, len(observed.log))
			}
		})
	}
}

// TestObserverCountsSanity spot-checks that the per-algorithm event streams
// carry the work the algorithms actually do: RH cuts its polytope per
// answer, HD-PI prunes partitions, and accurate mode runs LPs.
func TestObserverCountsSanity(t *testing.T) {
	k := 4
	rng := rand.New(rand.NewSource(42))
	ds := dataset.AntiCorrelated(rng, 120, 3)
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	u := geom.Vector{0.5, 0.3, 0.2}

	rhC := &obs.Recorder{}
	rh := NewRHDefault(5)
	rh.SetObserver(rhC)
	rh.Run(band, k, oracle.NewUser(u))
	if countKind(rhC, obs.KindAnswerReceived) == 0 {
		t.Fatal("RH asked no questions")
	}
	if countKind(rhC, obs.KindHalfspaceCut) == 0 {
		t.Fatal("RH cut no halfspaces")
	}
	if countKind(rhC, obs.KindStopConditionCheck) == 0 {
		t.Fatal("RH checked no stop condition")
	}

	hdC := &obs.Recorder{}
	hd := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(9))})
	hd.SetObserver(hdC)
	hd.Run(band, k, oracle.NewUser(u))
	if sumKind(hdC, obs.KindCandidatePruned) == 0 {
		t.Fatal("HD-PI pruned no candidates")
	}
	if countKind(hdC, obs.KindLPSolve) == 0 {
		t.Fatal("accurate HD-PI ran no LPs")
	}
	if countKind(hdC, obs.KindConvexPointTest) == 0 {
		t.Fatal("accurate HD-PI reported no convex-point tests")
	}
}

// tickingOracle advances a fake clock by one second per question, so tests
// can pin clock-derived certificate fields exactly.
type tickingOracle struct {
	inner oracle.Oracle
	fake  *clock.Fake
}

func (o tickingOracle) Prefer(p, q geom.Vector) bool {
	o.fake.Advance(time.Second)
	return o.inner.Prefer(p, q)
}

func (o tickingOracle) Questions() int { return o.inner.Questions() }

// TestCertificateElapsed pins the clock-measured Elapsed field on a fake
// clock: each question advances the fake by one second and nothing else
// moves it, so the certificate must report exactly the questions asked,
// in seconds.
func TestCertificateElapsed(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	ds := dataset.AntiCorrelated(rng, 120, 3)
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, 4))
	fake := clock.NewFake(time.Unix(500, 0))
	alg := NewRHDefault(5)
	user := tickingOracle{inner: oracle.NewUser(geom.Vector{0.5, 0.3, 0.2}), fake: fake}
	_, cert := alg.RunBudgeted(band, 4, user, Budget{MaxQuestions: 2, Clock: fake})
	want := time.Duration(cert.Questions) * time.Second
	if cert.Questions == 0 || cert.Elapsed != want {
		t.Fatalf("Elapsed = %v after %d questions, want %v", cert.Elapsed, cert.Questions, want)
	}
}
