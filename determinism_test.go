package ist

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"ist/internal/clock"
	"ist/internal/lp"
	"ist/internal/obs"
)

// This file is the facade-level determinism regression suite for the shared
// preprocessing cache (DESIGN.md §14.2): in cold and warm cache states, with
// and without a question budget, the full interactive transcript — every
// question, the result, the question count — and the complete observer event
// stream must be bit-identical to the uncached run.

// runTranscript drives alg through a full session against hidden, capturing
// the question transcript and the raw event stream.
type runRecord struct {
	Questions [][2]Point
	Index     int
	Count     int
	Certified bool
	Events    []obs.Event
}

func freezeLPClockFacade(t *testing.T) {
	t.Helper()
	lp.SetClock(clock.NewFake(time.Unix(0, 0)))
	t.Cleanup(func() { lp.SetClock(nil) })
}

func runTranscript(t *testing.T, alg Algorithm, band []Point, k int, hidden Point, maxQ int) runRecord {
	t.Helper()
	rec := &obs.Recorder{}
	opts := []SessionOption{WithObserver(rec)}
	if maxQ > 0 {
		opts = append(opts, WithMaxQuestions(maxQ))
	}
	s := NewSessionContext(nil, alg, band, k, opts...)
	defer s.Close()
	var r runRecord
	for steps := 0; ; steps++ {
		if steps > 10000 {
			t.Fatal("session never finished")
		}
		p, q, done := s.Next()
		if done {
			break
		}
		r.Questions = append(r.Questions, [2]Point{p, q})
		if err := s.Answer(hidden.Dot(p) >= hidden.Dot(q)); err != nil {
			t.Fatal(err)
		}
	}
	_, idx, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	r.Index = idx
	r.Count = s.Questions()
	if cert, ok := s.Certificate(); ok {
		r.Certified = cert.Certified
	}
	r.Events = append([]obs.Event(nil), rec.Events()...)
	return r
}

func sameRun(t *testing.T, name string, want, got runRecord) {
	t.Helper()
	if !reflect.DeepEqual(want.Questions, got.Questions) {
		t.Fatalf("%s: question transcript diverges (%d vs %d questions)", name, len(got.Questions), len(want.Questions))
	}
	if want.Index != got.Index || want.Count != got.Count || want.Certified != got.Certified {
		t.Fatalf("%s: outcome diverges: got (%d, %dq, cert=%v) want (%d, %dq, cert=%v)",
			name, got.Index, got.Count, got.Certified, want.Index, want.Count, want.Certified)
	}
	if !reflect.DeepEqual(want.Events, got.Events) {
		n := len(got.Events)
		if len(want.Events) < n {
			n = len(want.Events)
		}
		at := n
		for i := 0; i < n; i++ {
			if want.Events[i] != got.Events[i] {
				at = i
				break
			}
		}
		t.Fatalf("%s: event streams diverge at event %d (%d vs %d events)",
			name, at, len(got.Events), len(want.Events))
	}
}

// TestPrepCacheTranscriptInvariant checks the cache's taping contract at the
// facade: a cold populate and a warm hit must both be indistinguishable from
// an uncached run, and budgeted runs (which may only Lookup, never populate)
// must be indistinguishable whether they hit or miss the cache.
func TestPrepCacheTranscriptInvariant(t *testing.T) {
	freezeLPClockFacade(t)
	rng := rand.New(rand.NewSource(17))
	ds := AntiCorrelated(rng, 300, 5)
	k := 3
	band := Preprocess(ds.Points, k)
	hidden := RandomUtility(rng, 5)

	want := runTranscript(t, NewHDPIAccurate(5), band, k, hidden, 0)

	cache := NewPreprocessCache(0)
	cold := NewHDPIAccurate(5)
	if !UsePreprocessCache(cold, cache, band, k) {
		t.Fatal("hdpi-accurate should accept a preprocessing cache")
	}
	sameRun(t, "cold populate", want, runTranscript(t, cold, band, k, hidden, 0))
	if s := cache.Stats(); s.Misses == 0 {
		t.Fatal("cold run did not populate the cache")
	}

	warm := NewHDPIAccurate(5)
	UsePreprocessCache(warm, cache, band, k)
	sameRun(t, "warm hit", want, runTranscript(t, warm, band, k, hidden, 0))
	if s := cache.Stats(); s.Hits == 0 {
		t.Fatal("warm run did not hit the cache")
	}

	// Budgeted: compare uncached vs cached (warm) vs cached (cold,
	// where Lookup misses and the run computes locally without populating).
	budget := 5
	wantB := runTranscript(t, NewHDPIAccurate(5), band, k, hidden, budget)
	warmB := NewHDPIAccurate(5)
	UsePreprocessCache(warmB, cache, band, k)
	sameRun(t, "budget warm", wantB, runTranscript(t, warmB, band, k, hidden, budget))

	fresh := NewPreprocessCache(0)
	coldB := NewHDPIAccurate(5)
	UsePreprocessCache(coldB, fresh, band, k)
	sameRun(t, "budget cold", wantB, runTranscript(t, coldB, band, k, hidden, budget))
	if s := fresh.Stats(); s.Entries != 0 {
		t.Fatalf("budgeted run populated the cache (%d entries) — a mid-scan stop could poison it", s.Entries)
	}
}

// TestPreprocessCachedMatchesPreprocess checks the skyband entry point.
func TestPreprocessCachedMatchesPreprocess(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	ds := AntiCorrelated(rng, 400, 4)
	k := 5
	want := Preprocess(ds.Points, k)

	cache := NewPreprocessCache(0)
	cold := PreprocessCached(cache, ds.Points, k)
	warm := PreprocessCached(cache, ds.Points, k)
	if !reflect.DeepEqual(want, cold) || !reflect.DeepEqual(want, warm) {
		t.Fatal("cached skyband diverges from Preprocess")
	}
	if s := cache.Stats(); s.Hits == 0 || s.Misses == 0 {
		t.Fatalf("unexpected cache stats %+v", s)
	}
	// Each call owns its band: reordering one caller's band cannot disturb
	// another's.
	cold[0], cold[1] = cold[1], cold[0]
	again := PreprocessCached(cache, ds.Points, k)
	if !reflect.DeepEqual(want, again) {
		t.Fatal("mutating a returned band's slice corrupted the cache")
	}
}
