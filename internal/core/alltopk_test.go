package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/oracle"
	"ist/internal/prep"
	"ist/internal/skyband"
)

func checkMulti(t *testing.T, name string, got []int, pts []geom.Vector, u geom.Vector, k, want int) {
	t.Helper()
	if len(got) != want {
		t.Fatalf("%s: returned %d points, want %d", name, len(got), want)
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatalf("%s: duplicate point %d in answer", name, i)
		}
		seen[i] = true
		if !oracle.IsTopK(pts, u, k, pts[i]) {
			t.Fatalf("%s: point %d not among the top-%d", name, i, k)
		}
	}
}

func TestRHMultiAllTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		d := 2 + rng.Intn(3)
		k := 2 + rng.Intn(5)
		ds := dataset.AntiCorrelated(rng, 80, d)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		alg := NewRH(RHOptions{Rng: rand.New(rand.NewSource(int64(trial)))})
		user := oracle.NewUser(u)
		got := alg.RunMulti(band, k, k, user)
		checkMulti(t, alg.Name(), got, band, u, k, k)
	}
}

func TestHDPIMultiAllTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 8; trial++ {
		d := 2 + rng.Intn(2)
		k := 2 + rng.Intn(4)
		ds := dataset.AntiCorrelated(rng, 60, d)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		alg := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(int64(trial)))})
		user := oracle.NewUser(u)
		got := alg.RunMulti(band, k, k, user)
		checkMulti(t, alg.Name(), got, band, u, k, k)
	}
}

func TestSomeTopKNeedsFewerQuestionsThanAll(t *testing.T) {
	// Section 6.5.2's core finding: returning 1 of the top-k asks far fewer
	// questions than returning all k.
	rng := rand.New(rand.NewSource(3))
	ds := dataset.AntiCorrelated(rng, 150, 3)
	k := 10
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	qFor := func(want int) int {
		total := 0
		for trial := 0; trial < 5; trial++ {
			u := oracle.RandomUtility(rng, 3)
			user := oracle.NewUser(u)
			alg := NewRH(RHOptions{Rng: rand.New(rand.NewSource(int64(trial)))})
			alg.RunMulti(band, k, want, user)
			total += user.Questions()
		}
		return total
	}
	q1, qAll := qFor(1), qFor(k)
	if q1 >= qAll {
		t.Fatalf("want=1 took %d questions, want=%d took %d; expected fewer", q1, k, qAll)
	}
}

// TestMultiWantOutOfRangePanics: every multi-answer entry point rejects a
// want outside [1, k] before it asks anything, budgeted or not.
func TestMultiWantOutOfRangePanics(t *testing.T) {
	const k = 2
	ds := dataset.Independent(rand.New(rand.NewSource(1)), 10, 2)
	user := oracle.NewUser(oracle.RandomUtility(rand.New(rand.NewSource(2)), 2))
	for _, alg := range []MultiAlgorithm{
		NewRH(RHOptions{Rng: rand.New(rand.NewSource(1))}),
		NewHDPI(HDPIOptions{Rng: rand.New(rand.NewSource(1))}),
	} {
		for _, want := range []int{0, k + 1} {
			for _, budgeted := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/want=%d/budgeted=%v", alg.Name(), want, budgeted), func(t *testing.T) {
					defer func() {
						if recover() == nil {
							t.Fatal("expected panic")
						}
						if n := user.Questions(); n != 0 {
							t.Fatalf("asked %d questions before panicking", n)
						}
					}()
					if budgeted {
						alg.RunMultiBudgeted(ds.Points, k, want, user, Budget{MaxQuestions: 8})
					} else {
						alg.RunMulti(ds.Points, k, want, user)
					}
				})
			}
		}
	}
}

func TestMultiWantOneMatchesSingle(t *testing.T) {
	// want=1 must deliver a valid single answer like the base algorithms;
	// for RH it is the single-answer run itself.
	rng := rand.New(rand.NewSource(4))
	ds := dataset.AntiCorrelated(rng, 80, 3)
	k := 5
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	u := oracle.RandomUtility(rng, 3)
	rh := NewRH(RHOptions{Rng: rand.New(rand.NewSource(7))}).RunMulti(band, k, 1, oracle.NewUser(u))
	for _, tc := range []struct {
		name string
		got  []int
	}{
		{"rh", rh},
		{"hdpi", NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(7))}).RunMulti(band, k, 1, oracle.NewUser(u))},
	} {
		if len(tc.got) != 1 {
			t.Fatalf("%s: got %v", tc.name, tc.got)
		}
		if !oracle.IsTopK(band, u, k, band[tc.got[0]]) {
			t.Fatalf("%s: point not top-%d", tc.name, k)
		}
	}
	if single := NewRH(RHOptions{Rng: rand.New(rand.NewSource(7))}).Run(band, k, oracle.NewUser(u)); rh[0] != single {
		t.Fatalf("rh: RunMulti(want 1) = %v, Run = %d", rh, single)
	}

	// For HD-PI, over the 32 dialogues of the pinned band (the 20-skyband
	// of a 2,000-tuple Car-like catalog, utility seeds 1001–1032, algorithm
	// seeds 1–32), the multi-answer entry points at want 1 are the
	// single-answer ones, unbudgeted and under a six-question budget,
	// result and certificate alike. The accurate runs share one prep cache,
	// so the exact convex-point scan runs once.
	const pinnedK = 20
	car := dataset.CarLike(rand.New(rand.NewSource(1)), 2000)
	band = skyband.Filter(car.Points, skyband.KSkyband(car.Points, pinnedK))
	cache := prep.New(0)
	six := Budget{MaxQuestions: 6}
	for _, mode := range []ConvexMode{ConvexSampling, ConvexExact} {
		for num := int64(1); num <= 32; num++ {
			u := oracle.RandomUtility(rand.New(rand.NewSource(1000+num)), len(band[0]))
			alg := func() *HDPI {
				a := NewHDPI(HDPIOptions{Mode: mode, Rng: rand.New(rand.NewSource(num))})
				a.SetPrepCache(cache, 1)
				return a
			}
			idx := alg().Run(band, pinnedK, oracle.NewUser(u))
			if got := alg().RunMulti(band, pinnedK, 1, oracle.NewUser(u)); len(got) != 1 || got[0] != idx {
				t.Errorf("%s dialogue %d: RunMulti(want 1) = %v, Run = %d", mode, num, got, idx)
			}
			idx, cert := alg().RunBudgeted(band, pinnedK, oracle.NewUser(u), six)
			got, mcert := alg().RunMultiBudgeted(band, pinnedK, 1, oracle.NewUser(u), six)
			cert.Elapsed, mcert.Elapsed = 0, 0
			if len(got) != 1 || got[0] != idx || !reflect.DeepEqual(mcert, cert) {
				t.Errorf("%s dialogue %d under %+v: RunMultiBudgeted(want 1) = %v %+v, RunBudgeted = %d %+v", mode, num, six, got, mcert, idx, cert)
			}
		}
	}
}

// TestHDPIEmptiedAnswersAtLastProbe: in this dialogue a noisy user's
// answers (error 0.3) empty HD-PI's partition set at the fifth question.
// The multi-answer run then answers the top-want at its last probe,
// uncertified, as the single-answer run does; the uniform utility's top-4
// would be another set.
func TestHDPIEmptiedAnswersAtLastProbe(t *testing.T) {
	const k, want = 4, 4
	rng := rand.New(rand.NewSource(79))
	ds := dataset.AntiCorrelated(rng, 60, 3)
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	u := oracle.RandomUtility(rng, 3)
	for _, mode := range []ConvexMode{ConvexSampling, ConvexExact} {
		a := NewHDPI(HDPIOptions{Mode: mode, Rng: rand.New(rand.NewSource(79))})
		tr := newTracker(Budget{}, nil)
		user := oracle.NewNoisyUser(u, 0.3, rand.New(rand.NewSource(179)))
		got := a.run(band, k, want, user, tr)
		if cert := tr.certificate(band, k); cert.Certified || cert.Reason != StopDegenerate || cert.Questions != 5 {
			t.Fatalf("%s: certificate %+v, want an uncertified %s exit after 5 questions", mode, cert, StopDegenerate)
		}
		if atProbe := oracle.TopK(band, tr.lastU, want); !slices.Equal(got, atProbe) {
			t.Fatalf("%s: answered %v, want the top-%d at the last probe %v", mode, got, want, atProbe)
		}
		if uniform := oracle.TopK(band, uniformUtility(3), want); slices.Equal(got, uniform) {
			t.Fatalf("%s: answered %v, the uniform utility's top-%d", mode, got, want)
		}
	}
}
