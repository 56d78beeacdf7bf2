package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/oracle"
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
		alg := NewRH(RHOptions{Rng: rand.New(rand.NewSource(int64(trial))), UseBall: true})
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
		alg := NewHDPIMulti(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(int64(trial)))})
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
		NewHDPIMulti(HDPIOptions{Rng: rand.New(rand.NewSource(1))}),
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
		{"hdpi", NewHDPIMulti(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(7))}).RunMulti(band, k, 1, oracle.NewUser(u))},
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
}
