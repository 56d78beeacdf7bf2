package baseline

import (
	"math/rand"
	"testing"

	"ist/internal/dataset"
	"ist/internal/oracle"
	"ist/internal/skyband"
)

func TestSortingUHCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 12; trial++ {
		d := 2 + rng.Intn(3)
		n := 40 + rng.Intn(60)
		k := 1 + rng.Intn(6)
		ds := dataset.AntiCorrelated(rng, n, d)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		eps := oracle.EpsilonForTopK(band, u, k)
		for _, alg := range []*SortingUH{
			{Eps: eps, Rng: rand.New(rand.NewSource(int64(trial)))},
			{Simplex: true, Eps: eps, Rng: rand.New(rand.NewSource(int64(trial)))},
			{Adapt: true, Rng: rand.New(rand.NewSource(int64(trial)))},
		} {
			user := oracle.NewUser(u)
			got := alg.Run(band, k, user)
			if !oracle.IsTopK(band, u, k, band[got]) {
				t.Fatalf("trial %d: %s returned non-top-%d", trial, alg.Name(), k)
			}
			if alg.DisplayRounds() > 0 && user.Questions() == 0 {
				t.Fatalf("%s reported display rounds without pairwise questions", alg.Name())
			}
		}
	}
}

func TestSortingFewerDisplayRoundsThanUHQuestions(t *testing.T) {
	// [40]'s selling point: fewer display interactions than UH has pairwise
	// questions — but (the paper's counterpoint) the underlying pairwise
	// effort is NOT smaller.
	rng := rand.New(rand.NewSource(2))
	ds := dataset.AntiCorrelated(rng, 200, 3)
	k := 5
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	trials := 8
	var sortRounds, sortPairwise, uhQuestions int
	for trial := 0; trial < trials; trial++ {
		u := oracle.RandomUtility(rng, 3)
		eps := oracle.EpsilonForTopK(band, u, k)

		su := oracle.NewUser(u)
		sorting := &SortingUH{Eps: eps, DisplaySize: 4, Rng: rand.New(rand.NewSource(int64(trial)))}
		sorting.Run(band, k, su)
		sortRounds += sorting.DisplayRounds()
		sortPairwise += su.Questions()

		uu := oracle.NewUser(u)
		(&UH{Eps: eps, Rng: rand.New(rand.NewSource(int64(trial)))}).Run(band, k, uu)
		uhQuestions += uu.Questions()
	}
	if sortRounds >= uhQuestions {
		t.Fatalf("sorting display rounds %d >= UH questions %d; sorting should need fewer rounds",
			sortRounds, uhQuestions)
	}
	if sortPairwise < sortRounds {
		t.Fatalf("pairwise effort %d below display rounds %d — impossible", sortPairwise, sortRounds)
	}
}

func TestSortingDisplaySizeTwoDegeneratesToUH(t *testing.T) {
	// With s=2 a sorting round is exactly one pairwise question.
	rng := rand.New(rand.NewSource(3))
	ds := dataset.AntiCorrelated(rng, 100, 3)
	k := 3
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	u := oracle.RandomUtility(rng, 3)
	user := oracle.NewUser(u)
	alg := &SortingUH{Eps: oracle.EpsilonForTopK(band, u, k), DisplaySize: 2, Rng: rand.New(rand.NewSource(1))}
	got := alg.Run(band, k, user)
	if !oracle.IsTopK(band, u, k, band[got]) {
		t.Fatal("s=2 run incorrect")
	}
	if user.Questions() != alg.DisplayRounds() {
		t.Fatalf("s=2: questions %d != display rounds %d", user.Questions(), alg.DisplayRounds())
	}
}

func TestSortingNames(t *testing.T) {
	cases := map[string]*SortingUH{
		"Sorting-Random":        {},
		"Sorting-Simplex":       {Simplex: true},
		"Sorting-Random-Adapt":  {Adapt: true},
		"Sorting-Simplex-Adapt": {Simplex: true, Adapt: true},
	}
	for want, alg := range cases {
		if alg.Name() != want {
			t.Errorf("Name = %q, want %q", alg.Name(), want)
		}
	}
}
