package baseline

import (
	"math/rand"
	"testing"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/oracle"
	"ist/internal/skyband"
)

var paperPoints = []geom.Vector{
	{0, 1}, {0.3, 0.7}, {0.5, 0.8}, {0.7, 0.4}, {1, 0},
}

func TestMedianFindsTop1(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 40; trial++ {
		n := 10 + rng.Intn(100)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.Float64(), rng.Float64()}
		}
		u := oracle.RandomUtility(rng, 2)
		for _, alg := range []interface {
			Name() string
			Run([]geom.Vector, int, oracle.Oracle) int
		}{Median{}, Hull{}} {
			user := oracle.NewUser(u)
			got := alg.Run(pts, 1, user)
			if !oracle.IsTopK(pts, u, 1, pts[got]) {
				t.Fatalf("trial %d: %s returned non-top-1", trial, alg.Name())
			}
		}
	}
}

func TestMedianPaperExample(t *testing.T) {
	u := geom.Vector{0.4, 0.6}
	user := oracle.NewUser(u)
	got := Median{}.Run(paperPoints, 1, user)
	if got != 2 { // p3 is the top-1 at u=(0.4,0.6)
		t.Fatalf("Median returned p%d, want p3", got+1)
	}
}

func TestAdapt2DCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		n := 20 + rng.Intn(80)
		k := 1 + rng.Intn(8)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.Float64(), rng.Float64()}
		}
		band := skyband.Filter(pts, skyband.KSkyband(pts, k))
		u := oracle.RandomUtility(rng, 2)
		for _, alg := range []interface {
			Name() string
			Run([]geom.Vector, int, oracle.Oracle) int
		}{MedianAdapt{}, HullAdapt{}} {
			user := oracle.NewUser(u)
			got := alg.Run(band, k, user)
			if !oracle.IsTopK(band, u, k, band[got]) {
				t.Fatalf("trial %d: %s returned non-top-%d", trial, alg.Name(), k)
			}
		}
	}
}

func TestUHVariantsCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(3)
		n := 30 + rng.Intn(70)
		k := 1 + rng.Intn(6)
		ds := dataset.AntiCorrelated(rng, n, d)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		eps := oracle.EpsilonForTopK(band, u, k)
		for _, alg := range []*UH{
			{Simplex: false, Eps: eps, Rng: rand.New(rand.NewSource(int64(trial)))},
			{Simplex: true, Eps: eps, Rng: rand.New(rand.NewSource(int64(trial)))},
			{Simplex: false, Adapt: true, Rng: rand.New(rand.NewSource(int64(trial)))},
			{Simplex: true, Adapt: true, Rng: rand.New(rand.NewSource(int64(trial)))},
		} {
			user := oracle.NewUser(u)
			got := alg.Run(band, k, user)
			if !oracle.IsTopK(band, u, k, band[got]) {
				t.Fatalf("trial %d: %s returned non-top-%d after %d questions",
					trial, alg.Name(), k, user.Questions())
			}
		}
	}
}

func TestUHNames(t *testing.T) {
	cases := map[string]*UH{
		"UH-Random":        {},
		"UH-Simplex":       {Simplex: true},
		"UH-Random-Adapt":  {Adapt: true},
		"UH-Simplex-Adapt": {Simplex: true, Adapt: true},
	}
	for want, alg := range cases {
		if alg.Name() != want {
			t.Errorf("Name = %q, want %q", alg.Name(), want)
		}
	}
}

func TestUtilityApproxCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	ok, total := 0, 0
	for trial := 0; trial < 25; trial++ {
		d := 2 + rng.Intn(3)
		n := 30 + rng.Intn(70)
		k := 2 + rng.Intn(6)
		ds := dataset.AntiCorrelated(rng, n, d)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		eps := oracle.EpsilonForTopK(band, u, k)
		alg := &UtilityApprox{Eps: eps}
		user := oracle.NewUser(u)
		got := alg.Run(band, k, user)
		total++
		if oracle.IsTopK(band, u, k, band[got]) {
			ok++
		}
	}
	// UtilityApprox's fake-point questions only bound ratios against
	// dimension 1; the centre estimate is approximate, so allow a small
	// failure rate (the paper's own adaptation has the same property).
	if float64(ok)/float64(total) < 0.8 {
		t.Fatalf("UtilityApprox accuracy %d/%d too low", ok, total)
	}
}

func TestUtilityApproxUsesFakePointsOnly(t *testing.T) {
	// Every question must present axis-aligned fake points, not dataset
	// points.
	rng := rand.New(rand.NewSource(5))
	ds := dataset.AntiCorrelated(rng, 50, 3)
	u := oracle.RandomUtility(rng, 3)
	rec := &recordingOracle{inner: oracle.NewUser(u)}
	(&UtilityApprox{Eps: 0.05}).Run(ds.Points, 3, rec)
	if len(rec.asked) == 0 {
		t.Skip("no questions needed")
	}
	for _, q := range rec.asked {
		for _, p := range [2]geom.Vector{q[0], q[1]} {
			nonzero := 0
			for _, x := range p {
				if x != 0 {
					nonzero++
				}
			}
			if nonzero > 1 {
				t.Fatalf("non-axis-aligned question point %v", p)
			}
		}
	}
}

type recordingOracle struct {
	inner oracle.Oracle
	asked [][2]geom.Vector
}

func (r *recordingOracle) Prefer(p, q geom.Vector) bool {
	r.asked = append(r.asked, [2]geom.Vector{p.Clone(), q.Clone()})
	return r.inner.Prefer(p, q)
}
func (r *recordingOracle) Questions() int { return r.inner.Questions() }

func TestPreferenceLearningCorrectness(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	ok, total := 0, 0
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(2)
		n := 30 + rng.Intn(50)
		k := 3 + rng.Intn(5)
		ds := dataset.AntiCorrelated(rng, n, d)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		alg := &PreferenceLearning{Rng: rand.New(rand.NewSource(int64(trial)))}
		user := oracle.NewUser(u)
		got := alg.Run(band, k, user)
		total++
		if oracle.IsTopK(band, u, k, band[got]) {
			ok++
		}
		if user.Questions() == 0 && len(band) > 2 {
			t.Fatalf("trial %d: PL asked no questions", trial)
		}
	}
	if float64(ok)/float64(total) < 0.85 {
		t.Fatalf("Preference-Learning accuracy %d/%d too low", ok, total)
	}
}

func TestPreferenceLearningValidateStopsEarlier(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	ds := dataset.AntiCorrelated(rng, 120, 4)
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, 10))
	qPlain, qValidate := 0, 0
	trials := 5
	for trial := 0; trial < trials; trial++ {
		u := oracle.RandomUtility(rng, 4)
		up, uv := oracle.NewUser(u), oracle.NewUser(u)
		(&PreferenceLearning{Rng: rand.New(rand.NewSource(int64(trial)))}).Run(band, 10, up)
		(&PreferenceLearning{Validate: true, Rng: rand.New(rand.NewSource(int64(trial)))}).Run(band, 10, uv)
		qPlain += up.Questions()
		qValidate += uv.Questions()
	}
	if qValidate >= qPlain {
		t.Fatalf("validated PL asked %d questions vs %d plain; expected fewer", qValidate, qPlain)
	}
}

func TestActiveRankingFullRanking(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 15; trial++ {
		d := 2 + rng.Intn(3)
		n := 10 + rng.Intn(30)
		ds := dataset.Independent(rng, n, d)
		u := oracle.RandomUtility(rng, d)
		alg := &ActiveRanking{Rng: rand.New(rand.NewSource(int64(trial)))}
		user := oracle.NewUser(u)
		ranking := alg.Ranking(ds.Points, user)
		if len(ranking) != n {
			t.Fatalf("trial %d: ranking has %d entries, want %d", trial, len(ranking), n)
		}
		if !RankingMatches(ds.Points, ranking, u) {
			t.Fatalf("trial %d: derived ranking inconsistent with the utility", trial)
		}
		// The implication machinery must save questions vs naive sorting
		// (n·log n comparisons); allow generous slack.
		if user.Questions() > n*(n-1)/2 {
			t.Fatalf("trial %d: %d questions for n=%d", trial, user.Questions(), n)
		}
	}
}

func TestActiveRankingRunReturnsTop1(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	ds := dataset.Independent(rng, 40, 3)
	u := oracle.RandomUtility(rng, 3)
	alg := &ActiveRanking{Rng: rand.New(rand.NewSource(1))}
	got := alg.Run(ds.Points, 5, oracle.NewUser(u))
	if !oracle.IsTopK(ds.Points, u, 1, ds.Points[got]) {
		t.Fatal("Active-Ranking Run must return the top-1")
	}
}

func TestActiveRankingDuplicates(t *testing.T) {
	pts := []geom.Vector{{0.5, 0.5}, {0.5, 0.5}, {0.9, 0.1}, {0.1, 0.9}}
	u := geom.Vector{0.5, 0.5}
	alg := &ActiveRanking{Rng: rand.New(rand.NewSource(1))}
	ranking := alg.Ranking(pts, oracle.NewUser(u))
	if len(ranking) != 4 {
		t.Fatalf("ranking %v", ranking)
	}
	if !RankingMatches(pts, ranking, u) {
		t.Fatal("duplicate handling broke the ranking")
	}
}

// The paper's central comparison: IST-aware algorithms must ask fewer
// questions than full-ranking Active-Ranking on the same input.
func TestActiveRankingAsksMoreThanUH(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	ds := dataset.AntiCorrelated(rng, 100, 3)
	k := 10
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	arQ, uhQ := 0, 0
	for trial := 0; trial < 5; trial++ {
		u := oracle.RandomUtility(rng, 3)
		ua, ub := oracle.NewUser(u), oracle.NewUser(u)
		(&ActiveRanking{Rng: rand.New(rand.NewSource(int64(trial)))}).Run(band, k, ua)
		(&UH{Adapt: true, Rng: rand.New(rand.NewSource(int64(trial)))}).Run(band, k, ub)
		arQ += ua.Questions()
		uhQ += ub.Questions()
	}
	if arQ <= uhQ {
		t.Fatalf("Active-Ranking %d questions vs UH-Adapt %d; expected more", arQ, uhQ)
	}
}

func TestUHEpsilonZeroGuaranteesTopK(t *testing.T) {
	// The Section 6.4 re-adaptation: ε = 0 means UH stops only when the
	// answer is certain, guaranteeing a top-k (in fact top-1-regret-free)
	// point without peeking at the hidden utility.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 8; trial++ {
		d := 2 + rng.Intn(2)
		ds := dataset.AntiCorrelated(rng, 60, d)
		k := 1 + rng.Intn(5)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		alg := &UH{Eps: 0, Rng: rand.New(rand.NewSource(int64(trial)))}
		got := alg.Run(band, k, oracle.NewUser(u))
		if !oracle.IsTopK(band, u, 1, band[got]) {
			t.Fatalf("trial %d: eps=0 UH returned non-top-1", trial)
		}
	}
}

func TestMedianAdaptFewCandidates(t *testing.T) {
	// When k >= the candidate count, the adapted algorithms stop with zero
	// questions (everything is trivially top-k).
	pts := []geom.Vector{{0.9, 0.1}, {0.1, 0.9}, {0.6, 0.6}}
	u := oracle.RandomUtility(rand.New(rand.NewSource(1)), 2)
	for _, alg := range []interface {
		Name() string
		Run([]geom.Vector, int, oracle.Oracle) int
	}{MedianAdapt{}, HullAdapt{}} {
		user := oracle.NewUser(u)
		got := alg.Run(pts, 3, user)
		if user.Questions() != 0 {
			t.Fatalf("%s asked %d questions with k=n", alg.Name(), user.Questions())
		}
		if got < 0 || got > 2 {
			t.Fatalf("%s returned %d", alg.Name(), got)
		}
	}
}

func TestPreferenceLearningDeterministicSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	ds := dataset.AntiCorrelated(rng, 80, 3)
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, 5))
	u := oracle.RandomUtility(rng, 3)
	run := func() (int, int) {
		alg := &PreferenceLearning{Rng: rand.New(rand.NewSource(99))}
		user := oracle.NewUser(u)
		return alg.Run(band, 5, user), user.Questions()
	}
	i1, q1 := run()
	i2, q2 := run()
	if i1 != i2 || q1 != q2 {
		t.Fatalf("PL not deterministic: (%d,%d) vs (%d,%d)", i1, q1, i2, q2)
	}
}

func TestActiveRankingImpliedComparisonsSaveQuestions(t *testing.T) {
	// The implication machinery is the point of Active-Ranking: the asked
	// questions must be well under the n·log n comparisons a plain sort
	// performs.
	rng := rand.New(rand.NewSource(13))
	ds := dataset.Independent(rng, 120, 3)
	u := oracle.RandomUtility(rng, 3)
	alg := &ActiveRanking{Rng: rand.New(rand.NewSource(2))}
	user := oracle.NewUser(u)
	alg.Ranking(ds.Points, user)
	nLogN := 120 * 7 // n * ceil(log2(n))
	if user.Questions() >= nLogN {
		t.Fatalf("asked %d questions, plain sort would use ~%d — implications saved nothing",
			user.Questions(), nLogN)
	}
}
