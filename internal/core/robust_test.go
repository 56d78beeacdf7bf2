package core

import (
	"math"
	"math/rand"
	"testing"

	"ist/internal/dataset"
	"ist/internal/oracle"
	"ist/internal/polytope"
	"ist/internal/skyband"
)

func TestRobustHDPITruthfulUser(t *testing.T) {
	// With a truthful user RobustHDPI must be correct like HD-PI
	// (top-1 accuracy measured exactly; top-k membership checked).
	rng := rand.New(rand.NewSource(1))
	ok, total := 0, 0
	for trial := 0; trial < 20; trial++ {
		d := 2 + rng.Intn(3)
		n := 50 + rng.Intn(100)
		k := 1 + rng.Intn(8)
		ds := dataset.AntiCorrelated(rng, n, d)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		alg := NewRobustHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(int64(trial)))})
		got := alg.Run(band, k, oracle.NewUser(u))
		total++
		if oracle.IsTopK(band, u, k, band[got]) {
			ok++
		}
	}
	// The weighted scheme stops at a confidence threshold, not a proof, so
	// tolerate a small slack even without noise.
	if float64(ok)/float64(total) < 0.9 {
		t.Fatalf("truthful-user accuracy %d/%d too low", ok, total)
	}
}

func TestRobustHDPIBeatsPlainUnderNoise(t *testing.T) {
	// The point of the extension: under a 25% error rate, the robust
	// variant should return top-k points more often than plain HD-PI.
	rng := rand.New(rand.NewSource(2))
	ds := dataset.AntiCorrelated(rng, 200, 3)
	k := 5
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	trials := 40
	robustOK, plainOK := 0, 0
	for trial := 0; trial < trials; trial++ {
		u := oracle.RandomUtility(rng, 3)
		seed := int64(trial)

		noisy1 := oracle.NewNoisyUser(u, 0.25, rand.New(rand.NewSource(seed)))
		r := NewRobustHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(seed))})
		if oracle.IsTopK(band, u, k, band[r.Run(band, k, noisy1)]) {
			robustOK++
		}

		noisy2 := oracle.NewNoisyUser(u, 0.25, rand.New(rand.NewSource(seed)))
		p := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(seed))})
		if oracle.IsTopK(band, u, k, band[p.Run(band, k, noisy2)]) {
			plainOK++
		}
	}
	if robustOK <= plainOK {
		t.Fatalf("robust %d/%d vs plain %d/%d under noise; expected robust better",
			robustOK, trials, plainOK, trials)
	}
}

// TestRobustHDPIQuestionBudget: a Budget caps a noisy dialogue, and without
// one the algorithm's own cap of 16 + 4·⌈log₂|C|⌉ questions holds.
func TestRobustHDPIQuestionBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	ds := dataset.AntiCorrelated(rng, 150, 3)
	k := 5
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	u := oracle.RandomUtility(rng, 3)
	newAlg := func() *RobustHDPI {
		return NewRobustHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(1))})
	}

	user := oracle.NewNoisyUser(u, 0.3, rng)
	_, cert := newAlg().RunBudgeted(band, k, user, Budget{MaxQuestions: 7})
	if user.Questions() > 7 {
		t.Fatalf("asked %d questions, budget 7", user.Questions())
	}
	if cert.Reason != StopQuestions || cert.Certified {
		t.Fatalf("budgeted run ended %s (certified %v), want an uncertified %s", cert.Reason, cert.Certified, StopQuestions)
	}

	C := buildPartitions(band, convexPoints(band, HDPIOptions{Mode: ConvexExact}, nil), polytope.NewSimplex(3), nil)
	limit := 16 + 4*int(math.Ceil(math.Log2(float64(len(C)))))
	user = oracle.NewNoisyUser(u, 0.3, rng)
	newAlg().Run(band, k, user)
	if user.Questions() > limit {
		t.Fatalf("asked %d questions over %d cells, cap %d", user.Questions(), len(C), limit)
	}
}

// TestRobustHDPIClassifiesGammaOnce: the partitions are never cut, so every
// Γ row is classified against every partition once, at set-up, however many
// questions the dialogue asks.
func TestRobustHDPIClassifiesGammaOnce(t *testing.T) {
	ds := dataset.AntiCorrelated(rand.New(rand.NewSource(5)), 300, 3)
	k := 5
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
	V := convexPoints(band, HDPIOptions{Mode: ConvexExact}, nil)
	C := buildPartitions(band, V, polytope.NewSimplex(3), nil)
	want := len(buildGamma(band, V)) * len(C)
	asked := map[int]bool{}
	for seed := int64(1); seed <= 4; seed++ {
		var stats polytope.BoundStats
		alg := NewRobustHDPI(HDPIOptions{Mode: ConvexExact, Stats: &stats, Rng: rand.New(rand.NewSource(seed))})
		u := oracle.RandomUtility(rand.New(rand.NewSource(seed)), 3)
		user := oracle.NewNoisyUser(u, 0.2, rand.New(rand.NewSource(seed)))
		alg.Run(band, k, user)
		if stats.Identifications != want {
			t.Errorf("seed %d: %d classifications over %d questions, want |Γ|·|C| = %d", seed, stats.Identifications, user.Questions(), want)
		}
		asked[user.Questions()] = true
	}
	if len(asked) < 2 {
		t.Fatalf("every dialogue asked the same number of questions %v; the test proves nothing", asked)
	}
}

func TestMajorityOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	u := oracle.RandomUtility(rng, 3)
	ds := dataset.AntiCorrelated(rng, 100, 3)
	k := 4
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))

	// Majority voting over a noisy user lowers the effective error rate:
	// HD-PI through a 3-vote wrapper should succeed more often than through
	// the raw noisy oracle at the same per-answer error.
	trials := 30
	rawOK, majOK := 0, 0
	for trial := 0; trial < trials; trial++ {
		uu := oracle.RandomUtility(rng, 3)
		seed := int64(trial)
		raw := oracle.NewNoisyUser(uu, 0.3, rand.New(rand.NewSource(seed)))
		alg := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(seed))})
		if oracle.IsTopK(band, uu, k, band[alg.Run(band, k, raw)]) {
			rawOK++
		}
		maj := oracle.NewMajorityOracle(oracle.NewNoisyUser(uu, 0.3, rand.New(rand.NewSource(seed))), 5)
		alg2 := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(seed))})
		if oracle.IsTopK(band, uu, k, band[alg2.Run(band, k, maj)]) {
			majOK++
		}
	}
	if majOK <= rawOK {
		t.Fatalf("majority %d/%d vs raw %d/%d; voting must help", majOK, trials, rawOK, trials)
	}
	_ = u
}

func TestMajorityOraclePanicsOnEvenVotes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for even vote count")
		}
	}()
	oracle.NewMajorityOracle(oracle.NewUser(oracle.RandomUtility(rand.New(rand.NewSource(1)), 2)), 2)
}

func TestMajorityOracleEarlyExit(t *testing.T) {
	// A truthful user answers consistently, so 5-vote majority needs only 3
	// repetitions per question.
	u := oracle.NewUser([]float64{0.7, 0.3})
	m := oracle.NewMajorityOracle(u, 5)
	m.Prefer([]float64{0.9, 0.1}, []float64{0.1, 0.9})
	if u.Questions() != 3 {
		t.Fatalf("asked %d repetitions, want 3 (early majority)", u.Questions())
	}
}
