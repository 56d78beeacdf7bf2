package core

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/oracle"
	"ist/internal/polytope"
	"ist/internal/skyband"
)

var paperPoints = []geom.Vector{
	{0, 1}, {0.3, 0.7}, {0.5, 0.8}, {0.7, 0.4}, {1, 0},
}

func TestTwoDPIPaperExample(t *testing.T) {
	// Example 4.4: u = (0.4, 0.6), k = 2. The user prefers p3 to p4 at the
	// boundary question, so q1 = p3 is returned.
	user := oracle.NewUser(geom.Vector{0.4, 0.6})
	got := TwoDPI{}.Run(paperPoints, 2, user)
	if got != 2 {
		t.Fatalf("returned p%d, want p3", got+1)
	}
	if user.Questions() != 1 {
		t.Fatalf("asked %d questions, want 1", user.Questions())
	}
	if !oracle.IsTopK(paperPoints, geom.Vector{0.4, 0.6}, 2, paperPoints[got]) {
		t.Fatal("returned point not in top-2")
	}
}

func TestTwoDPICorrectnessRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 60; trial++ {
		n := 10 + rng.Intn(90)
		k := 1 + rng.Intn(10)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.Float64(), rng.Float64()}
		}
		u := oracle.RandomUtility(rng, 2)
		user := oracle.NewUser(u)
		got := TwoDPI{}.Run(pts, k, user)
		if !oracle.IsTopK(pts, u, k, pts[got]) {
			t.Fatalf("trial %d: returned point %d not top-%d", trial, got, k)
		}
	}
}

func TestTwoDPIQuestionBound(t *testing.T) {
	// Theorem 4.5: at most O(log2(ceil(2n/(k+1)))) questions; the binary
	// search asks exactly ceil(log2(#partitions)) questions.
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 20; trial++ {
		n := 50 + rng.Intn(200)
		k := 1 + rng.Intn(20)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.Float64(), rng.Float64()}
		}
		u := oracle.RandomUtility(rng, 2)
		user := oracle.NewUser(u)
		TwoDPI{}.Run(pts, k, user)
		parts := TwoDPI{}.Partitions(pts, k)
		maxQ := int(math.Ceil(math.Log2(float64(len(parts))))) + 1
		if user.Questions() > maxQ {
			t.Fatalf("trial %d: %d questions for %d partitions", trial, user.Questions(), len(parts))
		}
		bound := int(math.Ceil(2 * float64(n) / float64(k+1)))
		if len(parts) > bound {
			t.Fatalf("trial %d: %d partitions > theorem bound %d", trial, len(parts), bound)
		}
	}
}

func runCorrectnessTrials(t *testing.T, alg Algorithm, d int, trials int, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for trial := 0; trial < trials; trial++ {
		n := 30 + rng.Intn(120)
		k := 1 + rng.Intn(10)
		ds := dataset.AntiCorrelated(rng, n, d)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		user := oracle.NewUser(u)
		got := alg.Run(band, k, user)
		if got < 0 || got >= len(band) {
			t.Fatalf("trial %d: bad index %d", trial, got)
		}
		if !oracle.IsTopK(band, u, k, band[got]) {
			t.Fatalf("trial %d (%s, d=%d, n=%d, k=%d): returned point not top-%d after %d questions",
				trial, alg.Name(), d, len(band), k, k, user.Questions())
		}
	}
}

func TestHDPIExactCorrectness(t *testing.T) {
	for d := 2; d <= 5; d++ {
		alg := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(7)), Strategy: polytope.StrategyBall})
		runCorrectnessTrials(t, alg, d, 12, int64(100+d))
	}
}

func TestHDPISamplingMostlyCorrect(t *testing.T) {
	// Sampling mode may miss convex points, so correctness is probabilistic
	// (Figure 7 reports accuracy near 1). Require high accuracy.
	rng := rand.New(rand.NewSource(3))
	ok, total := 0, 0
	for trial := 0; trial < 40; trial++ {
		d := 2 + rng.Intn(3)
		n := 40 + rng.Intn(100)
		k := 1 + rng.Intn(8)
		ds := dataset.AntiCorrelated(rng, n, d)
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, d)
		alg := NewHDPI(HDPIOptions{Mode: ConvexSampling, Rng: rand.New(rand.NewSource(int64(trial)))})
		got := alg.Run(band, k, oracle.NewUser(u))
		total++
		if oracle.IsTopK(band, u, k, band[got]) {
			ok++
		}
	}
	if float64(ok)/float64(total) < 0.85 {
		t.Fatalf("sampling accuracy %d/%d too low", ok, total)
	}
}

func TestRHCorrectness(t *testing.T) {
	for d := 2; d <= 5; d++ {
		alg := NewRH(RHOptions{Rng: rand.New(rand.NewSource(11))})
		runCorrectnessTrials(t, alg, d, 12, int64(200+d))
	}
}

// TestBoundingStrategyNeverChangesTranscript: a bounding volume (Lemma
// 5.1) decides only how fast a cell is classified against a hyperplane,
// never the class it gets, so HD-PI asks the same questions and returns the
// same answers under every strategy, in both convex modes and for one or
// several answers, on embed-slices-shaped and anti-correlated bands.
func TestBoundingStrategyNeverChangesTranscript(t *testing.T) {
	const k = 10
	rng := rand.New(rand.NewSource(2))
	catalog := carSliceCatalog(t)
	var bands [][]geom.Vector
	for range 3 {
		bands = append(bands, carSlice(catalog, rng))
	}
	for range 2 {
		ds := dataset.AntiCorrelated(rng, 300, 4)
		bands = append(bands, skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k)))
	}
	strategies := []polytope.Strategy{polytope.StrategyBall, polytope.StrategyRect, polytope.StrategyRectFast, polytope.StrategyNone}
	for b, band := range bands {
		u := oracle.RandomUtility(rng, len(band[0]))
		for _, mode := range []ConvexMode{ConvexSampling, ConvexExact} {
			for _, want := range []int{1, 3} {
				var ref *recordingOracle
				var refGot []int
				for _, strat := range strategies {
					rec := &recordingOracle{inner: oracle.NewUser(u)}
					alg := NewHDPI(HDPIOptions{Mode: mode, Strategy: strat, Rng: rand.New(rand.NewSource(int64(b)))})
					got := alg.RunMulti(band, k, want, rec)
					if ref == nil {
						ref, refGot = rec, got
						continue
					}
					if !slices.Equal(got, refGot) || !reflect.DeepEqual(rec.log, ref.log) {
						t.Fatalf("band %d, %s, want %d: %v answered %v after %d questions, %v answered %v after %d",
							b, mode, want, strat, got, len(rec.log), strategies[0], refGot, len(ref.log))
					}
				}
			}
		}
	}
}

func TestHDPIOnLowerBoundDataset(t *testing.T) {
	// Theorem 3.2's all-duplicates dataset: groups of k identical points on
	// a convex arc. Algorithms must terminate and return a top-k point.
	rng := rand.New(rand.NewSource(5))
	ds := dataset.LowerBound(rng, 60, 2, 5)
	u := oracle.RandomUtility(rng, 2)
	for _, alg := range []Algorithm{
		NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(1))}),
		NewRH(RHOptions{Rng: rand.New(rand.NewSource(1))}),
		TwoDPI{},
	} {
		user := oracle.NewUser(u)
		got := alg.Run(ds.Points, 5, user)
		if !oracle.IsTopK(ds.Points, u, 5, ds.Points[got]) {
			t.Fatalf("%s returned non-top-5 point on duplicate dataset", alg.Name())
		}
	}
}

func TestLowerBoundQuestions(t *testing.T) {
	// Theorem 3.2: on the adversarial dataset, locating a top-k group needs
	// Ω(log2(n/k)) questions; our algorithms should be near log2(n/k), not 0.
	rng := rand.New(rand.NewSource(6))
	n, k := 256, 4
	ds := dataset.LowerBound(rng, n, 2, k)
	qs := 0
	trials := 20
	for trial := 0; trial < trials; trial++ {
		u := oracle.RandomUtility(rng, 2)
		user := oracle.NewUser(u)
		TwoDPI{}.Run(ds.Points, k, user)
		qs += user.Questions()
	}
	avg := float64(qs) / float64(trials)
	logNk := math.Log2(float64(n) / float64(k))
	if avg < 1 {
		t.Fatalf("average questions %.1f suspiciously low", avg)
	}
	if avg > 4*logNk {
		t.Fatalf("average questions %.1f far above O(log(n/k)) = %.1f", avg, logNk)
	}
}

func TestNoisyUserNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		ds := dataset.AntiCorrelated(rng, 60, 3)
		k := 4
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		u := oracle.RandomUtility(rng, 3)
		noisy := oracle.NewNoisyUser(u, 0.3, rng)
		for _, alg := range []Algorithm{
			NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(int64(trial)))}),
			NewRH(RHOptions{Rng: rand.New(rand.NewSource(int64(trial)))}),
		} {
			got := alg.Run(band, k, noisy)
			if got < 0 || got >= len(band) {
				t.Fatalf("%s returned invalid index with noisy user", alg.Name())
			}
		}
	}
}

// Property: for random inputs and k = 1 the returned point must be the
// exact top-1 (IST with k=1 degenerates to finding the favourite).
func TestQuickTopOneExact(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := 2 + rng.Intn(3)
		n := 20 + rng.Intn(60)
		ds := dataset.Independent(rng, n, d)
		band := skyband.Filter(ds.Points, skyband.Skyline(ds.Points))
		u := oracle.RandomUtility(rng, d)
		alg := NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(seed))})
		got := alg.Run(band, 1, oracle.NewUser(u))
		// top-1 with ties allowed
		return oracle.IsTopK(band, u, 1, band[got])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestHDPIFewerQuestionsAsKGrows(t *testing.T) {
	// The headline claim: the number of questions decreases substantially
	// as k grows (Section 6.2 reports at least 32% reduction).
	rng := rand.New(rand.NewSource(10))
	ds := dataset.AntiCorrelated(rng, 400, 4)
	avgQ := func(k int) float64 {
		total := 0
		trials := 8
		band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, k))
		for trial := 0; trial < trials; trial++ {
			u := oracle.RandomUtility(rng, 4)
			user := oracle.NewUser(u)
			NewHDPI(HDPIOptions{Mode: ConvexSampling, Rng: rand.New(rand.NewSource(int64(trial)))}).Run(band, k, user)
			total += user.Questions()
		}
		return float64(total) / float64(trials)
	}
	q1, q50 := avgQ(1), avgQ(50)
	if q50 >= q1 {
		t.Fatalf("questions did not decrease with k: k=1 %.1f vs k=50 %.1f", q1, q50)
	}
}

func TestRHStoppingCondition3(t *testing.T) {
	// Force the ladder to exhaust: with k = 1 and three widely separated
	// convex points, Lemma 5.5 needs R small; a tiny dataset lets the walk
	// resolve every pair, after which stopping condition 3 must return the
	// exact top-1 at R's centre.
	pts := []geom.Vector{{1, 0.1}, {0.1, 1}, {0.6, 0.6}}
	for trial := 0; trial < 10; trial++ {
		u := oracle.RandomUtility(rand.New(rand.NewSource(int64(trial))), 2)
		alg := NewRH(RHOptions{Rng: rand.New(rand.NewSource(int64(trial)))})
		user := oracle.NewUser(u)
		got := alg.Run(pts, 1, user)
		if !oracle.IsTopK(pts, u, 1, pts[got]) {
			t.Fatalf("trial %d: stop-3 path returned non-top-1", trial)
		}
	}
}

func TestTwoDPIQuestionCountIsLogOfPartitions(t *testing.T) {
	// The binary search asks exactly ceil(log2(m)) questions for m
	// partitions — verify the exact count, not just a bound.
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		n := 30 + rng.Intn(100)
		k := 1 + rng.Intn(6)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.Float64(), rng.Float64()}
		}
		m := len(TwoDPI{}.Partitions(pts, k))
		ceilLog := 0
		for c := 1; c < m; c *= 2 {
			ceilLog++
		}
		floorLog := ceilLog
		if m > 1 && 1<<uint(ceilLog) != m {
			floorLog = ceilLog - 1
		}
		user := oracle.NewUser(oracle.RandomUtility(rng, 2))
		TwoDPI{}.Run(pts, k, user)
		if q := user.Questions(); q < floorLog || q > ceilLog {
			t.Fatalf("trial %d: %d questions for %d partitions, want in [%d,%d]",
				trial, q, m, floorLog, ceilLog)
		}
	}
}

func TestHDPIBetaZeroUsesDefault(t *testing.T) {
	// Beta = 0 must fall back to the paper's 0.01, not divide by zero
	// semantics or a degenerate score.
	alg := NewHDPI(HDPIOptions{Rng: rand.New(rand.NewSource(1))})
	if alg.opt.Beta != 0.01 {
		t.Fatalf("default beta = %v", alg.opt.Beta)
	}
}

func TestSinglePointDataset(t *testing.T) {
	pts := []geom.Vector{{0.5, 0.5, 0.5}}
	u := geom.Vector{0.3, 0.3, 0.4}
	for _, alg := range []Algorithm{
		NewHDPI(HDPIOptions{Mode: ConvexExact, Rng: rand.New(rand.NewSource(1))}),
		NewRH(RHOptions{Rng: rand.New(rand.NewSource(1))}),
	} {
		user := oracle.NewUser(u)
		if got := alg.Run(pts, 1, user); got != 0 {
			t.Fatalf("%s on singleton returned %d", alg.Name(), got)
		}
		if user.Questions() != 0 {
			t.Fatalf("%s asked %d questions for a singleton", alg.Name(), user.Questions())
		}
	}
}
