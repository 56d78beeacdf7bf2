package ist

// Benchmark harness: one benchmark per table/figure of the paper (driving
// the same runners as cmd/istbench, at a reduced default scale so that
// `go test -bench=.` completes in minutes) plus ablation micro-benchmarks
// for the design choices listed in DESIGN.md §5.
//
// To regenerate a figure at paper scale use cmd/istbench, e.g.
//
//	go run ./cmd/istbench -exp fig9 -n 100000 -trials 10
//
// Each figure benchmark reports two custom metrics alongside ns/op:
// questions/user (the paper's primary cost) and, where applicable,
// accuracy.

import (
	"math/rand"
	"testing"

	"ist/internal/core"
	"ist/internal/experiments"
	"ist/internal/geom"
	"ist/internal/oracle"
	"ist/internal/polytope"
	"ist/internal/skyband"
	"ist/internal/sweep"
)

// benchCfg is the reduced scale used by the `go test -bench` harness.
func benchCfg() experiments.Config {
	return experiments.Config{N: 2000, D: 4, Ks: []int{1, 20, 60, 100}, Trials: 3, Seed: 1}
}

// runFigure executes an experiment runner b.N times and folds the average
// question count of our headline algorithm into the benchmark metrics.
func runFigure(b *testing.B, name string, cfg experiments.Config) {
	b.Helper()
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiments.Run(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if qs, ok := tab.Metrics["questions"]; ok && len(qs) > 0 && len(qs[0].Values) > 0 {
		last := qs[0].Values[len(qs[0].Values)-1]
		b.ReportMetric(last, "questions/user")
	}
	if accs, ok := tab.Metrics["accuracy"]; ok && len(accs) > 0 && len(accs[0].Values) > 0 {
		b.ReportMetric(accs[0].Values[len(accs[0].Values)-1], "accuracy")
	}
}

func BenchmarkTable1Bounds(b *testing.B)    { runFigure(b, "table1", benchCfg()) }
func BenchmarkFig5Bounding(b *testing.B)    { runFigure(b, "fig5", benchCfg()) }
func BenchmarkFig6Beta(b *testing.B)        { runFigure(b, "fig6", benchCfg()) }
func BenchmarkFig7Accuracy(b *testing.B)    { runFigure(b, "fig7", benchCfg()) }
func BenchmarkFig8TwoD(b *testing.B)        { runFigure(b, "fig8", benchCfg()) }
func BenchmarkFig9FourD(b *testing.B)       { runFigure(b, "fig9", benchCfg()) }
func BenchmarkFig10VaryN(b *testing.B)      { runFigure(b, "fig10", benchCfg()) }
func BenchmarkFig11VaryD(b *testing.B)      { runFigure(b, "fig11", benchCfg()) }
func BenchmarkFig12Weather(b *testing.B)    { runFigure(b, "fig12", benchCfg()) }
func BenchmarkFig13NBA(b *testing.B)        { runFigure(b, "fig13", benchCfg()) }
func BenchmarkFig14AllTopK(b *testing.B)    { runFigure(b, "fig14", smallerCfg()) }
func BenchmarkFig15AllTopKNBA(b *testing.B) { runFigure(b, "fig15", smallerCfg()) }
func BenchmarkFig16UserStudy(b *testing.B) {
	runFigure(b, "fig16", experiments.Config{Seed: 1, Trials: 3})
}
func BenchmarkFig17SomeTopK(b *testing.B) {
	runFigure(b, "fig17", experiments.Config{Seed: 1, Trials: 3})
}

// smallerCfg further reduces scale for the AllTopK figures, whose modified
// variants ask 4-10x more questions (that is their point).
func smallerCfg() experiments.Config {
	return experiments.Config{N: 600, D: 3, Ks: []int{5, 20}, Trials: 2, Seed: 1}
}

// --- Ablation and substrate micro-benchmarks (DESIGN.md §5) ---

// BenchmarkAlgorithms measures a single end-to-end solve per algorithm on a
// fixed preprocessed workload — the per-question processing cost that
// Figures 8-13 plot as "execution time". Iteration i seeds its algorithm
// with i mod algorithmSeeds, and questions/user is the mean over all
// algorithmSeeds seeds, so every b.N reports the same value from the same
// code.
func BenchmarkAlgorithms(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	ds := AntiCorrelated(rng, 2000, 4)
	k := 20
	band := Preprocess(ds.Points, k)
	u := RandomUtility(rng, 4)
	eps := EpsilonForTopK(band, u, k)
	cases := []struct {
		name string
		mk   func(seed int64) Algorithm
	}{
		{"RH", func(s int64) Algorithm { return NewRH(s) }},
		{"HD-PI-sampling", func(s int64) Algorithm { return NewHDPI(s) }},
		{"HD-PI-accurate", func(s int64) Algorithm { return NewHDPIAccurate(s) }},
		{"Robust-HD-PI", func(s int64) Algorithm { return NewRobustHDPI(s) }},
		{"UH-Random", func(s int64) Algorithm { return NewUHRandom(eps, s) }},
		{"UH-Simplex", func(s int64) Algorithm { return NewUHSimplex(eps, s) }},
		{"UtilityApprox", func(s int64) Algorithm { return NewUtilityApprox(eps) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			solve := func(seed int) int {
				user := NewUser(u)
				c.mk(int64(seed)).Run(band, k, user)
				return user.Questions()
			}
			var questions [algorithmSeeds]int
			for i := 0; i < b.N; i++ {
				questions[i%algorithmSeeds] = solve(i % algorithmSeeds)
			}
			// Seeds a short run did not reach are solved untimed.
			b.StopTimer()
			for seed := b.N; seed < algorithmSeeds; seed++ {
				questions[seed] = solve(seed)
			}
			total := 0
			for _, q := range questions {
				total += q
			}
			b.ReportMetric(float64(total)/algorithmSeeds, "questions/user")
		})
	}
}

// algorithmSeeds is the number of seeds BenchmarkAlgorithms cycles through.
const algorithmSeeds = 32

// BenchmarkPolytopeCutStrategies compares the bounding shortcuts on the
// classification-heavy inner loop of HD-PI (ablation #1/#4).
func BenchmarkPolytopeCutStrategies(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	d := 5
	// A polytope with a realistic number of cuts and probe hyperplanes.
	poly := polytope.NewSimplex(d)
	for c := 0; c < 6; c++ {
		n := geom.NewVector(d)
		for i := range n {
			n[i] = rng.Float64()*2 - 1
		}
		poly.Cut(geom.Hyperplane{Normal: n})
	}
	probes := make([]geom.Hyperplane, 200)
	for i := range probes {
		n := geom.NewVector(d)
		for j := range n {
			n[j] = rng.Float64()*2 - 1
		}
		probes[i] = geom.Hyperplane{Normal: n}
	}
	for _, s := range []polytope.Strategy{
		polytope.StrategyNone, polytope.StrategyBall,
		polytope.StrategyRect, polytope.StrategyRectFast,
	} {
		b.Run(s.String(), func(b *testing.B) {
			var stats polytope.BoundStats
			for i := 0; i < b.N; i++ {
				for _, h := range probes {
					poly.ClassifyWith(h, s, &stats)
				}
			}
			b.ReportMetric(stats.EffectiveRatio(), "effective-ratio")
		})
	}
}

// BenchmarkConvexPoints compares the exact vs sampling convex-point
// detection feeding HD-PI (ablation #3).
func BenchmarkConvexPoints(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	ds := AntiCorrelated(rng, 1000, 4)
	band := Preprocess(ds.Points, 10)
	b.Run("sampling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alg := core.NewHDPI(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(1))})
			alg.Run(band, 10, NewUser(RandomUtility(rng, 4)))
		}
	})
	b.Run("accurate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			alg := core.NewHDPI(core.HDPIOptions{Mode: core.ConvexExact, Rng: rand.New(rand.NewSource(1))})
			alg.Run(band, 10, NewUser(RandomUtility(rng, 4)))
		}
	})
}

// BenchmarkKSkyband measures the dataset preprocessing.
func BenchmarkKSkyband(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	ds := AntiCorrelated(rng, 10000, 4)
	for _, k := range []int{1, 10, 100} {
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				skyband.KSkyband(ds.Points, k)
			}
		})
	}
}

// BenchmarkSweepPartitioning measures Algorithm 1 (the 2-d plane sweep).
func BenchmarkSweepPartitioning(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	ds := AntiCorrelated(rng, 5000, 2)
	for _, k := range []int{1, 10, 100} {
		band := Preprocess(ds.Points, k)
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sweep.PartitionUtilitySpace(band, k)
			}
		})
	}
}

// BenchmarkOracleTopK measures the top-k selection that seeds every
// Lemma 5.5 stopping check: n utilities and a bounded heap of k, on 10,000
// points with k = 50. BenchmarkStopCheck in internal/core times a whole
// check.
func BenchmarkOracleTopK(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	ds := AntiCorrelated(rng, 10000, 4)
	u := RandomUtility(rng, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle.TopK(ds.Points, u, 50)
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + itoa(v)
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkExtNoise regenerates the noise-tolerance extension study.
func BenchmarkExtNoise(b *testing.B) {
	runFigure(b, "ext-noise", experiments.Config{N: 1000, D: 3, Trials: 4, Seed: 1})
}

// BenchmarkExtSorting regenerates the sorting-interaction extension study.
func BenchmarkExtSorting(b *testing.B) {
	runFigure(b, "ext-sorting", experiments.Config{N: 1000, D: 3, Ks: []int{1, 20, 60}, Trials: 3, Seed: 1})
}

// BenchmarkObsCounters regenerates the observability profile (BENCH_4.json):
// per-question LP-solve, cut, and prune counts collected through the trace
// observer. Beyond questions/user it reports lp-solves/question for the
// headline algorithm, measuring the per-question processing the /metrics
// endpoint exposes in production.
func BenchmarkObsCounters(b *testing.B) {
	cfg := experiments.Config{N: 1000, D: 3, Ks: []int{1, 20, 60}, Trials: 3, Seed: 1}
	var tab *experiments.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = experiments.Run("obs-counters", cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	report := func(metric, series, unit string) {
		for _, s := range tab.Metrics[metric] {
			if s.Name == series && len(s.Values) > 0 {
				b.ReportMetric(s.Values[len(s.Values)-1], unit)
			}
		}
	}
	report("questions", "RH", "rh-questions/user")
	report("lp-solves/question", "HD-PI-accurate", "hdpi-lp-solves/question")
}
