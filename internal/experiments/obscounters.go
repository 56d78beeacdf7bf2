package experiments

import (
	"math/rand"

	"ist/internal/core"
	"ist/internal/obs"
	"ist/internal/oracle"
)

// obsSpec is an instrumented-algorithm factory for the observability
// profile: unlike AlgSpec, every algorithm here implements core.Observable.
type obsSpec struct {
	name string
	twoD bool
	make func(seed int64) core.Algorithm
}

// ObsCounters profiles the instrumented interactive algorithms through the
// trace observer: questions asked, LP solves per question, halfspace cuts
// per question, and candidates pruned per question, averaged over Trials
// random users for each k. The counts come from an obs.Metrics bridge over
// a private registry per run — the observer behind istserve's /metrics —
// not from instrumenting the experiment loop, so the table also exercises
// the full event path the production endpoint relies on. Questions are
// counted as answers received, which equals the questions asked of a
// simulated user that always answers. This is the data behind BENCH_4.json.
func ObsCounters(cfg Config) *Table {
	cfg = cfg.withDefaults()
	tab := newTable("Observability counters (anti-correlated)", "k", floats(cfg.Ks))

	// 2D-PI only runs in two dimensions; everything else uses cfg.D.
	cfg2 := cfg
	cfg2.D = 2
	anti := buildDataset("anti", cfg).Points
	anti2 := buildDataset("anti", cfg2).Points

	specs := []obsSpec{
		{name: "2D-PI", twoD: true, make: func(int64) core.Algorithm {
			return &core.TwoDPI{}
		}},
		{name: "HD-PI-sampling", make: func(seed int64) core.Algorithm {
			return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(seed))})
		}},
		{name: "HD-PI-accurate", make: func(seed int64) core.Algorithm {
			return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexExact, Rng: rand.New(rand.NewSource(seed))})
		}},
		{name: "RH", make: func(seed int64) core.Algorithm {
			return core.NewRHDefault(seed)
		}},
	}

	for _, spec := range specs {
		questions := make([]float64, len(cfg.Ks))
		lpPerQ := make([]float64, len(cfg.Ks))
		cutsPerQ := make([]float64, len(cfg.Ks))
		prunedPerQ := make([]float64, len(cfg.Ks))
		for xi, k := range cfg.Ks {
			points := anti
			if spec.twoD {
				points = anti2
			}
			band := preprocess(points, k)
			var q, lps, cuts, pruned float64
			for trial := 0; trial < cfg.Trials; trial++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7919))
				u := oracle.RandomUtility(rng, len(points[0]))
				alg := spec.make(cfg.Seed + int64(trial))
				reg := obs.NewRegistry()
				alg.(core.Observable).SetObserver(obs.NewMetrics(reg))
				alg.Run(band, k, oracle.NewUser(u))
				count := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
				q += count(obs.MetricQuestions)
				lps += count(obs.MetricLPSolves)
				cuts += count(obs.MetricCuts)
				pruned += count(obs.MetricPruned)
			}
			f := float64(cfg.Trials)
			q /= f
			questions[xi] = q
			if q > 0 {
				lpPerQ[xi] = lps / f / q
				cutsPerQ[xi] = cuts / f / q
				prunedPerQ[xi] = pruned / f / q
			}
		}
		tab.add("questions", spec.name, questions)
		tab.add("lp-solves/question", spec.name, lpPerQ)
		tab.add("cuts/question", spec.name, cutsPerQ)
		tab.add("pruned/question", spec.name, prunedPerQ)
	}
	return tab
}
