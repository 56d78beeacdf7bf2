package experiments

import (
	"math/rand"

	"ist/internal/core"
	"ist/internal/oracle"
)

// ExtNoise is our extension experiment for the paper's stated future work
// (conclusion: "users might make mistakes when answering questions"). It
// sweeps the per-question error rate and measures how often each strategy
// still returns a true top-k point, plus the questions it costs:
//
//   - HD-PI (plain): the paper's algorithm, which hard-eliminates
//     partitions and therefore cannot recover from a wrong answer;
//   - HD-PI + 3-vote majority: every question repeated up to 3 times;
//   - Robust-HD-PI: multiplicative-weight partitions (soft elimination);
//   - RH (plain) for reference.
func ExtNoise(cfg Config) *Table {
	cfg = cfg.withDefaults()
	ds := buildDataset("anti", cfg)
	k := 10
	band := preprocess(ds.Points, k)
	rates := []float64{0, 0.05, 0.1, 0.2, 0.3}
	t := newTable("Extension: answer-noise tolerance (anti-correlated, k=10)", "error rate", rates)

	type strat struct {
		name string
		run  func(seed int64, o oracle.Oracle) int
	}
	strats := []strat{
		{"HD-PI-sampling", func(seed int64, o oracle.Oracle) int {
			alg := core.NewHDPI(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(seed))})
			return alg.Run(band, k, o)
		}},
		{"HD-PI+majority3", func(seed int64, o oracle.Oracle) int {
			alg := core.NewHDPI(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(seed))})
			return alg.Run(band, k, oracle.NewMajorityOracle(o, 3))
		}},
		{"Robust-HD-PI", func(seed int64, o oracle.Oracle) int {
			alg := core.NewRobustHDPI(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(seed))})
			return alg.Run(band, k, o)
		}},
		{"RH", func(seed int64, o oracle.Oracle) int {
			return core.NewRHDefault(seed).Run(band, k, o)
		}},
	}

	for _, st := range strats {
		var hit, qs []float64
		for _, rate := range rates {
			okCount, q := 0, 0
			for trial := 0; trial < cfg.Trials; trial++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7919))
				u := oracle.RandomUtility(rng, cfg.D)
				user := oracle.NewNoisyUser(u, rate, rng)
				idx := st.run(cfg.Seed+int64(trial), user)
				if oracle.IsTopK(band, u, k, band[idx]) {
					okCount++
				}
				q += user.Questions()
			}
			hit = append(hit, float64(okCount)/float64(cfg.Trials))
			qs = append(qs, float64(q)/float64(cfg.Trials))
		}
		t.add("top-k hit rate", st.name, hit)
		t.add("questions", st.name, qs)
	}
	return t
}
