package experiments

import (
	"math/rand"
	"time"

	"ist/internal/baseline"
	"ist/internal/core"
	"ist/internal/oracle"
)

// newUH builds the Section 6.4 re-adapted UH variants: ε = 0 guarantees a
// top-k answer without peeking at the hidden utility.
func newUH(simplex bool, seed int64) core.Algorithm {
	return &baseline.UH{Simplex: simplex, Eps: 0, Rng: rand.New(rand.NewSource(seed))}
}

// newPLValidate builds Preference-Learning with the 75%-prediction stopping
// rule of Section 6.4.
func newPLValidate(seed int64) core.Algorithm {
	return &baseline.PreferenceLearning{Validate: true, Rng: rand.New(rand.NewSource(seed))}
}

func newActiveRanking(seed int64) core.Algorithm {
	return &baseline.ActiveRanking{Rng: rand.New(rand.NewSource(seed))}
}

// This file reproduces the user study (Section 6.4, Figure 16) and the
// motivation study (Section 6.5, Figures 14, 15 and 17). The paper's 30
// human participants are simulated by noisy users (DESIGN.md §3): each
// answers with a per-question error rate, and their reported "degree of
// boredness" follows the boredom model fitted to the paper's own
// (questions, boredness) pairs (oracle.Boredom).

// UserErrRate is the simulated per-question mistake probability standing in
// for the human participants of Sections 6.4 and 6.5.2.
const UserErrRate = 0.05

// multiSpec is a factory for the multi-answer algorithm variants.
type multiSpec struct {
	Name string
	Make func(seed int64) core.MultiAlgorithm
}

func allTopKSpecs() []multiSpec {
	return []multiSpec{
		{"RH", func(seed int64) core.MultiAlgorithm { return core.NewRHDefault(seed) }},
		{"HD-PI-sampling", func(seed int64) core.MultiAlgorithm {
			return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(seed))})
		}},
		{"HD-PI-accurate", func(seed int64) core.MultiAlgorithm {
			return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexExact, Rng: rand.New(rand.NewSource(seed))})
		}},
	}
}

// allTopK measures the "return one" vs "return all" cost on one dataset
// (Figures 14 and 15): for each k, the questions/time of the original
// (want=1) and the AllTopK (want=k) versions.
func allTopK(title, dsName string, cfg Config) *Table {
	cfg = cfg.withDefaults()
	ds := buildDataset(dsName, cfg)
	d := ds.Dim()
	t := newTable(title, "k", floats(cfg.Ks))
	specs := allTopKSpecs()
	type acc struct{ qOne, sOne, qAll, sAll []float64 }
	results := make([]acc, len(specs))

	for _, k := range cfg.Ks {
		band := preprocess(ds.Points, k)
		for si, spec := range specs {
			var qo, so, qa, sa float64
			wants := []int{1, k}
			if k == 1 {
				wants = wants[:1] // want=1 IS the AllTopK run at k=1
			}
			for trial := 0; trial < cfg.Trials; trial++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7919))
				u := oracle.RandomUtility(rng, d)
				for _, want := range wants {
					alg := spec.Make(cfg.Seed + int64(trial))
					user := oracle.NewUser(u)
					start := time.Now()
					alg.RunMulti(band, k, want, user)
					sec := time.Since(start).Seconds()
					if want == 1 {
						qo += float64(user.Questions())
						so += sec
					} else {
						qa += float64(user.Questions())
						sa += sec
					}
				}
			}
			f := float64(cfg.Trials)
			if k == 1 {
				qa, sa = qo, so
			}
			results[si].qOne = append(results[si].qOne, qo/f)
			results[si].sOne = append(results[si].sOne, so/f)
			results[si].qAll = append(results[si].qAll, qa/f)
			results[si].sAll = append(results[si].sAll, sa/f)
		}
	}
	for si, spec := range specs {
		t.add("questions", spec.Name, results[si].qOne)
		t.add("questions", spec.Name+"-AllTopK", results[si].qAll)
		t.add("time(s)", spec.Name, results[si].sOne)
		t.add("time(s)", spec.Name+"-AllTopK", results[si].sAll)
	}
	return t
}

// Fig14AllTopK reproduces Figure 14: one-vs-all top-k cost on the 4-d
// synthetic dataset. The paper reports the AllTopK versions needing 4–10x
// more questions and 1–2 orders of magnitude more time for k >= 20.
func Fig14AllTopK(cfg Config) *Table {
	cfg = cfg.withDefaults()
	cfg.D = 4
	return allTopK("Figure 14: one vs ALL top-k (anti-correlated 4d)", "anti", cfg)
}

// Fig15AllTopKNBA reproduces Figure 15: the same on the NBA dataset.
func Fig15AllTopKNBA(cfg Config) *Table {
	cfg = cfg.withDefaults()
	cfg.D = 6
	return allTopK("Figure 15: one vs ALL top-k (NBA)", "nba", cfg)
}

// Fig16UserStudy reproduces the Section 6.4 user study: 1000 candidate cars,
// top-20, 30 (simulated) participants who err with probability UserErrRate;
// the measurements are average questions, degree of boredness, and rank.
// The paper reports HD-PI-sampling 4.1 / HD-PI-accurate 4.8 / RH 7.1
// questions with the existing algorithms above 8.4.
func Fig16UserStudy(cfg Config) *Table {
	cfg = cfg.withDefaults()
	carCfg := cfg
	carCfg.N = 1000
	carCfg.D = 4
	ds := buildDataset("car", carCfg)
	k := 20
	band := preprocess(ds.Points, k)
	// 3 simulated participants per configured trial: the paper's 30 at the
	// default Trials=10, proportionally fewer for quick runs.
	participants := 3 * cfg.Trials

	specs := []AlgSpec{
		{Name: "HD-PI-sampling", Make: func(seed int64, _ float64) core.Algorithm {
			return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexSampling, Rng: rand.New(rand.NewSource(seed))})
		}},
		{Name: "HD-PI-accurate", Make: func(seed int64, _ float64) core.Algorithm {
			return core.NewHDPI(core.HDPIOptions{Mode: core.ConvexExact, Rng: rand.New(rand.NewSource(seed))})
		}},
		{Name: "RH", Make: func(seed int64, _ float64) core.Algorithm {
			return core.NewRHDefault(seed)
		}},
		// Section 6.4 re-adaptations: ε = 0 for the UH algorithms (a top-20
		// guarantee without the hidden utility), 75%-prediction stopping for
		// Preference-Learning.
		{Name: "UH-Random", Make: func(seed int64, _ float64) core.Algorithm {
			return newUH(false, seed)
		}},
		{Name: "UH-Simplex", Make: func(seed int64, _ float64) core.Algorithm {
			return newUH(true, seed)
		}},
		{Name: "Preference-Learning", Make: func(seed int64, _ float64) core.Algorithm {
			return newPLValidate(seed)
		}},
		{Name: "Active-Ranking", Make: func(seed int64, _ float64) core.Algorithm {
			return newActiveRanking(seed)
		}},
	}

	questions := make([]float64, len(specs))
	accuracy := make([]float64, len(specs))
	for si, spec := range specs {
		for p := 0; p < participants; p++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(p)*7919))
			u := oracle.RandomUtility(rng, 4)
			user := oracle.NewNoisyUser(u, UserErrRate, rng)
			alg := spec.Make(cfg.Seed+int64(p), 0)
			idx := alg.Run(band, k, user)
			questions[si] += float64(user.Questions())
			accuracy[si] += oracle.Accuracy(band, u, k, band[idx])
		}
		questions[si] /= float64(participants)
		accuracy[si] /= float64(participants)
	}
	boredom := make([]float64, len(specs))
	for i, q := range questions {
		boredom[i] = oracle.Boredom(q)
	}
	ranks := oracle.RankByBoredom(questions)

	t := newTable("Figure 16: user study (Car, top-20, noisy users)", "algorithm#", nil)
	for i := range specs {
		t.X = append(t.X, float64(i+1))
	}
	t.add("questions", "avg questions", questions)
	t.add("boredness", "degree of boredness", boredom)
	rk := make([]float64, len(ranks))
	for i, r := range ranks {
		rk[i] = float64(r)
	}
	t.add("rank", "rank (1=best)", rk)
	t.add("result accuracy", "f(p)/f(p_k)", accuracy)
	// Record the algorithm order in the title for readability.
	t.Title += " | order:"
	for _, s := range specs {
		t.Title += " " + s.Name
	}
	return t
}

// Fig17SomeTopK reproduces the Section 6.5.2 user study: returning
// k' ∈ {1,5,10,15,20} of the top-20 cars. Questions rise steeply with the
// output size and k'=1 ranks best.
func Fig17SomeTopK(cfg Config) *Table {
	cfg = cfg.withDefaults()
	carCfg := cfg
	carCfg.N = 1000
	carCfg.D = 4
	ds := buildDataset("car", carCfg)
	k := 20
	band := preprocess(ds.Points, k)
	wants := []int{1, 5, 10, 15, 20}
	participants := 3 * cfg.Trials

	t := newTable("Figure 17: returning k' of the top-20 (Car, noisy users)", "k'", floats(wants))
	for _, spec := range allTopKSpecs() {
		var qs, bs []float64
		for _, want := range wants {
			var q float64
			for p := 0; p < participants; p++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(p)*7919))
				u := oracle.RandomUtility(rng, 4)
				user := oracle.NewNoisyUser(u, UserErrRate, rng)
				alg := spec.Make(cfg.Seed + int64(p))
				alg.RunMulti(band, k, want, user)
				q += float64(user.Questions())
			}
			q /= float64(participants)
			qs = append(qs, q)
			bs = append(bs, oracle.Boredom(q))
		}
		t.add("questions", spec.Name+"-SomeTopK", qs)
		t.add("boredness", spec.Name+"-SomeTopK", bs)
		ranks := oracle.RankByBoredom(qs)
		rk := make([]float64, len(ranks))
		for i, r := range ranks {
			rk[i] = float64(r)
		}
		t.add("rank", spec.Name+"-SomeTopK", rk)
	}
	return t
}
