package experiments

import (
	"math/rand"
	"time"

	"ist/internal/baseline"
	"ist/internal/oracle"
)

// ExtSorting evaluates the Sorting-Random / Sorting-Simplex algorithms of
// [40] that the paper discusses in Section 2 but does not benchmark. It
// measures both the display rounds [40] reports AND the underlying pairwise
// effort, substantiating the paper's argument that sorting "does not reduce
// the user effort essentially, since giving an order among tuples is
// equivalent to picking the favorite tuple several times".
func ExtSorting(cfg Config) *Table {
	cfg = cfg.withDefaults()
	ds := buildDataset("anti", cfg)
	t := newTable("Extension: sorting-based interaction [40] (anti-correlated)", "k", floats(cfg.Ks))

	type variant struct {
		name    string
		simplex bool
	}
	for _, v := range []variant{{"Sorting-Random", false}, {"Sorting-Simplex", true}} {
		var rounds, pairwise, secs []float64
		for _, k := range cfg.Ks {
			band := preprocess(ds.Points, k)
			var r, pw, sc float64
			for trial := 0; trial < cfg.Trials; trial++ {
				rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7919))
				u := oracle.RandomUtility(rng, cfg.D)
				eps := oracle.EpsilonForTopK(band, u, k)
				alg := &baseline.SortingUH{
					Simplex: v.simplex, Eps: eps, DisplaySize: 4,
					Rng: rand.New(rand.NewSource(cfg.Seed + int64(trial))),
				}
				user := oracle.NewUser(u)
				start := time.Now()
				alg.Run(band, k, user)
				sc += time.Since(start).Seconds()
				r += float64(alg.DisplayRounds())
				pw += float64(user.Questions())
			}
			f := float64(cfg.Trials)
			rounds = append(rounds, r/f)
			pairwise = append(pairwise, pw/f)
			secs = append(secs, sc/f)
		}
		t.add("display rounds", v.name, rounds)
		t.add("pairwise questions", v.name, pairwise)
		t.add("time(s)", v.name, secs)
	}

	// Reference: UH-Random's pairwise questions on the same workloads.
	var uhQ []float64
	for _, k := range cfg.Ks {
		band := preprocess(ds.Points, k)
		var pw float64
		for trial := 0; trial < cfg.Trials; trial++ {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(trial)*7919))
			u := oracle.RandomUtility(rng, cfg.D)
			eps := oracle.EpsilonForTopK(band, u, k)
			user := oracle.NewUser(u)
			(&baseline.UH{Eps: eps, Rng: rand.New(rand.NewSource(cfg.Seed + int64(trial)))}).Run(band, k, user)
			pw += float64(user.Questions())
		}
		uhQ = append(uhQ, pw/float64(cfg.Trials))
	}
	t.add("pairwise questions", "UH-Random (reference)", uhQ)
	return t
}
