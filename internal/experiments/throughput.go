package experiments

import (
	"runtime"
	"sync/atomic"
	"time"

	"ist/internal/hull"
	"ist/internal/lp"
	"ist/internal/obs"
	"ist/internal/prep"
	"ist/internal/skyband"
)

// SessionsThroughput profiles the two serving-path optimizations of the
// parallel interaction engine (DESIGN.md §14) on an anti-correlated dataset:
//
//   - The deterministic LP fan-out: wall-clock time of the exact
//     convex-point scan at 1/2/4/8 workers, plus the useful-work fraction
//     (committed LP solves / executed LP solves — speculation discarded by
//     the ordered-commit protocol is wasted work) and the projected
//     multicore speedup (workers x fraction). Wall-clock numbers are only
//     meaningful relative to host_cpus: on a single-core host every worker
//     count shares one core, so the projection is the hardware-independent
//     figure while wall time degrades by exactly the wasted-speculation
//     fraction.
//
//   - The shared preprocessing cache: time to assemble a session's
//     preprocessing (k-skyband + exact convex points) cold versus from a
//     warm prep.Cache — the per-session setup cost a high-session-count
//     server pays once instead of per session.
//
// This is the data behind BENCH_10.json.
func SessionsThroughput(cfg Config) *Table {
	cfg = cfg.withDefaults()
	// One representative k: small enough that the skyband is convex-point
	// heavy (the LP-bound regime the fan-out targets), matching the k used
	// by the parallel engine's micro-benchmarks.
	const k = 3
	workers := []int{1, 2, 4, 8}
	tab := newTable("Sessions throughput (anti-correlated)", "workers", floats(workers))

	points := buildDataset("anti", cfg).Points
	band := preprocess(points, k)

	// Total executed LP solves, including speculative solves whose results
	// the ordered commit discards. The solve hook is the chaos-test seam;
	// installing a pure counter here keeps the measured code identical to
	// production (no forked solver path) and is removed before returning.
	var executed atomic.Int64
	counting := func(*lp.Result) { executed.Add(1) }
	lp.SetSolveHook(counting)
	defer lp.SetSolveHook(nil)

	serialMS := make([]float64, len(workers))
	parallelMS := make([]float64, len(workers))
	fraction := make([]float64, len(workers))
	projected := make([]float64, len(workers))
	cpus := make([]float64, len(workers))

	// Committed (useful) solves are identical at every worker count — that
	// is the determinism contract — so measure them once, serially. The same
	// run yields heap allocations per LP solve, documenting the pooled
	// simplex-scratch path (DESIGN.md §14.2): the whole scan should sit at a
	// handful of allocations per solve (the returned vertex plus scan
	// bookkeeping), where the unpooled solver alone paid ~90.
	c := obs.NewCounting()
	var ms0, ms1 runtime.MemStats
	executed.Store(0)
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	serial, err := hull.ConvexPointsExact(band, nil, c, 1)
	if err != nil {
		panic(err)
	}
	serialSec := time.Since(start).Seconds()
	runtime.ReadMemStats(&ms1)
	useful := float64(c.Count(obs.KindLPSolve))
	var allocsPerSolve float64
	if n := executed.Load(); n > 0 {
		allocsPerSolve = float64(ms1.Mallocs-ms0.Mallocs) / float64(n)
	}

	for xi, w := range workers {
		var sec float64
		var exec int64
		for trial := 0; trial < cfg.Trials; trial++ {
			executed.Store(0)
			start := time.Now()
			v, err := hull.ConvexPointsExact(band, nil, nil, w)
			sec += time.Since(start).Seconds()
			if err != nil {
				panic(err)
			}
			exec += executed.Load()
			if len(v) != len(serial) {
				panic("sessions-throughput: parallel scan diverged from serial")
			}
		}
		f := float64(cfg.Trials)
		parallelMS[xi] = sec / f * 1000
		serialMS[xi] = serialSec * 1000
		if exec > 0 {
			fraction[xi] = useful * f / float64(exec)
		}
		projected[xi] = float64(w) * fraction[xi]
		cpus[xi] = float64(runtime.NumCPU())
	}

	tab.add("convex_wall_ms", "parallel", parallelMS)
	tab.add("convex_wall_ms", "serial", serialMS)
	tab.add("useful_work_fraction", "measured", fraction)
	tab.add("projected_multicore_speedup", "workers_x_fraction", projected)
	tab.add("host_cpus", "host", cpus)
	alloc := make([]float64, len(workers))
	for xi := range alloc {
		alloc[xi] = allocsPerSolve
	}
	tab.add("allocs_per_lp_solve", "pooled_scratch", alloc)

	// Shared preprocessing cache: cold populate vs warm replay of the full
	// session-setup sequence (skyband + exact convex points), keyed the way
	// the server keys them.
	cache := prep.New(0)
	// The fingerprint only namespaces keys inside this private cache; any
	// non-zero constant works (the server derives it from the dataset).
	const fp = 1
	setup := func() {
		bandKey := prep.Key{Fingerprint: fp, Kind: "skyband", Param: k}
		v, err := cache.Do(bandKey, nil, func(obs.Observer) (any, int64, error) {
			idx := skyband.KSkyband(points, k)
			return idx, int64(len(idx))*8 + 24, nil
		})
		if err != nil {
			panic(err)
		}
		pts := skyband.Filter(points, v.([]int))
		convexKey := prep.Key{Fingerprint: fp, Kind: "convex-exact"}
		if _, err := cache.Do(convexKey, nil, func(o obs.Observer) (any, int64, error) {
			vs, cerr := hull.ConvexPointsExact(pts, nil, o, 1)
			return vs, int64(len(vs))*8 + 24, cerr
		}); err != nil {
			panic(err)
		}
	}
	start = time.Now()
	setup()
	coldSec := time.Since(start).Seconds()
	var warmSec float64
	for trial := 0; trial < cfg.Trials; trial++ {
		start = time.Now()
		setup()
		warmSec += time.Since(start).Seconds()
	}
	warmSec /= float64(cfg.Trials)

	coldMS := make([]float64, len(workers))
	warmMS := make([]float64, len(workers))
	speedup := make([]float64, len(workers))
	for xi := range workers {
		coldMS[xi] = coldSec * 1000
		warmMS[xi] = warmSec * 1000
		if warmSec > 0 {
			speedup[xi] = coldSec / warmSec
		}
	}
	tab.add("preprocess_cold_ms", "cold", coldMS)
	tab.add("preprocess_cached_ms", "cached", warmMS)
	tab.add("preprocess_cache_speedup", "cold_over_cached", speedup)

	return tab
}
