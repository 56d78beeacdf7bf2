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

// SessionsThroughput profiles a session's preprocessing on an
// anti-correlated dataset, one column per trial:
//
//   - The exact convex-point scan on the k-skyband: its wall-clock time and
//     its heap allocations per LP solve, which document the pooled simplex
//     scratch (DESIGN.md §14.1): the whole scan should sit at a handful of
//     allocations per solve, where the unpooled solver alone paid ~90.
//
//   - The shared preprocessing cache: time to assemble a session's
//     preprocessing (k-skyband + exact convex points) cold versus from a
//     warm prep.Cache — the per-session setup cost a high-session-count
//     server pays once instead of per session.
//
// host_cpus records the machine the times were taken on. This is the data
// behind BENCH_10.json.
func SessionsThroughput(cfg Config) *Table {
	cfg = cfg.withDefaults()
	// One representative k: small enough that the skyband is convex-point
	// heavy, matching the k of the hull micro-benchmarks.
	const k = 3
	trials := make([]int, cfg.Trials)
	for i := range trials {
		trials[i] = i + 1
	}
	tab := newTable("Sessions throughput (anti-correlated)", "trial", floats(trials))

	points := buildDataset("anti", cfg).Points
	band := preprocess(points, k)

	// The solve hook is the chaos-test seam; installing a pure counter here
	// keeps the measured code identical to production (no forked solver
	// path) and is removed before returning.
	var solves atomic.Int64
	lp.SetSolveHook(func(*lp.Result) { solves.Add(1) })
	defer lp.SetSolveHook(nil)

	// Shared preprocessing cache: the full session-setup sequence (skyband +
	// exact convex points), keyed the way the server keys them. The
	// fingerprint only namespaces keys inside the private cache; any
	// non-zero constant works (the server derives it from the dataset).
	const fp = 1
	setup := func(cache *prep.Cache) time.Duration {
		start := time.Now()
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
			vs, cerr := hull.ConvexPointsExact(pts, nil, o)
			return vs, int64(len(vs))*8 + 24, cerr
		}); err != nil {
			panic(err)
		}
		return time.Since(start)
	}

	n := cfg.Trials
	wallMS, allocs, cpus := make([]float64, n), make([]float64, n), make([]float64, n)
	coldMS, warmMS, speedup := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range n {
		var ms0, ms1 runtime.MemStats
		solves.Store(0)
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		start := time.Now()
		if _, err := hull.ConvexPointsExact(band, nil, nil); err != nil {
			panic(err)
		}
		wallMS[i] = time.Since(start).Seconds() * 1000
		runtime.ReadMemStats(&ms1)
		if s := solves.Load(); s > 0 {
			allocs[i] = float64(ms1.Mallocs-ms0.Mallocs) / float64(s)
		}
		cpus[i] = float64(runtime.NumCPU())

		cache := prep.New(0)
		cold, warm := setup(cache), setup(cache)
		coldMS[i] = cold.Seconds() * 1000
		warmMS[i] = warm.Seconds() * 1000
		if warm > 0 {
			speedup[i] = cold.Seconds() / warm.Seconds()
		}
	}

	tab.add("convex_wall_ms", "serial", wallMS)
	tab.add("allocs_per_lp_solve", "pooled_scratch", allocs)
	tab.add("host_cpus", "host", cpus)
	tab.add("preprocess_cold_ms", "cold", coldMS)
	tab.add("preprocess_cached_ms", "cached", warmMS)
	tab.add("preprocess_cache_speedup", "cold_over_cached", speedup)
	return tab
}
