// Command dialoguebench measures complete, verified IST dialogues end to end
// and, in a separate traced run, layer by layer.
//
//	bash dialoguebench/run.sh --workload serve-rh --seed 1 --seconds 30 --trace 0
//
// It prints a context line (host, digest of the pinned transcripts) and, as
// its last line, one JSON object with the run's correctness, operation counts
// and metrics: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. README.md describes the workloads and every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ist/internal/obs"
	"ist/internal/wal"
)

// A run repeats identical set-ups, at least minSetups of them and more until
// they have taken setupSpan, and keeps the last for the timed phase; setup_s
// is their median. A set-up that takes a fraction of a second (serve-2d) is
// then repeated over several of the host's second-long slow spells rather
// than timed inside one.
const (
	minSetups = 3
	setupSpan = 4 * time.Second
)

// windows is how many consecutive windows dialogues_per_s takes its median
// over.
const windows = 10

type metric struct {
	name, unit string
}

var endToEnd = []metric{
	{"dialogues_per_s", "1/s"},
	{"first_question_mean_ms", "ms"},
	{"first_question_p90_ms", "ms"},
	{"next_question_mean_ms", "ms"},
	{"next_question_p90_ms", "ms"},
	{"questions_per_dialogue", "count"},
	{"questions_vs_lower", "ratio"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metric{
	{"client.create_p50_ms", "ms"},
	{"client.answer_p50_ms", "ms"},
	{"client.answer_p99_ms", "ms"},
	{"client.delete_p50_ms", "ms"},
	{"client.retries", "count"},
	{"client.transport_p50_ms", "ms"},
	{"server.create_p50_ms", "ms"},
	{"server.answer_p50_ms", "ms"},
	{"server.delete_p50_ms", "ms"},
	{"server.answer_self_p50_ms", "ms"},
	{"server.refused", "count"},
	{"server.sessions_live_max", "count"},
	{"wal.create_p50_ms", "ms"},
	{"wal.answer_p50_ms", "ms"},
	{"wal.finish_p50_ms", "ms"},
	{"wal.appends_per_dialogue", "count"},
	{"wal.fsyncs_per_dialogue", "count"},
	{"wal.snapshots", "count"},
	{"obs.events_per_question", "count"},
	{"obs.observer_us_per_question", "us"},
	{"obs.replayed_events_per_session", "count"},
	{"core.setup_p50_ms", "ms"},
	{"core.question_p50_ms", "ms"},
	{"core.question_p90_ms", "ms"},
	{"core.partitions_p50_ms", "ms"},
	{"polytope.cuts_per_question", "count"},
	{"core.stop_checks_per_question", "count"},
	{"prep.hit_ratio", "ratio"},
	{"prep.misses_per_dialogue", "count"},
	{"prep.bytes", "bytes"},
	{"skyband.p50_ms", "ms"},
	{"sweep.cold_ms", "ms"},
	{"hull.convex_p50_ms", "ms"},
	{"hull.candidates_mean", "count"},
	{"hull.convex_points_mean", "count"},
	{"lp.solves_per_dialogue", "count"},
	{"lp.solve_p50_us", "us"},
	{"lp.solve_p90_us", "us"},
	{"lp.iterations_mean", "count"},
	{"lp.non_optimal", "count"},
	{"parallel.useful_fraction", "ratio"},
	{"go.alloc_kb_per_dialogue", "KB"},
	{"go.gc_per_1k_dialogues", "count"},
	{"go.gc_pause_ms", "ms"},
	{"go.heap_peak_mb", "MB"},
	{"setup.catalog_s", "s"},
	{"setup.skyband_s", "s"},
	{"setup.server_s", "s"},
	{"setup.warmup_s", "s"},
	{"trace.overhead_share", "ratio"},
	{"trace.nesting_violations", "count"},
}

type config struct {
	sp      spec
	seed    int64
	seconds int
	trace   bool
	workdir string
}

type result struct {
	correct           bool
	attempted, failed int64
	values            map[string]float64
	context           map[string]any
}

func main() {
	workload := flag.String("workload", "", "serve-2d | serve-rh | embed-slices")
	seed := flag.Int64("seed", 1, "workload seed: every input derives from it")
	seconds := flag.Int("seconds", 30, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the run's WAL files")
	flag.Parse()
	sp, ok := specs[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: dialoguebench --workload serve-2d|serve-rh|embed-slices --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	res, err := run(config{sp: sp, seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir})
	if err != nil {
		fmt.Fprintln(os.Stderr, "dialoguebench:", err)
		os.Exit(1)
	}
	names := endToEnd
	if *trace == 1 {
		names = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range names {
		v, ok := res.values[m.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "dialoguebench: metric %s not measured\n", m.name)
			os.Exit(1)
		}
		out.Metrics[m.name] = value{v, m.unit}
	}
	ctx, err := json.Marshal(res.context)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dialoguebench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dialoguebench:", err)
		os.Exit(1)
	}
	fmt.Printf("context %s\n%s\n", ctx, line)
}

func run(cfg config) (*result, error) {
	sp := cfg.sp
	dir, err := filepath.Abs(filepath.Join(cfg.workdir, fmt.Sprintf("run-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var t *tracer
	if cfg.trace {
		t = newTracer()
	}
	rs := &runState{pins: make([]pinned, sp.warmup+sp.pinned)}
	res := &result{values: map[string]float64{}, context: map[string]any{}}

	// Identical set-ups; the last is kept. Their warm-up transcripts must
	// agree with each other, a determinism check on every run.
	var (
		e        env
		times    []setupTimes
		warmSums = map[string]bool{}
		begin    = time.Now()
	)
	for i := 0; ; i++ {
		var st setupTimes
		if sp.served {
			e, st, err = setupServed(sp, cfg.seed, filepath.Join(dir, fmt.Sprintf("wal-%d", i)), t, rs)
		} else {
			e, st, err = setupEmbedded(sp, cfg.seed, t, rs)
		}
		if err != nil {
			return nil, err
		}
		clear(rs.pins)
		start := time.Now()
		warmUp(e, sp.warmup)
		st.warmup = time.Since(start)
		times = append(times, st)
		warm := rs.pins[:sp.warmup]
		if n := recorded(warm); n != sp.warmup {
			e.close()
			return nil, fmt.Errorf("warm-up completed %d of %d dialogues", n, sp.warmup)
		}
		sum, _, _ := digest(warm)
		warmSums[sum] = true
		if i+1 >= minSetups && time.Since(begin) >= setupSpan {
			break
		}
		e.close()
		runtime.GC()
	}
	defer e.close()
	runtime.GC()

	span := time.Duration(cfg.seconds) * time.Second
	rs.pinnedLeft.Store(int64(sp.pinned))
	var measured *driverOut
	var tracedSpan time.Duration
	if !cfg.trace {
		measured = runPhase(&phase{span: span, must: int64(sp.pinned)}, drivers, e.dialogue)
	} else {
		// Half the run with the wrappers forwarding only, half recording:
		// the pair gives trace.overhead_share.
		half := span / 2
		untraced := runPhase(&phase{span: half, must: int64(sp.pinned)}, drivers, e.dialogue)
		runtime.GC()
		measured = traceLayers(e, t, half, res.values)
		tracedSpan = half
		res.values["trace.overhead_share"] = ratio(measured.meanWallMS(), untraced.meanWallMS()) - 1
	}

	sum, qmean, vsLower := digest(rs.pins)
	pinnedDone := recorded(rs.pins)
	res.correct = rs.wrong.Load() == 0 && rs.protocol.Load() == 0 && len(warmSums) == 1 && pinnedDone == len(rs.pins)
	res.attempted, res.failed = rs.attempted.Load(), rs.failed.Load()
	if res.attempted == 0 {
		return nil, errors.New("no operation attempted")
	}

	var totals, cat, sky, srv, wu []float64
	for _, st := range times {
		totals = append(totals, st.total().Seconds())
		cat = append(cat, st.catalog.Seconds())
		sky = append(sky, st.skyband.Seconds())
		srv = append(srv, st.server.Seconds())
		wu = append(wu, st.warmup.Seconds())
	}
	rss := rs.rssAtPinned.Load()
	if rss == 0 {
		rss = peakRSSKB()
	}
	v := res.values
	if !cfg.trace {
		v["dialogues_per_s"] = windowRate(measured.perWindow, span)
		v["first_question_mean_ms"] = measured.first.mean()
		v["first_question_p90_ms"] = measured.first.quantile(0.90)
		v["next_question_mean_ms"] = measured.next.mean()
		v["next_question_p90_ms"] = measured.next.quantile(0.90)
		v["questions_per_dialogue"] = qmean
		v["questions_vs_lower"] = vsLower
		v["setup_s"] = median(totals)
		v["peak_rss_mb"] = float64(rss) / 1024
	}
	v["setup.catalog_s"] = median(cat)
	v["setup.skyband_s"] = median(sky)
	v["setup.server_s"] = median(srv)
	v["setup.warmup_s"] = median(wu)
	if cfg.trace && sp.served {
		// Served dialogues reuse the skyband computed in set-up.
		v["skyband.p50_ms"] = median(sky) * 1e3
	}

	walFS := fsName(dir)
	if sp.served {
		walFS += " (fsync elided, as on tmpfs)"
	} else {
		walFS = "none (embedded)"
	}
	for k, x := range map[string]any{
		"workload":          sp.name,
		"seed":              cfg.seed,
		"trace":             cfg.trace,
		"host_cpus":         runtime.NumCPU(),
		"gomaxprocs":        runtime.GOMAXPROCS(0),
		"go_version":        runtime.Version(),
		"wal_fs":            walFS,
		"drivers":           drivers,
		"digest":            sum,
		"pinned_dialogues":  pinnedDone,
		"dialogues":         measured.dialogues,
		"wrong_results":     rs.wrong.Load(),
		"protocol_errors":   rs.protocol.Load(),
		"warmup_digests_ok": len(warmSums) == 1,
		"setups_s":          totals,
	} {
		res.context[k] = x
	}
	if cfg.trace {
		res.context["traced_seconds"] = tracedSpan.Seconds()
	}
	return res, nil
}

// traceLayers runs the recording half of a traced run and fills in the
// per-layer metrics.
func traceLayers(e env, t *tracer, span time.Duration, v map[string]float64) *driverOut {
	var (
		reg        *obs.Registry
		prepBefore = e.prep().Stats()
		walBefore  walCounts
		memBefore  runtime.MemStats
		memAfter   runtime.MemStats
	)
	if s, ok := e.(*servedEnv); ok {
		reg = s.reg
		walBefore = readWAL(reg)
	}
	runtime.ReadMemStats(&memBefore)
	heap := startHeapSampler()
	t.start()
	out := runPhase(&phase{span: span}, drivers, e.dialogue)
	t.stop()
	heapPeak := heap.Stop()
	runtime.ReadMemStats(&memAfter)
	prepAfter := e.prep().Stats()

	n := float64(out.dialogues)
	l := t.layer
	questions := float64(l.questions)

	v["client.create_p50_ms"] = quantile(out.clientMS["create"], 0.50)
	v["client.answer_p50_ms"] = quantile(out.clientMS["answer"], 0.50)
	v["client.answer_p99_ms"] = quantile(out.clientMS["answer"], 0.99)
	v["client.delete_p50_ms"] = quantile(out.clientMS["delete"], 0.50)
	v["client.retries"] = float64(out.attempts - out.requests)
	v["client.transport_p50_ms"] = quantile(out.transport, 0.50)
	v["server.create_p50_ms"] = quantile(out.serverMS["create"], 0.50)
	v["server.answer_p50_ms"] = quantile(out.serverMS["answer"], 0.50)
	v["server.delete_p50_ms"] = quantile(out.serverMS["delete"], 0.50)
	v["server.answer_self_p50_ms"] = quantile(out.self, 0.50)
	v["server.refused"] = float64(t.refused.Load())
	v["server.sessions_live_max"] = float64(t.liveMax.Load())

	t.mu.Lock()
	v["wal.create_p50_ms"] = quantile(t.wal["create"], 0.50)
	v["wal.answer_p50_ms"] = quantile(t.wal["answer"], 0.50)
	v["wal.finish_p50_ms"] = quantile(t.wal["finish"], 0.50)
	t.mu.Unlock()
	if reg != nil {
		w := readWAL(reg)
		v["wal.appends_per_dialogue"] = ratio(float64(w.appends-walBefore.appends), n)
		v["wal.fsyncs_per_dialogue"] = ratio(float64(w.fsyncs-walBefore.fsyncs), n)
		v["wal.snapshots"] = float64(w.snapshots - walBefore.snapshots)
	} else {
		v["wal.appends_per_dialogue"], v["wal.fsyncs_per_dialogue"], v["wal.snapshots"] = 0, 0, 0
	}

	v["obs.events_per_question"] = ratio(float64(l.events), questions)
	v["obs.observer_us_per_question"] = ratio(float64(l.observerNs)/1e3, questions)
	v["obs.replayed_events_per_session"] = ratio(float64(l.setupEvents), float64(l.sessions))
	v["core.setup_p50_ms"] = quantile(l.setup, 0.50)
	v["core.question_p50_ms"] = quantile(l.question, 0.50)
	v["core.question_p90_ms"] = quantile(l.question, 0.90)
	v["core.partitions_p50_ms"] = quantile(l.partitions, 0.50)
	v["polytope.cuts_per_question"] = ratio(float64(l.cuts), questions)
	v["core.stop_checks_per_question"] = ratio(float64(l.stopChecks), questions)

	hits, misses := prepAfter.Hits-prepBefore.Hits, prepAfter.Misses-prepBefore.Misses
	v["prep.hit_ratio"] = ratio(float64(hits), float64(hits+misses))
	v["prep.misses_per_dialogue"] = ratio(float64(misses), n)
	v["prep.bytes"] = float64(prepAfter.Bytes)

	v["skyband.p50_ms"] = quantile(out.skyband, 0.50)
	v["sweep.cold_ms"] = 0
	if s, ok := e.(*servedEnv); ok && s.sp.alg == "2dpi" {
		v["sweep.cold_ms"] = ms(time.Duration(t.coldSetupNs.Load()))
	}
	v["hull.convex_p50_ms"] = quantile(l.convex, 0.50)
	v["hull.candidates_mean"] = ratio(float64(l.convexTests), float64(l.sessions))
	v["hull.convex_points_mean"] = ratio(float64(l.convexOK), float64(l.sessions))
	v["lp.solves_per_dialogue"] = ratio(float64(t.lpExecuted.Load()), n)
	v["lp.solve_p50_us"] = quantile(l.lpSolveUS, 0.50)
	v["lp.solve_p90_us"] = quantile(l.lpSolveUS, 0.90)
	v["lp.iterations_mean"] = ratio(float64(l.lpIters), float64(l.lpCommitted))
	v["lp.non_optimal"] = float64(l.lpNonOptimal)
	v["parallel.useful_fraction"] = ratio(float64(l.lpCommitted), float64(t.lpExecuted.Load()))

	v["go.alloc_kb_per_dialogue"] = ratio(float64(memAfter.TotalAlloc-memBefore.TotalAlloc)/1024, n)
	gcs := float64(memAfter.NumGC - memBefore.NumGC)
	v["go.gc_per_1k_dialogues"] = ratio(gcs*1000, n)
	v["go.gc_pause_ms"] = ratio(float64(memAfter.PauseTotalNs-memBefore.PauseTotalNs)/1e6, gcs)
	v["go.heap_peak_mb"] = heapPeak
	v["trace.nesting_violations"] = float64(out.nesting)
	return out
}

type walCounts struct{ appends, fsyncs, snapshots int64 }

// readWAL reads the WAL's own counters from the registry istserve exposes
// on /metrics (registering an existing name returns the existing metric).
func readWAL(reg *obs.Registry) walCounts {
	return walCounts{
		appends:   reg.Counter(wal.MetricAppends, "").Value(),
		fsyncs:    int64(reg.Histogram(wal.MetricFsyncSeconds, "", obs.FsyncBuckets).Count()),
		snapshots: reg.Counter(wal.MetricSnapshots, "").Value(),
	}
}
