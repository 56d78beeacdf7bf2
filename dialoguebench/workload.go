package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ist"
	"ist/client"
	"ist/internal/obs"
	"ist/internal/server"
	"ist/internal/wal"
)

// drivers is the closed-loop client count: each driver starts its next
// dialogue only when the last one has ended, as a person answering one
// question at a time would. One driver leaves the second core of a 2-vCPU
// host to the runtime, the server's goroutines and the LP workers: with two
// drivers on two vCPUs every run also measured how the host and the Go
// scheduler shared both cores among them, and interleaved embed-slices runs
// of identical code spread about three times as wide (README.md,
// Steadiness).
const drivers = 1

// prepCacheBytes is istserve's default -preprocess-cache-max-bytes.
const prepCacheBytes = 64 << 20

// spec is one workload: a catalog, an algorithm and how dialogues reach it.
type spec struct {
	name    string
	served  bool // over HTTP through ist/client, else in-process sessions
	alg     string
	catalog string
	n, d, k int
	slice   int // embedded dialogues: tuples drawn per dialogue
	warmup  int // dialogues run in set-up, before timing
	// pinned is how many timed dialogues every run completes: the transcript
	// digest and the question counts cover them, and peak_rss_mb is read when
	// the last one ends. Each is sized to end about 18 s into a 30-s phase on
	// the 2-vCPU host the benchmark was built on, so that reading covers most
	// of the phase yet the same work on every run, and a host a third slower
	// still ends them within the phase.
	pinned int
}

var specs = map[string]spec{
	"serve-2d":     {name: "serve-2d", served: true, alg: "2dpi", catalog: "island", n: 63383, d: 2, k: 5, warmup: 256, pinned: 40000},
	"serve-rh":     {name: "serve-rh", served: true, alg: "rh", catalog: "car", n: 68010, d: 4, k: 20, warmup: 256, pinned: 800},
	"embed-slices": {name: "embed-slices", alg: "hdpi-accurate", catalog: "car", n: 68010, d: 4, k: 10, slice: 1000, warmup: 32, pinned: 270},
}

// catalogSeed generates the catalogs. They stand in for the paper's real
// Island and Car datasets, which stay the same from one user to the next,
// and a catalog drawn from another seed changes the work itself (Island
// skybands range from 58 to 100 points over seeds 1-12), so they are fixed;
// everything a user brings derives from the workload seed. 1 is istserve's
// default -seed.
const catalogSeed = 1

func (sp spec) catalogPoints() ([]ist.Point, error) {
	ds, err := ist.DatasetByName(sp.catalog, rand.New(rand.NewSource(catalogSeed)), sp.n, sp.d)
	if err != nil {
		return nil, err
	}
	return ds.Points, nil
}

func utility(seed, num int64, d int) ist.Point {
	return ist.RandomUtility(rand.New(rand.NewSource(subSeed(seed, streamUtility, num))), d)
}

// runState counts operations and output errors over the whole run.
type runState struct {
	attempted, failed atomic.Int64
	wrong, protocol   atomic.Int64
	// pins holds the record of pinned dialogue i at index i-1: warm-up
	// dialogues first, then the pinned timed ones. It is allocated once,
	// before the first set-up, so that the benchmark's own memory does not
	// grow with the dialogues it drives.
	pins []pinned
	// pinnedLeft counts the pinned timed dialogues still running; the one
	// that brings it to zero reads the peak RSS, so peak_rss_mb covers the
	// same work on every run however fast the host is.
	pinnedLeft  atomic.Int64
	rssAtPinned atomic.Uint64
}

// pin records pinned dialogue num, and reads the peak RSS once the last
// pinned timed dialogue has ended. Each num is recorded by one driver, and
// pins is read only once every driver of the phase has returned.
func (r *runState) pin(p pinned, timed bool) {
	r.pins[p.num-1] = p
	if timed && r.pinnedLeft.Add(-1) == 0 {
		r.rssAtPinned.Store(peakRSSKB())
	}
}

// phase is one stretch of dialogues: a fixed count (warm-up), or a time span
// that is extended until the pinned dialogues have all started.
type phase struct {
	start   time.Time
	span    time.Duration
	limit   int64
	must    int64
	claimed atomic.Int64
}

func (p *phase) next() bool {
	c := p.claimed.Add(1)
	if p.limit > 0 {
		return c <= p.limit
	}
	return c <= p.must || time.Since(p.start) < p.span
}

// driverOut is what one driver records over a phase. Outside traced phases
// its size does not depend on how many dialogues the phase drives.
type driverOut struct {
	first, next *hist // a failed request is a miss
	dialogues   int64
	perWindow   [windows]int64 // dialogues completed in each window of the phase
	wallMS      float64        // summed wall time of the dialogues

	// Traced phases only.
	clientMS, serverMS map[string][]float64
	transport, self    []float64
	skyband            []float64
	nesting, requests  int64
	attempts           int64
}

func newDriverOut() *driverOut {
	return &driverOut{first: newHist(), next: newHist(), clientMS: map[string][]float64{}, serverMS: map[string][]float64{}}
}

// finished records a completed dialogue and its wall time.
func (o *driverOut) finished(ph *phase, wall time.Duration) {
	o.dialogues++
	o.wallMS += ms(wall)
	if ph.span > 0 {
		if i := time.Since(ph.start) / (ph.span / windows); i < windows {
			o.perWindow[i]++
		}
	}
}

func (o *driverOut) meanWallMS() float64 { return ratio(o.wallMS, float64(o.dialogues)) }

func merge(outs []*driverOut) *driverOut {
	m := newDriverOut()
	for _, o := range outs {
		m.first.merge(o.first)
		m.next.merge(o.next)
		m.dialogues += o.dialogues
		for i, c := range o.perWindow {
			m.perWindow[i] += c
		}
		m.wallMS += o.wallMS
		for k, v := range o.clientMS {
			m.clientMS[k] = append(m.clientMS[k], v...)
		}
		for k, v := range o.serverMS {
			m.serverMS[k] = append(m.serverMS[k], v...)
		}
		m.transport = append(m.transport, o.transport...)
		m.self = append(m.self, o.self...)
		m.skyband = append(m.skyband, o.skyband...)
		m.nesting += o.nesting
		m.requests += o.requests
		m.attempts += o.attempts
	}
	return m
}

// runPhase drives dialogues from n closed-loop drivers until the phase ends
// and every started dialogue has finished.
func runPhase(ph *phase, n int, dialogue func(d int, ph *phase, out *driverOut)) *driverOut {
	ph.start = time.Now()
	outs := make([]*driverOut, n)
	var wg sync.WaitGroup
	for d := 0; d < n; d++ {
		outs[d] = newDriverOut()
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for ph.next() {
				dialogue(d, ph, outs[d])
			}
		}(d)
	}
	wg.Wait()
	return merge(outs)
}

// env is a workload set up and ready to drive.
type env interface {
	dialogue(d int, ph *phase, out *driverOut)
	prep() *ist.PreprocessCache
	close()
}

type setupTimes struct{ catalog, skyband, server, warmup time.Duration }

func (s setupTimes) total() time.Duration { return s.catalog + s.skyband + s.server + s.warmup }

// warmUp runs the set-up dialogues: the first alone, so that it is the one
// that fills the preprocessing cache, then the rest from every driver.
func warmUp(e env, count int) {
	runPhase(&phase{limit: 1}, 1, e.dialogue)
	runPhase(&phase{limit: int64(count - 1)}, drivers, e.dialogue)
}

// servedEnv is an in-process istserve behind a loopback listener, built with
// cmd/istserve's defaults, and one ist/client per driver.
type servedEnv struct {
	sp       spec
	seed     int64
	band     []ist.Point
	cache    *ist.PreprocessCache
	reg      *obs.Registry
	srv      *server.Server
	hs       *http.Server
	serveErr chan error
	walDir   string
	t        *tracer
	run      *runState
	clients  [drivers]*servedClient
}

type servedClient struct {
	cl *client.Client
	rt *transport
}

// transport counts attempts and failures and keeps the last status, so a
// driver can check what DELETE answered; in traced phases it tags requests
// with the driver's index.
type transport struct {
	base     *http.Transport
	tag      string
	t        *tracer
	run      *runState
	last     atomic.Int32
	attempts atomic.Int64
}

func (t *transport) RoundTrip(r *http.Request) (*http.Response, error) {
	if t.t != nil && t.t.on.Load() {
		r = r.Clone(r.Context())
		r.Header.Set(driverHeader, t.tag)
	}
	t.run.attempted.Add(1)
	t.attempts.Add(1)
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.run.failed.Add(1)
		return nil, err
	}
	if resp.StatusCode >= 400 {
		t.run.failed.Add(1)
	}
	t.last.Store(int32(resp.StatusCode))
	return resp, nil
}

func setupServed(sp spec, seed int64, walDir string, t *tracer, run *runState) (*servedEnv, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	points, err := sp.catalogPoints()
	if err != nil {
		return nil, st, err
	}
	st.catalog = time.Since(start)

	start = time.Now()
	cache := ist.NewPreprocessCache(prepCacheBytes)
	band := ist.PreprocessCached(cache, points, sp.k)
	st.skyband = time.Since(start)

	start = time.Now()
	reg := obs.NewRegistry()
	ws, err := server.OpenWALStore(walDir, server.WALOptions{
		Fsync:         wal.SyncAlways,
		FsyncEvery:    100 * time.Millisecond,
		SnapshotEvery: 256,
		Metrics:       wal.NewMetrics(reg),
		FS:            tmpfsFS{wal.OS},
	})
	if err != nil {
		return nil, st, err
	}
	opt := server.Options{
		Seed:             seed,
		TTL:              15 * time.Minute,
		ReapInterval:     time.Minute,
		MaxSessions:      1024,
		Store:            ws,
		Tracing:          true,
		Metrics:          reg,
		MaxInflight:      256,
		AdmissionTimeout: 250 * time.Millisecond,
		Parallelism:      runtime.GOMAXPROCS(0),
		PrepCache:        cache,
	}
	if t != nil {
		opt.Store = &store{inner: ws, t: t}
		opt.WrapAlgorithm = t.wrapAlgorithm
		t.coldPending.Store(true)
	}
	srv, err := server.New(band, sp.k, opt)
	if err != nil {
		_ = ws.Close()
		return nil, st, err
	}
	var handler http.Handler = srv
	if t != nil {
		handler = t.middleware(srv)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, st, err
	}
	e := &servedEnv{
		sp: sp, seed: seed, band: band, cache: cache, reg: reg, srv: srv, walDir: walDir, t: t, run: run,
		serveErr: make(chan error, 1),
		hs: &http.Server{
			Handler:           handler,
			ReadHeaderTimeout: 5 * time.Second,
			ReadTimeout:       15 * time.Second,
			WriteTimeout:      30 * time.Second,
			IdleTimeout:       2 * time.Minute,
		},
	}
	go func() { e.serveErr <- e.hs.Serve(ln) }()
	base := "http://" + ln.Addr().String()
	for d := range e.clients {
		rt := &transport{base: &http.Transport{MaxIdleConnsPerHost: 2}, tag: strconv.Itoa(d), t: t, run: run}
		cl, err := client.New(base, client.Options{
			HTTP: &http.Client{Transport: rt},
			Rand: rand.New(rand.NewSource(subSeed(seed, streamClient, int64(d)))),
		})
		if err != nil {
			e.close()
			return nil, st, err
		}
		e.clients[d] = &servedClient{cl: cl, rt: rt}
	}
	st.server = time.Since(start)
	return e, st, nil
}

func (e *servedEnv) prep() *ist.PreprocessCache { return e.cache }

func (e *servedEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := e.hs.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "dialoguebench: shutdown:", err)
	}
	if err := <-e.serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "dialoguebench: serve:", err)
	}
	for _, c := range e.clients {
		if c != nil {
			c.rt.base.CloseIdleConnections()
		}
	}
	e.srv.Close()
	if err := os.RemoveAll(e.walDir); err != nil {
		fmt.Fprintln(os.Stderr, "dialoguebench:", err)
	}
}

// traceRequest matches one client call with the handler, WAL and core time
// it caused, in a traced phase.
func (e *servedEnv) traceRequest(d int, kind, id string, clientDur time.Duration, out *driverOut) {
	t := e.t
	if t == nil || !t.on.Load() {
		return
	}
	h := t.handlerNs[d].Swap(0)
	var walNs, coreNs int64
	if a := t.acc(id); a != nil {
		walNs, coreNs = a.walNs.Swap(0), a.coreNs.Swap(0)
	}
	c := int64(clientDur)
	out.clientMS[kind] = append(out.clientMS[kind], ms(clientDur))
	out.serverMS[kind] = append(out.serverMS[kind], ms(time.Duration(h)))
	out.transport = append(out.transport, ms(time.Duration(c-h)))
	if kind == "answer" {
		out.self = append(out.self, ms(time.Duration(h-walNs-coreNs)))
	}
	// A create persists the session while the algorithm sets up on its own
	// goroutine, so there WAL and core time overlap and each must fit in the
	// handler; an answer persists first and computes after.
	inner := walNs + coreNs
	if kind == "create" {
		inner = max(walNs, coreNs)
	}
	if inner > h || h > c {
		out.nesting++
	}
	out.requests++
}

// dialogue runs one verified dialogue over HTTP: create, answer every
// question as the dialogue's hidden utility dictates, check the result and
// the protocol, and DELETE the session.
func (e *servedEnv) dialogue(d int, ph *phase, out *driverOut) {
	ctx := context.Background()
	c := e.clients[d]
	traced := e.t != nil && e.t.on.Load()
	attempts0 := c.rt.attempts.Load()

	begin := time.Now()
	start := begin
	sess, err := c.cl.Create(ctx, e.sp.alg)
	dur := time.Since(start)
	if err != nil {
		out.first.add(miss)
		fmt.Fprintln(os.Stderr, "dialoguebench: create:", err)
		return
	}
	out.first.add(ms(dur))
	id := sess.ID()
	e.traceRequest(d, "create", id, dur, out)
	var num int64
	if _, err := fmt.Sscanf(id, "s%d", &num); err != nil {
		e.run.protocol.Add(1)
	}

	u := utility(e.seed, num, e.sp.d)
	user := ist.NewUser(u)
	tr := newTranscript()
	st := sess.State()
	ok, errored := st.Seq == 0, false
	for applied := 0; !st.Done && ok; {
		if st.Question == nil {
			ok = false
			break
		}
		p, q := st.Question.Option1, st.Question.Option2
		preferFirst := user.Prefer(p, q)
		tr.question(p, q, preferFirst)
		prefer := 2
		if preferFirst {
			prefer = 1
		}
		start = time.Now()
		st, err = sess.Answer(ctx, prefer)
		dur = time.Since(start)
		if err != nil {
			out.next.add(miss)
			fmt.Fprintln(os.Stderr, "dialoguebench: answer:", err)
			ok, errored = false, true
			break
		}
		out.next.add(ms(dur))
		e.traceRequest(d, "answer", id, dur, out)
		applied++
		// seq counts the answers applied; a finished session carries no
		// question.
		ok = st.Seq == applied && st.Questions == applied && (st.Done == (st.Question == nil))
	}
	switch {
	case errored: // counted as failed by the transport
	case !ok:
		e.run.protocol.Add(1)
	case !ist.IsTopK(e.band, u, e.sp.k, st.Result):
		e.run.wrong.Add(1)
	}

	start = time.Now()
	err = sess.Close(ctx)
	dur = time.Since(start)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dialoguebench: delete:", err)
	} else if c.rt.last.Load() != http.StatusNoContent {
		e.run.protocol.Add(1)
	}
	e.traceRequest(d, "delete", id, dur, out)
	if traced {
		e.t.retire(id, e.t.acc(id))
		out.attempts += c.rt.attempts.Load() - attempts0
	}
	out.finished(ph, time.Since(begin))
	if ok && num >= 1 && num <= int64(len(e.run.pins)) {
		e.run.pin(tr.finish(num, st.Result, len(e.band), e.sp.k), num > int64(e.sp.warmup))
	}
}

// embedEnv runs dialogues in-process: each draws its own slice of the
// catalog and runs HD-PI (accurate) on it, configured as istserve configures
// its algorithms.
type embedEnv struct {
	sp      spec
	seed    int64
	catalog []ist.Point
	cache   *ist.PreprocessCache
	workers int
	t       *tracer
	run     *runState
	seq     atomic.Int64
}

func setupEmbedded(sp spec, seed int64, t *tracer, run *runState) (*embedEnv, setupTimes, error) {
	var st setupTimes
	start := time.Now()
	points, err := sp.catalogPoints()
	if err != nil {
		return nil, st, err
	}
	st.catalog = time.Since(start)
	start = time.Now()
	e := &embedEnv{sp: sp, seed: seed, catalog: points, cache: ist.NewPreprocessCache(prepCacheBytes),
		workers: runtime.GOMAXPROCS(0), t: t, run: run}
	st.server = time.Since(start)
	return e, st, nil
}

func (e *embedEnv) prep() *ist.PreprocessCache { return e.cache }
func (e *embedEnv) close()                     {}

// slice draws dialogue num's uniform random sample of the catalog.
func (e *embedEnv) slice(num int64) []ist.Point {
	rng := rand.New(rand.NewSource(subSeed(e.seed, streamSlice, num)))
	seen := make(map[int]bool, e.sp.slice)
	out := make([]ist.Point, 0, e.sp.slice)
	for len(out) < e.sp.slice {
		i := rng.Intn(len(e.catalog))
		if !seen[i] {
			seen[i] = true
			out = append(out, e.catalog[i])
		}
	}
	return out
}

func (e *embedEnv) dialogue(d int, ph *phase, out *driverOut) {
	num := e.seq.Add(1)
	slice := e.slice(num)
	u := utility(e.seed, num, e.sp.d)
	user := ist.NewUser(u)
	traced := e.t != nil && e.t.on.Load()
	e.run.attempted.Add(1)

	begin := time.Now()
	band := ist.PreprocessCached(e.cache, slice, e.sp.k)
	skyband := time.Since(begin)
	var alg ist.Algorithm = ist.NewHDPIAccurate(subSeed(e.seed, streamAlgorithm, num))
	var acc *sessAcc
	if e.t != nil {
		acc = &sessAcc{record: traced}
		w := e.t.wrap(alg, acc)
		if traced {
			w.SetObserver(nil)
		}
		alg = w
	}
	if e.workers > 1 {
		ist.SetParallelism(alg, e.workers)
	}
	ist.UsePreprocessCache(alg, e.cache, band, e.sp.k)
	s := ist.NewSessionContext(context.Background(), alg, band, e.sp.k)
	p, q, done := s.Next()
	out.first.add(ms(time.Since(begin)))
	if traced {
		out.skyband = append(out.skyband, ms(skyband))
	}

	tr := newTranscript()
	ok := true
	for !done {
		preferFirst := user.Prefer(p, q)
		tr.question(p, q, preferFirst)
		e.run.attempted.Add(1)
		start := time.Now()
		if err := s.Answer(preferFirst); err != nil {
			out.next.add(miss)
			e.run.failed.Add(1)
			ok = false
			break
		}
		p, q, done = s.Next()
		out.next.add(ms(time.Since(start)))
	}
	res, _, err := s.Result()
	s.Close()
	if err != nil {
		if ok {
			e.run.failed.Add(1)
		}
		ok = false
	} else if ok && !ist.IsTopK(slice, u, e.sp.k, res) {
		e.run.wrong.Add(1)
		ok = false
	}
	if traced {
		e.t.retire("", acc)
	}
	out.finished(ph, time.Since(begin))
	if ok && num <= int64(len(e.run.pins)) {
		e.run.pin(tr.finish(num, res, len(band), e.sp.k), num > int64(e.sp.warmup))
	}
}

// peakRSSKB reads the process's peak resident set (VmHWM) in KiB.
func peakRSSKB() uint64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb uint64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %d kB", &kb); err == nil {
			return kb
		}
	}
	return 0
}
