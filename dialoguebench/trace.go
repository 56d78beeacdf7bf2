package main

import (
	"net/http"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ist"
	"ist/internal/core"
	"ist/internal/lp"
	"ist/internal/obs"
	"ist/internal/prep"
	"ist/internal/server"
)

// The traced run times calls into each module from outside, through the
// wrappers in this file; the program under test is not modified. While a
// tracer is off every wrapper forwards straight to what it wraps.

// driverHeader tags each traced request with the driver that sent it, so the
// handler time measured by the middleware can be matched to the client call.
const driverHeader = "X-Dialoguebench-Driver"

type tracer struct {
	on atomic.Bool
	// coldPending marks the next wrapped session as the first of a fresh
	// server: its set-up fills the preprocessing cache.
	coldPending atomic.Bool
	coldSetupNs atomic.Int64

	handlerNs  [drivers]atomic.Int64
	refused    atomic.Int64
	liveMax    atomic.Int64
	lpExecuted atomic.Int64

	mu       sync.Mutex
	sessions map[string]*sessAcc
	wal      map[string][]float64 // create/answer/finish latencies, ms
	layer    layerSamples
}

// layerSamples are the per-session figures merged from retired sessions.
type layerSamples struct {
	setup, question, partitions, convex, lpSolveUS []float64
	sessions, questions                            int64
	events, setupEvents, cuts, stopChecks          int64
	convexTests, convexOK                          int64
	lpCommitted, lpIters, lpNonOptimal             int64
	observerNs                                     int64
}

func newTracer() *tracer {
	return &tracer{sessions: map[string]*sessAcc{}, wal: map[string][]float64{}}
}

// start turns recording on and counts every LP solve executed from now on,
// speculative ones included.
func (t *tracer) start() {
	lp.SetSolveHook(func(*lp.Result) { t.lpExecuted.Add(1) })
	t.on.Store(true)
}

func (t *tracer) stop() {
	t.on.Store(false)
	lp.SetSolveHook(nil)
}

// sessAcc accumulates one session's core, observer and WAL time.
type sessAcc struct {
	// Per-request sums, swapped out by the driver after each response.
	walNs  atomic.Int64
	coreNs atomic.Int64

	// Written by the session's goroutine; read once the dialogue has ended.
	record, cold, partitioned  bool
	runStart, mark, lastConvex time.Time
	asked                      int
	layer                      layerSamples
}

// endCore closes the open core interval at now: set-up before the first
// question, afterwards the compute between an answer and the next question
// (or the result).
func (a *sessAcc) endCore(now time.Time, t *tracer) {
	d := now.Sub(a.mark)
	a.coreNs.Add(int64(d))
	if a.asked == 0 {
		if a.cold {
			t.coldSetupNs.Store(int64(d))
		}
		if a.record {
			a.layer.setup = append(a.layer.setup, ms(d))
			from := a.runStart
			if !a.lastConvex.IsZero() {
				a.layer.convex = append(a.layer.convex, ms(a.lastConvex.Sub(a.runStart)))
				from = a.lastConvex
			}
			if a.partitioned {
				a.layer.partitions = append(a.layer.partitions, ms(now.Sub(from)))
			}
		}
		return
	}
	if a.record {
		a.layer.question = append(a.layer.question, ms(d))
	}
}

// newAcc registers a wrapped session. Sessions created while the tracer is
// off, other than the cold one, run unwrapped in effect.
func (t *tracer) newAcc(id string) *sessAcc {
	a := &sessAcc{record: t.on.Load(), cold: t.coldPending.CompareAndSwap(true, false)}
	if a.record {
		t.mu.Lock()
		t.sessions[id] = a
		t.mu.Unlock()
	}
	return a
}

func (t *tracer) acc(id string) *sessAcc {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.sessions[id]
}

// retire merges a finished session's samples into the run's totals.
func (t *tracer) retire(id string, a *sessAcc) {
	if a == nil || !a.record {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.sessions, id)
	t.layer.add(&a.layer)
	t.layer.sessions++
	t.layer.questions += int64(a.asked)
}

func (l *layerSamples) add(s *layerSamples) {
	l.setup = append(l.setup, s.setup...)
	l.question = append(l.question, s.question...)
	l.partitions = append(l.partitions, s.partitions...)
	l.convex = append(l.convex, s.convex...)
	l.lpSolveUS = append(l.lpSolveUS, s.lpSolveUS...)
	l.events += s.events
	l.setupEvents += s.setupEvents
	l.cuts += s.cuts
	l.stopChecks += s.stopChecks
	l.convexTests += s.convexTests
	l.convexOK += s.convexOK
	l.lpCommitted += s.lpCommitted
	l.lpIters += s.lpIters
	l.lpNonOptimal += s.lpNonOptimal
	l.observerNs += s.observerNs
}

// algorithm wraps an algorithm and the oracle it is run against. It forwards
// every optional capability the program looks for — SetObserver,
// SetParallelism, SetPrepCache and RunBudgeted — since dropping one would
// silently change what runs.
type algorithm struct {
	inner ist.Algorithm
	t     *tracer
	acc   *sessAcc
}

// wrapAlgorithm is installed as server.Options.WrapAlgorithm.
func (t *tracer) wrapAlgorithm(id string, alg ist.Algorithm) ist.Algorithm {
	return t.wrap(alg, t.newAcc(id))
}

func (t *tracer) wrap(alg ist.Algorithm, a *sessAcc) *algorithm {
	_, isRH := alg.(*core.RH)
	a.partitioned = !isRH
	return &algorithm{inner: alg, t: t, acc: a}
}

func (w *algorithm) active() bool { return w.acc.record || w.acc.cold }

func (w *algorithm) Name() string { return w.inner.Name() }

func (w *algorithm) Run(points []ist.Point, k int, o ist.Oracle) int {
	if !w.active() {
		return w.inner.Run(points, k, o)
	}
	w.begin()
	idx := w.inner.Run(points, k, &oracle{inner: o, w: w})
	w.acc.endCore(time.Now(), w.t)
	return idx
}

func (w *algorithm) RunBudgeted(points []ist.Point, k int, o ist.Oracle, b ist.Budget) (int, ist.Certificate) {
	if !w.active() {
		return core.RunBudgeted(w.inner, points, k, o, b)
	}
	w.begin()
	idx, cert := core.RunBudgeted(w.inner, points, k, &oracle{inner: o, w: w}, b)
	w.acc.endCore(time.Now(), w.t)
	return idx, cert
}

func (w *algorithm) begin() {
	now := time.Now()
	w.acc.runStart, w.acc.mark = now, now
}

func (w *algorithm) SetObserver(o obs.Observer) {
	inner, ok := w.inner.(core.Observable)
	if !ok {
		return
	}
	if w.acc.record {
		inner.SetObserver(&observer{inner: o, acc: w.acc})
		return
	}
	inner.SetObserver(o)
}

func (w *algorithm) SetParallelism(workers int) {
	if p, ok := w.inner.(core.Parallelizable); ok {
		p.SetParallelism(workers)
	}
}

func (w *algorithm) SetPrepCache(c *prep.Cache, fingerprint uint64) {
	if p, ok := w.inner.(core.PrepCached); ok {
		p.SetPrepCache(c, fingerprint)
	}
}

// oracle stamps the boundaries of the algorithm's compute: a question is
// asked when Prefer is called, and the next compute starts when it returns.
type oracle struct {
	inner ist.Oracle
	w     *algorithm
}

func (o *oracle) Prefer(p, q ist.Point) bool {
	a := o.w.acc
	a.endCore(time.Now(), o.w.t)
	a.asked++
	ans := o.inner.Prefer(p, q)
	a.mark = time.Now()
	return ans
}

func (o *oracle) Questions() int { return o.inner.Questions() }

// observer decorates the observer the program attaches (nil for embedded
// dialogues): it counts events by kind, timestamps the convex-point tests on
// arrival, and times the call into the decorated observer.
type observer struct {
	inner obs.Observer
	acc   *sessAcc
}

func (o *observer) Event(e obs.Event) {
	a := o.acc
	l := &a.layer
	l.events++
	// Events before the first question are the set-up's: on a prep-cache
	// hit or miss alike, the replayed preprocessing tape.
	if a.asked == 0 && e.Kind != obs.KindQuestionAsked {
		l.setupEvents++
	}
	switch e.Kind {
	case obs.KindHalfspaceCut:
		l.cuts++
	case obs.KindStopConditionCheck:
		l.stopChecks++
	case obs.KindConvexPointTest:
		l.convexTests++
		if e.OK {
			l.convexOK++
		}
		a.lastConvex = time.Now()
	case obs.KindLPSolve:
		l.lpCommitted++
		l.lpIters += int64(e.Count)
		l.lpSolveUS = append(l.lpSolveUS, float64(e.Duration)/float64(time.Microsecond))
		if e.Status != "optimal" {
			l.lpNonOptimal++
		}
	}
	if o.inner != nil {
		start := time.Now()
		o.inner.Event(e)
		l.observerNs += int64(time.Since(start))
	}
}

// store times calls into the WAL session store, lock wait included, and
// forwards the optional AnswerSpan and WALSeq capabilities.
type store struct {
	inner *server.WALStore
	t     *tracer
}

func (s *store) time(kind, id string, start time.Time) {
	d := time.Since(start)
	if a := s.t.acc(id); a != nil {
		a.walNs.Add(int64(d))
	}
	s.t.mu.Lock()
	s.t.wal[kind] = append(s.t.wal[kind], ms(d))
	s.t.mu.Unlock()
}

func (s *store) Create(rec server.SessionRecord) error {
	if !s.t.on.Load() {
		return s.inner.Create(rec)
	}
	defer s.time("create", rec.ID, time.Now())
	return s.inner.Create(rec)
}

func (s *store) Answer(id string, preferFirst bool) error {
	if !s.t.on.Load() {
		return s.inner.Answer(id, preferFirst)
	}
	defer s.time("answer", id, time.Now())
	return s.inner.Answer(id, preferFirst)
}

func (s *store) AnswerSpan(id string, preferFirst bool, parent *obs.Span) error {
	if !s.t.on.Load() {
		return s.inner.AnswerSpan(id, preferFirst, parent)
	}
	defer s.time("answer", id, time.Now())
	return s.inner.AnswerSpan(id, preferFirst, parent)
}

func (s *store) Finish(id string) error {
	if !s.t.on.Load() {
		return s.inner.Finish(id)
	}
	defer s.time("finish", id, time.Now())
	return s.inner.Finish(id)
}

func (s *store) Load() ([]server.SessionRecord, int64, error) { return s.inner.Load() }
func (s *store) Close() error                                 { return s.inner.Close() }
func (s *store) WALSeq() uint64                               { return s.inner.WALSeq() }

var _ server.SpanSessionStore = (*store)(nil)

// middleware times each handler call for the driver that sent it, counts
// refusals, and samples the live-session count after every create.
func (t *tracer) middleware(srv *server.Server) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			srv.ServeHTTP(w, r)
			return
		}
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		start := time.Now()
		srv.ServeHTTP(sw, r)
		d := time.Since(start)
		if i, err := strconv.Atoi(r.Header.Get(driverHeader)); err == nil && i >= 0 && i < drivers {
			t.handlerNs[i].Add(int64(d))
		}
		if sw.code == http.StatusTooManyRequests || sw.code == http.StatusServiceUnavailable {
			t.refused.Add(1)
		}
		if r.Method == http.MethodPost && r.URL.Path == "/sessions" {
			live := int64(srv.Sessions())
			for {
				cur := t.liveMax.Load()
				if live <= cur || t.liveMax.CompareAndSwap(cur, live) {
					break
				}
			}
		}
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (s *statusWriter) WriteHeader(code int) {
	s.code = code
	s.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the connection's writer.
func (s *statusWriter) Unwrap() http.ResponseWriter { return s.ResponseWriter }

// heapSampler records the peak of live heap objects while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			if v := s[0].Value.Uint64(); v > h.peak {
				h.peak = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in MB.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / (1 << 20)
}
