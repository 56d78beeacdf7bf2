// Package server implements the HTTP session service behind cmd/istserve:
// interactive IST sessions (ist.Session) keyed by id, with JSON
// question/answer exchanges. The algorithm state lives server-side; humans
// answer one question per round-trip.
//
// The layer is built to survive a production interaction loop: a panic in
// one session's algorithm goroutine is isolated (that session returns 500
// and is torn down; every other session and the process continue), sessions
// are optionally persisted to a SessionStore and rehydrated after a restart
// by deterministic transcript replay, idle sessions are collected by a
// background reaper, and session creation is capped (429 + Retry-After)
// so a client flood cannot exhaust memory.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"math/rand"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ist"
	"ist/internal/clock"
	"ist/internal/obs"
)

// Options configures a Server beyond its dataset.
type Options struct {
	// Seed is the base random seed; session i runs with Seed+i, which is
	// what makes a persisted session replayable after a restart.
	Seed int64
	// TTL expires sessions idle longer than this (0 disables expiry).
	TTL time.Duration
	// ReapInterval is how often the background reaper scans for idle
	// sessions (0 disables the reaper; expiry then only happens on an
	// explicit call, as in tests with fake clocks).
	ReapInterval time.Duration
	// MaxSessions caps concurrently live sessions; creation beyond it
	// returns 429 with a Retry-After header (0 = unlimited).
	MaxSessions int
	// Store persists sessions for crash recovery (nil = memory only, no
	// rehydration).
	Store SessionStore
	// WrapAlgorithm, if set, wraps every session's algorithm at creation
	// and rehydration — the fault-injection hook used by the hardening
	// tests (see internal/faultinject).
	WrapAlgorithm func(id string, alg ist.Algorithm) ist.Algorithm
	// MaxQuestions caps how many questions any one session may ask; an
	// exhausted session finishes with a best-effort answer and an
	// uncertified certificate instead of asking forever (0 = unlimited).
	MaxQuestions int
	// SessionDeadline bounds each session's lifetime from creation; past it
	// the session finishes best-effort like MaxQuestions does (0 = none).
	SessionDeadline time.Duration
	// Clock is the time source for lastUsed stamps and session deadlines
	// (nil = the wall clock). Tests inject a fake to drive expiry and
	// deadlines deterministically.
	Clock clock.Clock
	// TraceDir, when set, writes one JSONL trace file per session
	// (<TraceDir>/<id>.jsonl) carrying the session's structured event
	// stream. Rehydration truncates and rewrites the file — transcript
	// replay regenerates the same events.
	TraceDir string
	// Metrics is the registry /metrics exposes (nil = the server builds its
	// own). Sharing one registry across servers aggregates their counters.
	Metrics *obs.Registry
	// MaxInflight bounds how many create/answer requests may run
	// concurrently; excess requests queue up to AdmissionTimeout and are
	// then shed with 503 + Retry-After (0 = unbounded). Read-only endpoints
	// (GET state, healthz, metrics) are never gated.
	MaxInflight int
	// AdmissionTimeout is how long an over-limit create/answer request may
	// wait for an admission slot before being shed (0 = shed immediately).
	AdmissionTimeout time.Duration
	// Tracing enables the span layer (DESIGN.md §13): a session-root →
	// question → phase span tree per session, W3C traceparent continuation
	// from clients, /debug/ist/traces, and flight dumps read from it.
	// Off, the tracer is nil end to end and every run is bit-identical to a
	// pre-span server (proven by TestNilTracerTranscriptsDeepEqual).
	Tracing bool
	// TraceMaxBytes caps each session's JSONL trace file; past it a single
	// "_truncated" marker is written and the rest of the stream is dropped
	// (0 = the 4 MiB default, negative = unlimited).
	TraceMaxBytes int64
	// Parallelism is ignored: preprocessing runs serially.
	//
	// Deprecated: it is kept only because the dialoguebench module sets it.
	Parallelism int
	// PrepCache, when non-nil, is shared by every session's algorithm to
	// memoize dataset-level preprocessing (exact convex points, 2-d sweep
	// partitions) — the dominant per-session setup cost under high session
	// counts. Cache effectiveness is exposed on /metrics as
	// ist_preprocess_cache_{hits,misses,bytes}.
	PrepCache *ist.PreprocessCache
}

// DefaultTraceMaxBytes is the per-session trace-file cap applied when
// Options.TraceMaxBytes is zero.
const DefaultTraceMaxBytes = 4 << 20

// Server is the http.Handler managing interactive sessions.
type Server struct {
	points []ist.Point
	k      int
	opt    Options
	fp     uint64
	start  time.Time
	clk    clock.Clock

	// Observability plumbing: reg backs /metrics, bridge folds every
	// session's trace events into it, and the histograms/counters below are
	// the server-level (not event-level) series.
	reg                *obs.Registry
	bridge             *obs.Metrics
	questionLatency    *obs.Histogram
	questionsToCertify *obs.Histogram
	sessionsTotal      *obs.Counter
	sessionsLive       *obs.Gauge
	storeErrors        *obs.Counter
	answerReplays      *obs.Counter
	seqConflicts       *obs.Counter
	shed               *obs.CounterVec
	traceBytes         *obs.Counter
	flightDumps        *obs.Counter
	vsLower            *obs.GaugeVec
	vsUpper            *obs.GaugeVec
	prepHits           *obs.Counter
	prepMisses         *obs.Counter
	prepBytes          *obs.Gauge

	// tracer mints every session's spans into spans, the bounded
	// in-memory repository behind /debug/ist/traces and flight dumps (both
	// nil when Options.Tracing is off).
	tracer *obs.Tracer
	spans  *obs.SpanStore

	// gate bounds concurrent admission to the state-changing handlers
	// (nil = unbounded); draining flips /readyz to 503 and refuses new
	// sessions while in-flight dialogues finish.
	gate     *gate
	draining atomic.Bool

	mu       sync.Mutex
	sessions map[string]*sessionState
	nextID   int64
	closed   bool
	// now is replaceable for expiry tests.
	now func() time.Time

	reapStop chan struct{}
	reapDone chan struct{}
}

type sessionState struct {
	mu sync.Mutex // serializes question/answer exchanges per session
	s  *ist.Session
	// seq is the sequence number of the pending question — equal to the
	// number of answers applied so far. An answer must quote it; a quote of
	// seq-1 is an idempotent replay of the answer already applied (the
	// current state IS that answer's response, because the dialogue is
	// strictly sequential), anything else is a conflict. This is what makes
	// a blind network retry of POST /answer safe.
	seq int
	// lastUsed is guarded by Server.mu (not st.mu): it is only touched by
	// lookup/create/expire, which already hold it.
	lastUsed time.Time
	curP     ist.Point
	curQ     ist.Point
	done     bool
	failed   error
	result   ist.Point
	resultID int
	cert     *ist.Certificate
	// questionAt stamps when the pending question was surfaced; the answer
	// handler turns it into the question-latency observation.
	questionAt time.Time
	// trace is the session's JSONL trace stream (nil without TraceDir).
	trace *obs.JSONL
	// algName is the API name the session was created with ("rh", "2dpi",
	// ...), labeling the questions-vs-bound gauges.
	algName string
	// Span plumbing (both nil when Options.Tracing is off): the
	// session-root span and the Observer bridging algorithm events into
	// question/phase spans.
	root    *obs.Span
	spanObs *obs.SpanObserver
}

// startSpan opens a server span for a session: continuing remote (the
// client's traceparent) when valid, else nesting under the open question
// span, else under the session root. Nil when tracing is off — every use is
// nil-safe.
func (srv *Server) startSpan(st *sessionState, name string, remote obs.SpanContext, attrs ...obs.Attr) *obs.Span {
	if srv.tracer == nil {
		return nil
	}
	opts := []obs.SpanOption{obs.WithAttrs(attrs...)}
	switch {
	case remote.Valid():
		opts = append(opts, obs.Remote(remote))
	default:
		parent := st.spanObs.QuestionSpan()
		if parent == nil {
			parent = st.root
		}
		opts = append(opts, obs.ChildOf(parent))
	}
	return srv.tracer.Start(name, opts...)
}

// New builds a server over a preprocessed point set. If opt.Store is set,
// unfinished persisted sessions are rehydrated by replaying their answer
// logs through identically seeded algorithms before the server accepts any
// traffic; a record whose dataset fingerprint does not match the current
// points is skipped (resuming it would silently diverge).
func New(points []ist.Point, k int, opt Options) (*Server, error) {
	srv := &Server{
		points:   points,
		k:        k,
		opt:      opt,
		fp:       ist.Fingerprint(points, k),
		sessions: map[string]*sessionState{},
		now:      clock.Real.Now,
		clk:      clock.Real,
	}
	if opt.Clock != nil {
		srv.now = opt.Clock.Now
		srv.clk = opt.Clock
	}
	srv.start = srv.now()
	srv.reg = opt.Metrics
	if srv.reg == nil {
		srv.reg = obs.NewRegistry()
	}
	srv.bridge = obs.NewMetrics(srv.reg)
	srv.questionLatency = srv.reg.Histogram(obs.MetricQuestionLatency,
		"Seconds between surfacing a question and receiving its answer.", obs.DefBuckets)
	srv.questionsToCertify = srv.reg.Histogram(obs.MetricQuestionsCertify,
		"Questions a session needed before finishing.", obs.QuestionCountBuckets)
	srv.sessionsTotal = srv.reg.Counter(obs.MetricSessionsTotal,
		"Sessions created (including rehydrated) since process start.")
	srv.sessionsLive = srv.reg.Gauge(obs.MetricSessionsLive,
		"Sessions currently live.")
	srv.storeErrors = srv.reg.Counter(obs.MetricStoreErrors,
		"Session-store writes that failed (the request was refused, not silently dropped).")
	srv.answerReplays = srv.reg.Counter(obs.MetricAnswerReplays,
		"Duplicate answer POSTs absorbed idempotently (seq already applied).")
	srv.seqConflicts = srv.reg.Counter(obs.MetricSeqConflicts,
		"Answer POSTs rejected with 409 for quoting a stale or future seq.")
	srv.shed = srv.reg.CounterVec(obs.MetricShed,
		"Requests shed by the admission gate, by path.", "path")
	srv.traceBytes = srv.reg.Counter(obs.MetricTraceBytes,
		"Bytes written to per-session JSONL trace files.")
	srv.flightDumps = srv.reg.Counter(obs.MetricFlightDumps,
		"Flight-recorder dumps written to the trace dir (conflicts, sheds, failures, exhausted budgets).")
	srv.vsLower = srv.reg.GaugeVec(obs.MetricQuestionsVsLower,
		"Last certified session's questions divided by the theoretical lower bound log2(n/k).", "algorithm")
	srv.vsUpper = srv.reg.GaugeVec(obs.MetricQuestionsVsUpper,
		"Last certified session's questions divided by the 2D-PI upper bound log2(ceil(2n/(k+1))); <=1.0 keeps the Thm 4.5 guarantee.", "algorithm")
	srv.prepHits = srv.reg.Counter(obs.MetricPrepCacheHits,
		"Shared preprocessing-cache lookups answered from a memoized entry.")
	srv.prepMisses = srv.reg.Counter(obs.MetricPrepCacheMisses,
		"Shared preprocessing-cache lookups that had to compute (or skipped an in-flight entry).")
	srv.prepBytes = srv.reg.Gauge(obs.MetricPrepCacheBytes,
		"Approximate resident bytes of memoized preprocessing values.")
	if opt.Tracing {
		srv.spans = obs.NewSpanStore(0, 0)
		// Span ids come from their own generator, never an algorithm's, so
		// tracing consumes none of a session's randomness.
		srv.tracer = obs.NewTracer(srv.clk, srv.spans, rand.New(rand.NewSource(opt.Seed^0x7370616e))) // "span"
	}
	srv.gate = newGate(opt.MaxInflight, opt.AdmissionTimeout)
	if opt.Store != nil {
		if err := srv.rehydrate(); err != nil {
			return nil, err
		}
	}
	if opt.TTL > 0 && opt.ReapInterval > 0 {
		srv.reapStop = make(chan struct{})
		srv.reapDone = make(chan struct{})
		go srv.reapLoop()
	}
	return srv, nil
}

// sessionOptions builds each session's anytime options from the server
// configuration plus the session's observer (the shared metrics bridge and,
// with TraceDir set, a JSONL trace file named after the session id). The
// deadline is anchored at session creation (or rehydration) time.
func (srv *Server) sessionOptions(id string, st *sessionState) []ist.SessionOption {
	var opts []ist.SessionOption
	if srv.opt.MaxQuestions > 0 {
		opts = append(opts, ist.WithMaxQuestions(srv.opt.MaxQuestions))
	}
	if srv.opt.SessionDeadline > 0 {
		opts = append(opts, ist.WithDeadline(srv.now().Add(srv.opt.SessionDeadline)))
		if srv.opt.Clock != nil {
			opts = append(opts, ist.WithClock(srv.opt.Clock))
		}
	}
	observers := []obs.Observer{srv.bridge}
	if srv.opt.TraceDir != "" {
		f, err := os.Create(filepath.Join(srv.opt.TraceDir, id+".jsonl"))
		if err != nil {
			log.Printf("server: trace file for %s: %v", id, err)
		} else {
			maxBytes := srv.opt.TraceMaxBytes
			if maxBytes == 0 {
				maxBytes = DefaultTraceMaxBytes
			} else if maxBytes < 0 {
				maxBytes = 0 // negative = explicitly unlimited
			}
			st.trace = obs.NewJSONLLimited(f, srv.clk, maxBytes, srv.traceBytes)
			observers = append(observers, st.trace)
		}
	}
	if st.spanObs != nil {
		observers = append(observers, st.spanObs)
	}
	opts = append(opts, ist.WithObserver(obs.Combine(observers...)))
	return opts
}

// setupTracing opens a session's span plumbing on the server's tracer: a
// session-root span that joins the client's propagated trace when one
// arrived, and the observer bridging algorithm events into question/phase
// spans. A no-op (leaving both fields nil) when Options.Tracing is off —
// the nil path must stay bit-identical to an untraced server.
func (srv *Server) setupTracing(id string, st *sessionState, remote obs.SpanContext) {
	if srv.tracer == nil {
		return
	}
	st.root = srv.tracer.Start("session", obs.Remote(remote), obs.WithAttrs(
		obs.Attr{Key: "session", Value: id},
		obs.Attr{Key: "algorithm", Value: st.algName},
	))
	st.spanObs = obs.NewSpanObserver(srv.tracer, st.root)
}

// algorithmByName maps the API's algorithm names to seeded constructors.
func algorithmByName(name string, seed int64) (ist.Algorithm, error) {
	switch name {
	case "", "rh":
		return ist.NewRH(seed), nil
	case "hdpi":
		return ist.NewHDPI(seed), nil
	case "hdpi-accurate":
		return ist.NewHDPIAccurate(seed), nil
	case "robust":
		return ist.NewRobustHDPI(seed), nil
	case "2dpi":
		// Deterministic (no rng) and bounded by Thm 4.5; only valid on
		// 2-dimensional datasets — elsewhere the session fails at creation
		// with the algorithm's own dimensionality panic isolated to it.
		return ist.NewTwoDPI(), nil
	}
	return nil, fmt.Errorf("unknown algorithm %q", name)
}

// applyPerfOptions grants a freshly constructed algorithm the shared
// preprocessing cache before any observability wrapper hides the concrete
// type. The cache is transcript-neutral (DESIGN.md §14.2): rehydrated
// sessions replay identically whether or not the original run had it.
func (srv *Server) applyPerfOptions(alg any) {
	if srv.opt.PrepCache != nil {
		ist.UsePreprocessCache(alg, srv.opt.PrepCache, srv.points, srv.k)
	}
}

// rehydrate rebuilds every unfinished persisted session by transcript
// replay. Called from New before the server serves traffic, so it needs no
// locking discipline beyond the store's own.
func (srv *Server) rehydrate() error {
	recs, lastID, err := srv.opt.Store.Load()
	if err != nil {
		return fmt.Errorf("server: rehydrate: %w", err)
	}
	srv.nextID = lastID
	for _, rec := range recs {
		if rec.Fingerprint != srv.fp {
			log.Printf("server: session %s recorded against a different dataset (fingerprint %x != %x); dropping",
				rec.ID, rec.Fingerprint, srv.fp)
			_ = srv.opt.Store.Finish(rec.ID)
			continue
		}
		alg, err := algorithmByName(rec.Algorithm, rec.Seed)
		if err != nil {
			log.Printf("server: session %s: %v; dropping", rec.ID, err)
			_ = srv.opt.Store.Finish(rec.ID)
			continue
		}
		srv.applyPerfOptions(alg)
		if srv.opt.WrapAlgorithm != nil {
			alg = srv.opt.WrapAlgorithm(rec.ID, alg)
		}
		st := &sessionState{lastUsed: srv.now(), seq: len(rec.Answers), algName: rec.Algorithm}
		// A rehydrated session roots a fresh trace: the client's original
		// trace id died with the previous process, and replay spans would
		// only pollute it anyway.
		srv.setupTracing(rec.ID, st, obs.SpanContext{})
		s, err := ist.ResumeSessionContext(context.Background(), alg, srv.points, srv.k, rec.Answers, srv.sessionOptions(rec.ID, st)...)
		if err != nil {
			log.Printf("server: session %s failed to replay: %v; dropping", rec.ID, err)
			srv.closeTrace(st)
			_ = srv.opt.Store.Finish(rec.ID)
			continue
		}
		st.s = s
		srv.sessionsTotal.Inc()
		srv.advance(rec.ID, st)
		if st.failed != nil {
			s.Close()
			srv.closeTrace(st)
			_ = srv.opt.Store.Finish(rec.ID)
			continue
		}
		srv.sessions[rec.ID] = st
	}
	return nil
}

// closeTrace closes a session's JSONL trace stream and ends its span tree
// (open question span first, then the root). Callers may hold st.mu or not
// — JSONL has its own lock, Close is idempotent, and End is idempotent too.
func (srv *Server) closeTrace(st *sessionState) {
	st.spanObs.Finish()
	st.root.End()
	if st.trace != nil {
		if err := st.trace.Close(); err != nil {
			log.Printf("server: close trace: %v", err)
		}
	}
}

// reapLoop runs expiry in the background so idle sessions are collected
// even when no request ever arrives again — the expire-on-request scheme it
// replaces leaked every session of a traffic lull.
func (srv *Server) reapLoop() {
	defer close(srv.reapDone)
	t := time.NewTicker(srv.opt.ReapInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			srv.expire()
		case <-srv.reapStop:
			return
		}
	}
}

// Close stops the reaper, releases every live session's goroutine, and
// closes the store. It does not Finish persisted sessions: a graceful
// shutdown keeps them replayable by the next process.
func (srv *Server) Close() {
	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		return
	}
	srv.closed = true
	live := make([]*sessionState, 0, len(srv.sessions))
	for _, st := range srv.sessions {
		live = append(live, st)
	}
	srv.sessions = map[string]*sessionState{}
	srv.mu.Unlock()
	if srv.reapStop != nil {
		close(srv.reapStop)
		<-srv.reapDone
	}
	for _, st := range live {
		st.mu.Lock()
		if st.s != nil {
			st.s.Close()
		}
		st.mu.Unlock()
		srv.closeTrace(st)
	}
	if srv.opt.Store != nil {
		_ = srv.opt.Store.Close()
	}
}

// Question is the JSON shape of one pairwise question.
type Question struct {
	Option1 []float64 `json:"option1"`
	Option2 []float64 `json:"option2"`
}

// StateResponse is the JSON shape of a session's state. Certificate appears
// only for finished budgeted sessions; its "certified" field distinguishes a
// guaranteed top-k result from the best-effort answer of a session that ran
// out of budget — both are HTTP 200, because an anytime answer is a success.
type StateResponse struct {
	ID string `json:"id"`
	// Seq is the sequence number of the pending question; an answer must
	// quote it back. Once the session is done it equals the total number of
	// answers applied. See DESIGN.md §12 for the exactly-once contract.
	Seq         int              `json:"seq"`
	Questions   int              `json:"questions"`
	Done        bool             `json:"done"`
	Question    *Question        `json:"question,omitempty"`
	Result      []float64        `json:"result,omitempty"`
	ResultID    int              `json:"resultId,omitempty"`
	Certificate *ist.Certificate `json:"certificate,omitempty"`
}

// HealthResponse is the JSON shape of GET /healthz. Sessions is the live
// count; SessionsTotal counts every session this process created (including
// rehydrated ones), so the two diverge as sessions finish or expire. Uptime
// is measured on the server's injected clock.
type HealthResponse struct {
	Status        string  `json:"status"`
	Sessions      int     `json:"sessions"`
	SessionsTotal int64   `json:"sessionsTotal"`
	UptimeSeconds float64 `json:"uptimeSeconds"`
	GoVersion     string  `json:"goVersion"`
	Version       string  `json:"version"`
	// Draining reports drain mode. Liveness stays "ok" while draining — a
	// draining process must not be killed — but operators reading /healthz
	// deserve to see the drain instead of inferring it from /readyz.
	Draining bool `json:"draining"`
	// WALSeq is the sequence number of the WAL segment currently being
	// appended to, present when the session store exposes one.
	WALSeq *uint64 `json:"walSeq,omitempty"`
}

// walSeqStore is the optional capability a SessionStore implements to
// surface its write-ahead-log position on /healthz.
type walSeqStore interface {
	WALSeq() uint64
}

type createRequest struct {
	Algorithm string `json:"algorithm"`
}

type answerRequest struct {
	Prefer int `json:"prefer"`
	// Seq must quote the seq of the question being answered (from the state
	// response that surfaced it). It is required: without it a retried POST
	// is indistinguishable from a fresh answer, and a duplicate delivery
	// would inject a second halfspace cut and silently corrupt the session.
	Seq *int `json:"seq"`
}

// ServeHTTP implements http.Handler.
func (srv *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	path := strings.TrimPrefix(r.URL.Path, "/")
	parts := strings.Split(path, "/")
	switch {
	case r.Method == http.MethodGet && path == "healthz":
		srv.handleHealthz(w)
	case r.Method == http.MethodGet && path == "readyz":
		srv.handleReadyz(w)
	case r.Method == http.MethodGet && path == "metrics":
		srv.handleMetrics(w, r)
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/debug/ist/traces"):
		srv.handleTraces(w, r)
	case strings.HasPrefix(r.URL.Path, "/debug/pprof"):
		srv.handlePprof(w, r)
	case r.Method == http.MethodPost && path == "sessions":
		srv.handleCreate(w, r)
	case len(parts) == 2 && parts[0] == "sessions" && r.Method == http.MethodGet:
		srv.handleGet(w, parts[1])
	case len(parts) == 2 && parts[0] == "sessions" && r.Method == http.MethodDelete:
		srv.handleDelete(w, parts[1])
	case len(parts) == 3 && parts[0] == "sessions" && parts[2] == "answer" && r.Method == http.MethodPost:
		srv.handleAnswer(w, r, parts[1])
	default:
		http.Error(w, "not found", http.StatusNotFound)
	}
}

// Version is an explicit build version, meant to be injected at link time:
//
//	go build -ldflags "-X ist/internal/server.Version=v1.2.3" ./cmd/istserve
//
// When empty, BuildVersion falls back to the module version recorded by the
// Go toolchain.
var Version string

// BuildVersion reports the injected Version when set, otherwise the main
// module's version as baked in by the Go toolchain ("devel" for a plain
// source build).
func BuildVersion() string {
	if Version != "" {
		return Version
	}
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

func (srv *Server) handleHealthz(w http.ResponseWriter) {
	resp := HealthResponse{
		Status:        "ok",
		Sessions:      srv.Sessions(),
		SessionsTotal: srv.sessionsTotal.Value(),
		UptimeSeconds: srv.now().Sub(srv.start).Seconds(),
		GoVersion:     runtime.Version(),
		Version:       BuildVersion(),
		Draining:      srv.draining.Load(),
	}
	if ws, ok := srv.opt.Store.(walSeqStore); ok {
		seq := ws.WALSeq()
		resp.WALSeq = &seq
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(resp)
}

// ReadyResponse is the JSON shape of GET /readyz. Liveness (/healthz) and
// readiness are deliberately split: a rehydrating or draining process is
// alive (do not kill it) but must not receive new traffic (take it out of
// rotation).
type ReadyResponse struct {
	Status   string `json:"status"` // "ready" | "draining"
	Sessions int    `json:"sessions"`
}

// handleReadyz reports readiness: 200 while the server accepts new work,
// 503 once BeginDrain has been called. The pre-rehydration "starting" phase
// is covered by the boot handler istserve serves before this Server exists.
func (srv *Server) handleReadyz(w http.ResponseWriter) {
	resp := ReadyResponse{Status: "ready", Sessions: srv.Sessions()}
	code := http.StatusOK
	if srv.draining.Load() {
		resp.Status = "draining"
		code = http.StatusServiceUnavailable
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}

// BeginDrain marks the server as draining: /readyz flips to 503 so load
// balancers stop routing here, and new session creation is refused, while
// in-flight dialogues keep answering until the process exits. It reports
// whether this call initiated the drain (false if already draining).
func (srv *Server) BeginDrain() bool {
	return srv.draining.CompareAndSwap(false, true)
}

// handleMetrics renders the registry in the Prometheus text exposition
// format — or, when the scraper negotiates application/openmetrics-text,
// the exemplar-extended OpenMetrics shape linking latency buckets to span
// ids. The live-session gauge is refreshed lazily at scrape time — it is
// derived state, not an event counter.
func (srv *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	srv.sessionsLive.Set(float64(srv.Sessions()))
	if c := srv.opt.PrepCache; c != nil {
		// Cache counters live in prep.Cache; sync the registry copies to the
		// authoritative snapshot at scrape time (delta-add keeps counters
		// monotone without double counting).
		s := c.Stats()
		srv.prepHits.Add(s.Hits - srv.prepHits.Value())
		srv.prepMisses.Add(s.Misses - srv.prepMisses.Value())
		srv.prepBytes.Set(float64(s.Bytes))
	}
	if strings.Contains(r.Header.Get("Accept"), "application/openmetrics-text") {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		srv.reg.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	srv.reg.WritePrometheus(w)
}

// handlePprof routes /debug/pprof/* to the standard pprof handlers; the
// named-profile paths (heap, goroutine, ...) are handled by Index.
func (srv *Server) handlePprof(w http.ResponseWriter, r *http.Request) {
	switch strings.TrimPrefix(r.URL.Path, "/debug/pprof/") {
	case "cmdline":
		pprof.Cmdline(w, r)
	case "profile":
		pprof.Profile(w, r)
	case "symbol":
		pprof.Symbol(w, r)
	case "trace":
		pprof.Trace(w, r)
	default:
		pprof.Index(w, r)
	}
}

func (srv *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if srv.draining.Load() {
		w.Header().Set("Retry-After", srv.retryAfter())
		http.Error(w, "server draining", http.StatusServiceUnavailable)
		return
	}
	if !srv.gate.acquire(r.Context()) {
		srv.shed.With("create").Inc()
		w.Header().Set("Retry-After", srv.retryAfter())
		http.Error(w, "server overloaded", http.StatusServiceUnavailable)
		return
	}
	defer srv.gate.release()
	var req createRequest
	if r.Body != nil {
		// An empty body means defaults, but a malformed one is a client
		// bug; silently falling back to the default algorithm would mask it.
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			http.Error(w, "malformed JSON body", http.StatusBadRequest)
			return
		}
	}
	name := req.Algorithm
	if name == "" {
		name = "rh"
	}
	if _, err := algorithmByName(name, 0); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	srv.mu.Lock()
	if srv.closed {
		srv.mu.Unlock()
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	if srv.opt.MaxSessions > 0 && len(srv.sessions) >= srv.opt.MaxSessions {
		srv.mu.Unlock()
		w.Header().Set("Retry-After", srv.retryAfter())
		http.Error(w, "session limit reached", http.StatusTooManyRequests)
		return
	}
	srv.nextID++
	id := fmt.Sprintf("s%d", srv.nextID)
	seed := srv.opt.Seed + srv.nextID
	st := &sessionState{lastUsed: srv.now(), algName: name}
	// Reserve the slot (and the id) under st.mu before the algorithm's
	// setup runs: concurrent requests for this id block until it is ready,
	// and concurrent creates see the capacity they are competing for.
	st.mu.Lock()
	srv.sessions[id] = st
	srv.mu.Unlock()

	// Persist first, like answers: a session the store cannot record is
	// refused (503), never served, since none of its answers could be
	// persisted either. A request that looked the reserved id up meanwhile
	// finds it failed; the id itself is burned.
	if srv.opt.Store != nil {
		if err := srv.opt.Store.Create(SessionRecord{ID: id, Algorithm: name, Seed: seed, Fingerprint: srv.fp}); err != nil {
			st.failed = err
			st.mu.Unlock()
			srv.mu.Lock()
			delete(srv.sessions, id)
			srv.mu.Unlock()
			srv.refuseUnpersisted(w, "create", id, err)
			return
		}
	}

	// The client owns the trace: a valid traceparent makes its trace id the
	// session's trace id, so every span this session ever emits — on either
	// side of the wire — shares it.
	remote, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	srv.setupTracing(id, st, remote)
	// The create span brackets the server-side request work; the algorithm
	// events it triggers assemble under the first "question" span, which the
	// SpanObserver opens at the first LP solve (see internal/obs/spanobs.go).
	createSp := st.root.StartChild("create")

	alg, _ := algorithmByName(name, seed)
	srv.applyPerfOptions(alg)
	if srv.opt.WrapAlgorithm != nil {
		alg = srv.opt.WrapAlgorithm(id, alg)
	}
	srv.sessionsTotal.Inc()
	st.s = ist.NewSessionContext(context.Background(), alg, srv.points, srv.k, srv.sessionOptions(id, st)...)
	srv.advance(id, st)
	createSp.SetStatus(st.failed)
	createSp.End()
	failed := st.failed
	st.mu.Unlock()
	if failed != nil {
		srv.teardown(id, st)
		http.Error(w, "session failed: "+failed.Error(), http.StatusInternalServerError)
		return
	}
	srv.writeState(w, id, st, http.StatusCreated)
}

func (srv *Server) handleGet(w http.ResponseWriter, id string) {
	st, ok := srv.lookup(id)
	if !ok {
		http.Error(w, "no such session", http.StatusNotFound)
		return
	}
	st.mu.Lock()
	failed := st.failed
	st.mu.Unlock()
	if failed != nil {
		srv.teardown(id, st)
		http.Error(w, "session failed: "+failed.Error(), http.StatusInternalServerError)
		return
	}
	srv.writeState(w, id, st, http.StatusOK)
}

func (srv *Server) handleDelete(w http.ResponseWriter, id string) {
	srv.mu.Lock()
	st, ok := srv.sessions[id]
	if ok {
		delete(srv.sessions, id)
	}
	srv.mu.Unlock()
	if !ok {
		http.Error(w, "no such session", http.StatusNotFound)
		return
	}
	st.mu.Lock()
	if st.s != nil {
		st.s.Close()
	}
	st.mu.Unlock()
	srv.closeTrace(st)
	if srv.opt.Store != nil {
		_ = srv.opt.Store.Finish(id)
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleAnswer applies one answer exactly once. The seq handshake makes any
// network retry safe: the client quotes the seq of the question it is
// answering; a quote of the previous seq means the answer was already
// applied and the current state (which, in a strictly sequential dialogue,
// IS the response that retry lost) is replayed; any other mismatch is a 409
// carrying the current state so the client can resync. Persistence happens
// BEFORE the in-memory cut: a store that cannot record the answer refuses
// the request (503), never silently diverging from the WAL — refusal is
// safe precisely because the client retries with the same seq.
func (srv *Server) handleAnswer(w http.ResponseWriter, r *http.Request, id string) {
	if !srv.gate.acquire(r.Context()) {
		srv.shed.With("answer").Inc()
		srv.dumpFlight(id, srv.peek(id), "shed")
		w.Header().Set("Retry-After", srv.retryAfter())
		http.Error(w, "server overloaded", http.StatusServiceUnavailable)
		return
	}
	defer srv.gate.release()
	st, ok := srv.lookup(id)
	if !ok {
		http.Error(w, "no such session", http.StatusNotFound)
		return
	}
	var req answerRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		http.Error(w, "bad answer body", http.StatusBadRequest)
		return
	}
	if req.Prefer != 1 && req.Prefer != 2 {
		http.Error(w, "prefer must be 1 or 2", http.StatusBadRequest)
		return
	}
	if req.Seq == nil || *req.Seq < 0 {
		http.Error(w, "missing seq: quote the \"seq\" of the question being answered", http.StatusBadRequest)
		return
	}
	// Each retry of one logical answer carries a fresh client attempt span
	// in its traceparent, so a duplicated POST shows up as two sibling
	// server spans — the applied original and the absorbed replay — under
	// the same question in the same trace.
	remote, _ := obs.ParseTraceparent(r.Header.Get(obs.TraceparentHeader))
	st.mu.Lock()
	if st.failed != nil {
		failed := st.failed
		st.mu.Unlock()
		srv.teardown(id, st)
		http.Error(w, "session failed: "+failed.Error(), http.StatusInternalServerError)
		return
	}
	switch seq := *req.Seq; {
	case seq == st.seq-1:
		// Idempotent replay: this answer was already applied, its response
		// was lost in flight. The session has not moved since (nothing can
		// advance it but the next seq), so the current state is bit-for-bit
		// the response the original request would have carried.
		srv.answerReplays.Inc()
		sp := srv.startSpan(st, "idempotent-replay", remote, obs.Attr{Key: "seq", Value: strconv.Itoa(seq)})
		sp.End()
		st.mu.Unlock()
		srv.writeState(w, id, st, http.StatusOK)
		return
	case seq != st.seq || st.done:
		// Stale or future seq (or an answer to a finished session): refuse,
		// but hand back the authoritative state so the client can resync.
		srv.seqConflicts.Inc()
		sp := srv.startSpan(st, "conflict", remote,
			obs.Attr{Key: "quoted", Value: strconv.Itoa(seq)},
			obs.Attr{Key: "expected", Value: strconv.Itoa(st.seq)})
		sp.SetStatus(errSeqConflict)
		sp.End()
		st.mu.Unlock()
		srv.dumpFlight(id, st, "seq-conflict")
		srv.writeState(w, id, st, http.StatusConflict)
		return
	}
	ansSp := srv.startSpan(st, "answer", remote,
		obs.Attr{Key: "seq", Value: strconv.Itoa(*req.Seq)},
		obs.Attr{Key: "prefer", Value: strconv.Itoa(req.Prefer)})
	defer ansSp.End()
	if srv.opt.Store != nil {
		persistSp := ansSp.StartChild("store-persist")
		var err error
		if ss, ok := srv.opt.Store.(SpanSessionStore); ok {
			err = ss.AnswerSpan(id, req.Prefer == 1, persistSp)
		} else {
			err = srv.opt.Store.Answer(id, req.Prefer == 1)
		}
		persistSp.SetStatus(err)
		persistSp.End()
		if err != nil {
			ansSp.SetStatus(err)
			st.mu.Unlock()
			srv.refuseUnpersisted(w, "answer", id, err)
			return
		}
	}
	applySp := ansSp.StartChild("apply")
	if err := st.s.Answer(req.Prefer == 1); err != nil {
		applySp.SetStatus(err)
		applySp.End()
		if algErr := st.s.Err(); algErr != nil {
			st.failed = algErr
			st.mu.Unlock()
			srv.teardown(id, st)
			http.Error(w, "session failed: "+algErr.Error(), http.StatusInternalServerError)
			return
		}
		st.mu.Unlock()
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	st.seq++
	if !st.questionAt.IsZero() {
		secs := srv.now().Sub(st.questionAt).Seconds()
		if ctx := ansSp.Context(); ctx.Valid() {
			// Exemplar: the latency bucket points back at this answer span.
			srv.questionLatency.ObserveExemplar(secs, ctx.Trace.String(), ctx.Span.String())
		} else {
			srv.questionLatency.Observe(secs)
		}
	}
	srv.advance(id, st)
	applySp.SetStatus(st.failed)
	applySp.End()
	failed := st.failed
	exhausted := st.done && st.cert != nil && !st.cert.Certified
	st.mu.Unlock()
	if failed != nil {
		srv.teardown(id, st)
		http.Error(w, "session failed: "+failed.Error(), http.StatusInternalServerError)
		return
	}
	if exhausted {
		srv.dumpFlight(id, st, "budget-exhausted")
	}
	srv.writeState(w, id, st, http.StatusOK)
}

// refuseUnpersisted answers a create or answer the store could not record:
// counted in ist_store_errors_total and refused with 503 + Retry-After, so
// the client retries the same request once the store heals.
func (srv *Server) refuseUnpersisted(w http.ResponseWriter, op, id string, err error) {
	srv.storeErrors.Inc()
	log.Printf("server: persist %s %s: %v (refusing request)", op, id, err)
	w.Header().Set("Retry-After", srv.retryAfter())
	http.Error(w, "store unavailable; "+op+" not applied", http.StatusServiceUnavailable)
}

// errSeqConflict labels conflict spans; the detailed seqs ride as attrs.
var errSeqConflict = errors.New("stale or future seq")

// peek returns a session without stamping lastUsed — for observability
// paths (flight dumps on shed) that must not keep an idle session alive.
func (srv *Server) peek(id string) *sessionState {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return srv.sessions[id]
}

// advance pulls the next question (or the result) into the state, detecting
// a failed algorithm goroutine. Callers hold st.mu. The lastUsed stamp is
// maintained by lookup/create under srv.mu (its guardian), not here.
func (srv *Server) advance(id string, st *sessionState) {
	p, q, done := st.s.Next()
	if err := st.s.Err(); err != nil {
		st.failed = err
		return
	}
	if done {
		st.done = true
		if pt, idx, err := st.s.Result(); err == nil {
			st.result, st.resultID = pt, idx
		}
		if cert, ok := st.s.Certificate(); ok {
			st.cert = &cert
		}
		srv.questionsToCertify.Observe(float64(st.s.Questions()))
		// Distance to theory (DESIGN.md §13): this session's question count
		// against the paper's 2-d bounds for the instance it ran on.
		// vs_upper <= 1.0 is a guarantee for 2D-PI (Thm 4.5); for the other
		// algorithms the labeled gauge is a comparative benchmark.
		if lower, upper := ist.TheoryBounds(len(srv.points), srv.k); upper > 0 {
			qs := float64(st.s.Questions())
			alg := st.algName
			if alg == "" {
				alg = "rh"
			}
			srv.vsUpper.With(alg).Set(qs / upper)
			if lower > 0 {
				srv.vsLower.With(alg).Set(qs / lower)
			}
		}
		srv.closeTrace(st)
		// Completed sessions need no replay on restart; drop the record.
		if srv.opt.Store != nil {
			_ = srv.opt.Store.Finish(id)
		}
		return
	}
	st.curP, st.curQ = p, q
	st.questionAt = srv.now()
}

// teardown removes a failed session, releases its goroutine, and forgets
// its persisted record. Callers must NOT hold st.mu.
func (srv *Server) teardown(id string, st *sessionState) {
	srv.mu.Lock()
	delete(srv.sessions, id)
	srv.mu.Unlock()
	st.mu.Lock()
	if st.s != nil {
		st.s.Close()
	}
	failed := st.failed
	st.mu.Unlock()
	if failed != nil {
		// A torn-down failed session is almost always a rescued panic: dump
		// its trace's last spans so the moments before death are on disk.
		srv.dumpFlight(id, st, "session-failure")
	}
	srv.closeTrace(st)
	if srv.opt.Store != nil {
		_ = srv.opt.Store.Finish(id)
	}
}

// retryAfter suggests how long a rejected client should wait: a fraction of
// the TTL (idle sessions free slots at that horizon), floored at 1s.
func (srv *Server) retryAfter() string {
	secs := int(srv.opt.TTL.Seconds() / 4)
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

func (srv *Server) lookup(id string) (*sessionState, bool) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	st, ok := srv.sessions[id]
	if ok {
		st.lastUsed = srv.now()
	}
	return st, ok
}

// expire closes idle sessions past the TTL. The background reaper calls it
// on a ticker; tests with fake clocks call it directly.
func (srv *Server) expire() {
	if srv.opt.TTL <= 0 {
		return
	}
	cutoff := srv.now().Add(-srv.opt.TTL)
	type expired struct {
		id string
		st *sessionState
	}
	srv.mu.Lock()
	var stale []expired
	for id, st := range srv.sessions {
		if st.lastUsed.Before(cutoff) {
			stale = append(stale, expired{id, st})
			delete(srv.sessions, id)
		}
	}
	srv.mu.Unlock()
	for _, e := range stale {
		e.st.mu.Lock()
		if e.st.s != nil {
			e.st.s.Close()
		}
		e.st.mu.Unlock()
		srv.closeTrace(e.st)
		if srv.opt.Store != nil {
			_ = srv.opt.Store.Finish(e.id)
		}
	}
}

// Sessions returns the live session count (for tests and monitoring).
func (srv *Server) Sessions() int {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return len(srv.sessions)
}

func (srv *Server) writeState(w http.ResponseWriter, id string, st *sessionState, code int) {
	st.mu.Lock()
	resp := StateResponse{ID: id, Seq: st.seq, Questions: st.s.Questions(), Done: st.done}
	if st.done {
		resp.Result = st.result
		resp.ResultID = st.resultID
		resp.Certificate = st.cert
	} else {
		resp.Question = &Question{Option1: st.curP, Option2: st.curQ}
	}
	st.mu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(resp)
}
