package obs

// This file bridges the trace stream into the metrics registry: a Metrics
// observer increments the standard ist_* counters for every event flowing
// through it. istserve shares one Metrics across all sessions (counters are
// atomic), so /metrics aggregates the whole process.

// Standard metric names (DESIGN.md §9). Registered eagerly by NewMetrics so
// /metrics exposes them at zero before the first event.
const (
	MetricQuestions        = "ist_questions_total"
	MetricLPSolves         = "ist_lp_solves_total"
	MetricLPIterations     = "ist_lp_iterations_total"
	MetricCuts             = "ist_halfspace_cuts_total"
	MetricPruned           = "ist_candidates_pruned_total"
	MetricStopChecks       = "ist_stop_checks_total"
	MetricConvexTests      = "ist_convex_point_tests_total"
	MetricDegradations     = "ist_degradation_steps_total"
	MetricLPSolveSeconds   = "ist_lp_solve_seconds"
	MetricQuestionLatency  = "ist_question_latency_seconds"
	MetricQuestionsCertify = "ist_questions_to_certify"
	MetricSessionsTotal    = "ist_sessions_total"
	MetricSessionsLive     = "ist_sessions_live"

	// Exactly-once protocol and overload-safety series (DESIGN.md §12).
	MetricStoreErrors   = "ist_store_errors_total"
	MetricAnswerReplays = "ist_answer_replays_total"
	MetricSeqConflicts  = "ist_seq_conflicts_total"
	MetricShed          = "ist_shed_total"

	// Span-tracing and theory-bound series (DESIGN.md §13). The bound
	// gauges compare each certified session's question count against the
	// paper's 2-d bounds: vs_upper <= 1.0 means the run kept the O(log₂
	// ⌈2n/(k+1)⌉) guarantee (Thm 4.5), vs_lower ~ 1.0 means it is close to
	// the Ω(log₂(n/k)) information-theoretic floor (Thm 3.2).
	MetricQuestionsVsLower = "ist_questions_vs_lower_bound"
	MetricQuestionsVsUpper = "ist_questions_vs_upper_bound"
	MetricTraceBytes       = "ist_trace_bytes_total"
	MetricFlightDumps      = "ist_flight_dumps_total"

	// Shared preprocessing cache series (DESIGN.md §14.2). Hits/misses are
	// cumulative across every algorithm-level cache access (session create,
	// rehydration, budgeted lookups); bytes is the resident size of the
	// memoized values. Refreshed from prep.Cache.Stats at scrape time.
	MetricPrepCacheHits   = "ist_preprocess_cache_hits"
	MetricPrepCacheMisses = "ist_preprocess_cache_misses"
	MetricPrepCacheBytes  = "ist_preprocess_cache_bytes"

	// Client-side series, registered by the ist/client package when it is
	// given a registry.
	MetricClientRequests     = "ist_client_requests_total"
	MetricClientRetries      = "ist_client_retries_total"
	MetricClientBreakerTrips = "ist_client_breaker_trips_total"
)

// Metrics is an Observer that counts events into a Registry.
type Metrics struct {
	questions    *Counter
	lpSolves     *Counter
	lpIterations *Counter
	lpStatus     *CounterVec
	cuts         *Counter
	pruned       *Counter
	stopChecks   *Counter
	convexTests  *Counter
	degradations *Counter
	lpSeconds    *Histogram
}

// NewMetrics registers the standard event-driven metrics on reg and returns
// the bridge. Idempotent per registry: a second call returns a bridge over
// the same metrics.
func NewMetrics(reg *Registry) *Metrics {
	return &Metrics{
		questions:    reg.Counter(MetricQuestions, "Pairwise preference questions answered by users."),
		lpSolves:     reg.Counter(MetricLPSolves, "Linear-program solves in the simplex core."),
		lpIterations: reg.Counter(MetricLPIterations, "Total simplex pivot iterations."),
		lpStatus:     reg.CounterVec("ist_lp_solves_by_status_total", "Linear-program solves by final status.", "status"),
		cuts:         reg.Counter(MetricCuts, "Halfspace cuts applied to utility-space polytopes by answers."),
		pruned:       reg.Counter(MetricPruned, "Candidate partitions/intervals eliminated by answers."),
		stopChecks:   reg.Counter(MetricStopChecks, "Stopping-rule (Lemma 5.5) evaluations."),
		convexTests:  reg.Counter(MetricConvexTests, "Convex-point detection decisions."),
		degradations: reg.Counter(MetricDegradations, "Degradation-ladder steps taken under budget pressure."),
		lpSeconds:    reg.Histogram(MetricLPSolveSeconds, "LP solve latency in seconds.", DefBuckets),
	}
}

// Event implements Observer.
func (m *Metrics) Event(e Event) {
	switch e.Kind {
	case KindAnswerReceived:
		m.questions.Inc()
	case KindLPSolve:
		m.lpSolves.Inc()
		m.lpIterations.Add(int64(e.Count))
		m.lpStatus.With(e.Status).Inc()
		m.lpSeconds.Observe(e.Duration.Seconds())
	case KindHalfspaceCut:
		m.cuts.Inc()
	case KindCandidatePruned:
		m.pruned.Add(int64(e.Count))
	case KindStopConditionCheck:
		m.stopChecks.Inc()
	case KindConvexPointTest:
		m.convexTests.Inc()
	case KindDegradationStep:
		m.degradations.Inc()
	}
}
