// Package ist is a Go implementation of "Interactive Search for One of the
// Top-k" (Wang, Wong, Xie — SIGMOD 2021).
//
// Given a dataset of tuples with d numeric attributes (normalized to (0,1],
// larger preferred) and a user whose preference is an unknown linear utility
// function, the IST problem asks the user as few pairwise "which do you
// prefer?" questions as possible until a tuple guaranteed to be among the
// user's top-k can be returned.
//
// The package exposes the paper's three algorithms —
//
//   - TwoDPI: asymptotically optimal in 2 dimensions (Section 4),
//   - HDPI: the partition-based d-dimensional algorithm that asks the
//     fewest questions in practice (Section 5.2),
//   - RH: the hyperplane-walking d-dimensional algorithm with an expected
//     O(d log n) question bound, fastest in wall-clock time (Section 5.3),
//
// plus the adapted competitor algorithms of the paper's evaluation, dataset
// generators, skyline/k-skyband preprocessing, and simulated users (exact
// and noisy). See the examples/ directory for runnable walkthroughs and
// EXPERIMENTS.md for the reproduction of every figure in the paper.
//
// Quick start:
//
//	points := ist.AntiCorrelated(rng, 1000, 4).Points
//	band := ist.Preprocess(points, 10)            // 10-skyband
//	user := ist.NewUser(hiddenUtility)            // or a real io-based oracle
//	res := ist.Solve(ist.NewRH(42), band, 10, user)
//	fmt.Println(res.Point, res.Questions)
package ist

import (
	"io"
	"math/rand"
	"time"

	"ist/internal/baseline"
	"ist/internal/clock"
	"ist/internal/core"
	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/polytope"
	"ist/internal/prep"
	"ist/internal/skyband"
)

// Point is a tuple as a vector of attribute values in (0,1], larger
// preferred in every dimension.
type Point = geom.Vector

// Oracle answers pairwise preference questions; it is how algorithms talk
// to the (real or simulated) user.
type Oracle = oracle.Oracle

// Algorithm is an interactive IST solver returning the index of a point
// among the user's top-k.
type Algorithm = core.Algorithm

// MultiAlgorithm returns several of the user's top-k points (the AllTopK /
// SomeTopK variants of Section 6.5).
type MultiAlgorithm = core.MultiAlgorithm

// Dataset is a named point collection.
type Dataset = dataset.Dataset

// User is a truthful simulated user with a hidden utility vector.
type User = oracle.User

// NoisyUser is a simulated user who errs with some probability per question.
type NoisyUser = oracle.NoisyUser

// NewUser returns a truthful simulated user.
func NewUser(utility Point) *User { return oracle.NewUser(utility) }

// NewNoisyUser returns a simulated user who flips each answer independently
// with probability errRate.
func NewNoisyUser(utility Point, errRate float64, rng *rand.Rand) *NoisyUser {
	return oracle.NewNoisyUser(utility, errRate, rng)
}

// RandomUtility draws a utility vector uniformly from the standard simplex.
func RandomUtility(rng *rand.Rand, d int) Point { return oracle.RandomUtility(rng, d) }

// Preprocess reduces points to their k-skyband — the set of all possible
// top-k points for any linear utility — exactly as the paper's experiments
// preprocess every dataset (Section 6).
func Preprocess(points []Point, k int) []Point {
	return skyband.Filter(points, skyband.KSkyband(points, k))
}

// TopK returns the indices of the k highest-utility points w.r.t. u.
func TopK(points []Point, u Point, k int) []int { return oracle.TopK(points, u, k) }

// IsTopK reports whether p is among the k highest-utility points.
func IsTopK(points []Point, u Point, k int, p Point) bool {
	return oracle.IsTopK(points, u, k, p)
}

// Accuracy is the paper's result-quality measure f(p)/f(p_k), capped at 1.
func Accuracy(points []Point, u Point, k int, p Point) float64 {
	return oracle.Accuracy(points, u, k, p)
}

// TheoryBounds returns the paper's 2-d question-count bounds for an (n, k)
// instance: the Ω(log₂(n/k)) lower bound of Theorem 3.2 and the
// O(log₂⌈2n/(k+1)⌉) upper bound 2D-PI achieves (Theorem 4.5). The server
// compares every certified session against them (DESIGN.md §13).
func TheoryBounds(n, k int) (lower, upper float64) { return core.TheoryBounds(n, k) }

// Budget bounds an interactive run: a maximum number of questions, a
// deadline (checked against Clock, default the wall clock), and an optional
// context whose cancellation stops the run. The zero Budget is inactive and
// leaves the algorithm's behaviour — including its random choices —
// bit-identical to an unbudgeted run.
type Budget = core.Budget

// Certificate reports how a budgeted run ended and how much of the answer
// quality survives: whether the result is guaranteed top-k (Certified), the
// stop reason, questions spent, how many points were still candidates, the
// credible weight fraction (RobustHDPI only), and any degradation-ladder
// steps taken along the way.
type Certificate = core.Certificate

// StopReason labels why a budgeted run stopped; see the Stop* constants.
type StopReason = core.StopReason

// Stop reasons reported in a Certificate.
const (
	StopConverged  = core.StopConverged
	StopQuestions  = core.StopQuestions
	StopDeadline   = core.StopDeadline
	StopCanceled   = core.StopCanceled
	StopDegenerate = core.StopDegenerate
	StopPanic      = core.StopPanic
)

// Clock is the injectable time source for deadline budgets.
type Clock = clock.Clock

// Observer receives structured trace events from an instrumented run:
// questions asked and answered, halfspace cuts, candidate prunes, LP solves,
// convex-point tests, stop-condition checks and degradation steps. Attaching
// an observer never changes an algorithm's behaviour — events carry only
// already-computed state — and a nil observer is the zero-cost fast path.
type Observer = obs.Observer

// TraceEvent is one structured trace event.
type TraceEvent = obs.Event

// TraceEventKind labels a TraceEvent.
type TraceEventKind = obs.EventKind

// Observe attaches a trace observer to an algorithm built by this package
// (TwoDPI, HD-PI and variants, RH and variants). It reports false when the
// algorithm does not support tracing (the adapted baselines). Passing a nil
// observer detaches.
func Observe(alg any, o Observer) bool {
	oa, ok := alg.(core.Observable)
	if ok {
		oa.SetObserver(o)
	}
	return ok
}

// SetParallelism does nothing and reports false: preprocessing runs
// serially.
//
// Deprecated: it is kept only because the dialoguebench module compiles
// against it.
func SetParallelism(alg any, workers int) bool { return false }

// PreprocessCache memoizes dataset-level preprocessing — k-skybands, exact
// convex-point sets, 2-d sweep partitions — across sessions over the same
// dataset, keyed by Fingerprint. Safe for concurrent use; computations are
// single-flighted. Each memoized entry stores the trace-event tape of its
// first computation and replays it on every hit, so cached and cold runs
// emit identical event streams.
type PreprocessCache = prep.Cache

// PreprocessCacheStats is a snapshot of cache effectiveness counters.
type PreprocessCacheStats = prep.Stats

// NewPreprocessCache returns a PreprocessCache holding at most maxBytes of
// memoized values (approximate; least-recently-used entries are evicted).
// maxBytes <= 0 means unbounded.
func NewPreprocessCache(maxBytes int64) *PreprocessCache { return prep.New(maxBytes) }

// UsePreprocessCache attaches a shared preprocessing cache to an algorithm
// built by this package, keying its entries by the fingerprint of (points,
// k) — the dataset the algorithm will run on. It reports false when the
// algorithm has no cacheable preprocessing stage. A nil cache detaches.
func UsePreprocessCache(alg any, c *PreprocessCache, points []Point, k int) bool {
	pc, ok := alg.(core.PrepCached)
	if ok {
		if c == nil {
			pc.SetPrepCache(nil, 0)
		} else {
			pc.SetPrepCache(c, Fingerprint(points, k))
		}
	}
	return ok
}

// PreprocessCached is Preprocess with the k-skyband memoized in c: the
// index set is cached under the dataset fingerprint, and the point copies
// are rebuilt per call so callers own their slice. A nil cache computes
// directly.
func PreprocessCached(c *PreprocessCache, points []Point, k int) []Point {
	if c == nil {
		return Preprocess(points, k)
	}
	key := prep.Key{Fingerprint: Fingerprint(points, k), Kind: "skyband", Param: k}
	v, err := c.Do(key, nil, func(obs.Observer) (any, int64, error) {
		band := skyband.KSkyband(points, k)
		return band, int64(len(band))*8 + 24, nil
	})
	if err != nil {
		return Preprocess(points, k)
	}
	return skyband.Filter(points, v.([]int))
}

// TraceWriter streams trace events as JSON Lines, one event per line with a
// sequence number and seconds-since-first-event timestamp.
type TraceWriter = obs.JSONL

// NewTraceWriter returns a TraceWriter over w (commonly a file or stderr),
// timestamping events on the real clock. Close flushes nothing (every event
// is written eagerly) but closes w when it is an io.Closer.
func NewTraceWriter(w io.Writer) *TraceWriter {
	return obs.NewJSONL(w, clock.Real)
}

// Result is the outcome of a Solve call.
type Result struct {
	// Index is the returned point's index into the input slice.
	Index int
	// Point is the returned point.
	Point Point
	// Questions is how many questions the user answered.
	Questions int
	// Duration is the algorithm's processing time (excluding nothing: the
	// simulated oracle answers in ~0, so this matches the paper's
	// "execution time").
	Duration time.Duration
	// Certificate describes how a budgeted run ended; nil for plain Solve.
	Certificate *Certificate
}

// Solve runs an algorithm against the oracle and packages the outcome.
func Solve(alg Algorithm, points []Point, k int, o Oracle) Result {
	before := o.Questions()
	start := clock.Real.Now()
	idx := alg.Run(points, k, o)
	return Result{
		Index:     idx,
		Point:     points[idx].Clone(),
		Questions: o.Questions() - before,
		Duration:  clock.Real.Now().Sub(start),
	}
}

// SolveBudgeted is Solve under an anytime budget: the run stops cleanly when
// the budget is exhausted (questions, deadline, or context cancellation) and
// the Result carries a Certificate stating whether the returned point is
// still guaranteed top-k or only best-effort. Algorithms that do not
// implement budget checks run to completion and certify their own result.
func SolveBudgeted(alg Algorithm, points []Point, k int, o Oracle, b Budget) Result {
	before := o.Questions()
	start := clock.Real.Now()
	idx, cert := core.RunBudgeted(alg, points, k, o, b)
	return Result{
		Index:       idx,
		Point:       points[idx].Clone(),
		Questions:   o.Questions() - before,
		Duration:    clock.Real.Now().Sub(start),
		Certificate: &cert,
	}
}

// NewTwoDPI returns the asymptotically optimal 2-dimensional algorithm.
func NewTwoDPI() Algorithm { return &core.TwoDPI{} }

// NewHDPI returns HD-PI in sampling mode (the paper's practical default)
// with the given seed.
func NewHDPI(seed int64) Algorithm {
	return core.NewHDPI(core.HDPIOptions{
		Mode: core.ConvexSampling,
		Rng:  rand.New(rand.NewSource(seed)),
	})
}

// NewHDPIAccurate returns HD-PI with exact convex-point detection.
func NewHDPIAccurate(seed int64) Algorithm {
	return core.NewHDPI(core.HDPIOptions{
		Mode: core.ConvexExact,
		Rng:  rand.New(rand.NewSource(seed)),
	})
}

// NewRH returns the RH algorithm with the given seed.
func NewRH(seed int64) Algorithm { return core.NewRHDefault(seed) }

// NewRHMulti returns RH for the multi-answer variants (Section 6.5): the
// same algorithm as NewRH, whose loop stops once `want` points are certain.
func NewRHMulti(seed int64) MultiAlgorithm { return core.NewRHDefault(seed) }

// NewHDPIMulti returns HD-PI for the multi-answer variants (Section 6.5):
// the same algorithm as NewHDPI, whose loop stops once `want` points are
// certain.
func NewHDPIMulti(seed int64) MultiAlgorithm {
	return core.NewHDPI(core.HDPIOptions{
		Mode: core.ConvexSampling,
		Rng:  rand.New(rand.NewSource(seed)),
	})
}

// Baseline constructors (the adapted competitors of Section 6).

// NewMedian returns the 2-d Median baseline of [36].
func NewMedian() Algorithm { return baseline.Median{} }

// NewHull returns the 2-d Hull baseline of [36].
func NewHull() Algorithm { return baseline.Hull{} }

// NewMedianAdapt returns Median with the paper's top-k adaptation.
func NewMedianAdapt() Algorithm { return baseline.MedianAdapt{} }

// NewHullAdapt returns Hull with the paper's top-k adaptation.
func NewHullAdapt() Algorithm { return baseline.HullAdapt{} }

// NewUHRandom returns UH-Random [36] with regret threshold eps.
func NewUHRandom(eps float64, seed int64) Algorithm {
	return &baseline.UH{Eps: eps, Rng: rand.New(rand.NewSource(seed))}
}

// NewUHSimplex returns UH-Simplex [36] with regret threshold eps.
func NewUHSimplex(eps float64, seed int64) Algorithm {
	return &baseline.UH{Simplex: true, Eps: eps, Rng: rand.New(rand.NewSource(seed))}
}

// NewUHRandomAdapt returns the adapted UH-Random.
func NewUHRandomAdapt(seed int64) Algorithm {
	return &baseline.UH{Adapt: true, Rng: rand.New(rand.NewSource(seed))}
}

// NewUHSimplexAdapt returns the adapted UH-Simplex.
func NewUHSimplexAdapt(seed int64) Algorithm {
	return &baseline.UH{Simplex: true, Adapt: true, Rng: rand.New(rand.NewSource(seed))}
}

// NewUtilityApprox returns UtilityApprox [22] with regret threshold eps.
func NewUtilityApprox(eps float64) Algorithm { return &baseline.UtilityApprox{Eps: eps} }

// NewPreferenceLearning returns Preference-Learning [27].
func NewPreferenceLearning(seed int64) Algorithm {
	return &baseline.PreferenceLearning{Rng: rand.New(rand.NewSource(seed))}
}

// NewActiveRanking returns Active-Ranking [14].
func NewActiveRanking(seed int64) Algorithm {
	return &baseline.ActiveRanking{Rng: rand.New(rand.NewSource(seed))}
}

// EpsilonForTopK computes the paper's adapted regret threshold
// ε = 1 − f(p_k)/f(p₁) from the hidden utility vector. It is how the
// experiments configure UtilityApprox / UH-Random / UH-Simplex so that
// their regret-based stopping implies a top-k answer (Section 6).
func EpsilonForTopK(points []Point, u Point, k int) float64 {
	return oracle.EpsilonForTopK(points, u, k)
}

// Dataset generators (Section 6 workloads; see DESIGN.md for the real
// dataset stand-ins).

// AntiCorrelated generates the paper's default synthetic workload.
func AntiCorrelated(rng *rand.Rand, n, d int) *Dataset { return dataset.AntiCorrelated(rng, n, d) }

// Correlated generates positively correlated points.
func Correlated(rng *rand.Rand, n, d int) *Dataset { return dataset.Correlated(rng, n, d) }

// Independent generates uniform points.
func Independent(rng *rand.Rand, n, d int) *Dataset { return dataset.Independent(rng, n, d) }

// IslandLike generates the 2-d Island stand-in.
func IslandLike(rng *rand.Rand, n int) *Dataset { return dataset.IslandLike(rng, n) }

// WeatherLike generates the 4-d Weather stand-in.
func WeatherLike(rng *rand.Rand, n int) *Dataset { return dataset.WeatherLike(rng, n) }

// CarLike generates the 4-d used-car stand-in.
func CarLike(rng *rand.Rand, n int) *Dataset { return dataset.CarLike(rng, n) }

// NBALike generates the 6-d NBA stand-in.
func NBALike(rng *rand.Rand, n int) *Dataset { return dataset.NBALike(rng, n) }

// DatasetByName builds a dataset by its experiment name
// (anti|corr|indep|island|weather|car|nba).
func DatasetByName(name string, rng *rand.Rand, n, d int) (*Dataset, error) {
	return dataset.ByName(name, rng, n, d)
}

// BoundStats re-exports the bounding-strategy effectiveness counters used by
// the Figure 5 reproduction.
type BoundStats = polytope.BoundStats
