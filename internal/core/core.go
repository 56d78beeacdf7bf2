// Package core implements the paper's interactive algorithms for the IST
// problem (Interactive Search for one of the Top-k): 2D-PI (Section 4),
// HD-PI (Section 5.2), RH (Section 5.3), and their AllTopK / SomeTopK
// variants (Sections 6.5.1 and 6.5.2).
//
// All algorithms interact with an oracle.Oracle — the (real or simulated)
// user — and return the index of a point guaranteed to be among the user's
// top-k. Inputs are expected to be preprocessed to the k-skyband (package
// skyband), matching the experimental setup of Section 6; the algorithms
// remain correct without the preprocessing, just slower.
package core

import (
	"ist/internal/geom"
	"ist/internal/obs"
	"ist/internal/oracle"
	"ist/internal/prep"
)

// Algorithm is an interactive IST solver.
type Algorithm interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// Run interacts with the oracle until it can return the index of a point
	// that is among the user's top-k points of the input.
	Run(points []geom.Vector, k int, o oracle.Oracle) int
}

// MultiAlgorithm solves the AllTopK/SomeTopK variants: it returns several
// point indices, all guaranteed to be among the user's top-k.
type MultiAlgorithm interface {
	Name() string
	// RunMulti returns `want` indices among the user's top-k (or all k for
	// the AllTopK variants when want == k).
	RunMulti(points []geom.Vector, k, want int, o oracle.Oracle) []int
}

// Budgeted is an Algorithm that can run anytime-style under a Budget:
// it checks the budget at every question boundary and inside its heavy
// loops, and on exhaustion returns a best-effort point with an honest
// Certificate instead of running on.
type Budgeted interface {
	Algorithm
	RunBudgeted(points []geom.Vector, k int, o oracle.Oracle, b Budget) (int, Certificate)
}

// BudgetedMulti is the multi-answer counterpart of Budgeted.
type BudgetedMulti interface {
	MultiAlgorithm
	RunMultiBudgeted(points []geom.Vector, k, want int, o oracle.Oracle, b Budget) ([]int, Certificate)
}

// Observable is implemented by algorithms that can attach a trace observer
// (internal/obs) to their subsequent runs. A nil observer restores the
// uninstrumented fast path; a non-nil observer receives the question, cut,
// prune, LP and stop-check event stream but never changes behaviour —
// events carry only already-computed state, so transcripts and results stay
// bit-identical and no randomness is consumed.
type Observable interface {
	SetObserver(o obs.Observer)
}

// Parallelizable was implemented by algorithms whose preprocessing could fan
// out over a worker pool.
//
// Deprecated: no algorithm implements it; preprocessing runs serially. It is
// kept only because the dialoguebench module compiles against it.
type Parallelizable interface {
	SetParallelism(workers int)
}

// PrepCached is implemented by algorithms that can memoize dataset-level
// preprocessing (convex points, sweep partitions) in a shared prep.Cache.
// fingerprint keys the entries (ist.Fingerprint of the dataset); 0 disables
// caching even with a cache attached. Cached and cold runs emit identical
// event streams — the cache replays the recorded preprocessing tape.
type PrepCached interface {
	SetPrepCache(c *prep.Cache, fingerprint uint64)
}

// RunBudgeted runs alg under b. Algorithms without budget support run to
// their own stopping rule (which is the guarantee their result carries) and
// report a converged certificate; the budget is ignored for them, which is
// honest but unbounded — callers needing hard limits should pick a Budgeted
// implementation.
func RunBudgeted(alg Algorithm, points []geom.Vector, k int, o oracle.Oracle, b Budget) (int, Certificate) {
	if ba, ok := alg.(Budgeted); ok {
		return ba.RunBudgeted(points, k, o, b)
	}
	before := o.Questions()
	idx := alg.Run(points, k, o)
	return idx, Certificate{
		Certified:  true,
		Reason:     StopConverged,
		Questions:  o.Questions() - before,
		Candidates: len(points),
	}
}

// RunMultiBudgeted is RunBudgeted for multi-answer algorithms.
func RunMultiBudgeted(alg MultiAlgorithm, points []geom.Vector, k, want int, o oracle.Oracle, b Budget) ([]int, Certificate) {
	if ba, ok := alg.(BudgetedMulti); ok {
		return ba.RunMultiBudgeted(points, k, want, o, b)
	}
	before := o.Questions()
	idx := alg.RunMulti(points, k, want, o)
	return idx, Certificate{
		Certified:  true,
		Reason:     StopConverged,
		Questions:  o.Questions() - before,
		Candidates: len(points),
	}
}
