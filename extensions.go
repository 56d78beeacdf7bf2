package ist

// Extensions beyond the paper, addressing its stated future work (users
// who make mistakes) and the follow-up sorting-based interaction of [40].

import (
	"math/rand"

	"ist/internal/baseline"
	"ist/internal/core"
	"ist/internal/oracle"
)

// NewRobustHDPI returns the noise-tolerant HD-PI variant: instead of
// hard-eliminating partitions (where one wrong answer can discard the true
// region forever), it keeps every partition with a multiplicative weight
// and stops when one partition dominates the weight mass. Trades a few
// extra questions for mistake recovery; see the ext-noise experiment.
func NewRobustHDPI(seed int64) Algorithm {
	return core.NewRobustHDPI(core.HDPIOptions{
		Mode: core.ConvexSampling,
		Rng:  rand.New(rand.NewSource(seed)),
	})
}

// NewMajorityOracle wraps any oracle with votes-fold question repetition and
// majority voting (votes must be odd) — the simplest mistake mitigation.
// Questions() of the wrapped oracle counts every repetition, keeping the
// effort trade-off honest.
func NewMajorityOracle(inner Oracle, votes int) Oracle {
	return oracle.NewMajorityOracle(inner, votes)
}

// SortingUH is the sorting-based interactive algorithm of [40]
// (Sorting-Random / Sorting-Simplex): each round displays several tuples
// and derives one halfspace cut per adjacent pair of the user's ordering.
type SortingUH = baseline.SortingUH

// NewSortingRandom returns Sorting-Random [40] with the given display size
// and regret threshold.
func NewSortingRandom(displaySize int, eps float64, seed int64) *SortingUH {
	return &baseline.SortingUH{
		DisplaySize: displaySize, Eps: eps,
		Rng: rand.New(rand.NewSource(seed)),
	}
}

// NewSortingSimplex returns Sorting-Simplex [40].
func NewSortingSimplex(displaySize int, eps float64, seed int64) *SortingUH {
	return &baseline.SortingUH{
		Simplex: true, DisplaySize: displaySize, Eps: eps,
		Rng: rand.New(rand.NewSource(seed)),
	}
}
