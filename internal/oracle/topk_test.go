package oracle

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ist/internal/geom"
)

// topKStableSort is the ranking TopK computed before it became a bounded
// selection: a stable sort of all n indices, kept as the reference the
// selection must reproduce index for index.
func topKStableSort(points []geom.Vector, u geom.Vector, k int) []int {
	idx := make([]int, len(points))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		ua, ub := u.Dot(points[idx[a]]), u.Dot(points[idx[b]])
		if ua != ub {
			return ua > ub
		}
		return idx[a] < idx[b]
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// kthUtilitySort is KthUtility before selection: sort every utility.
func kthUtilitySort(points []geom.Vector, u geom.Vector, k int) float64 {
	vals := make([]float64, len(points))
	for i, p := range points {
		vals[i] = u.Dot(p)
	}
	sort.Sort(sort.Reverse(sort.Float64Slice(vals)))
	if k > len(vals) {
		k = len(vals)
	}
	return vals[k-1]
}

// epsilonForTopKSort is the ε helper the facade and the experiments each
// carried before EpsilonForTopK.
func epsilonForTopKSort(points []geom.Vector, u geom.Vector, k int) float64 {
	if len(points) == 0 {
		return 0
	}
	f1 := u.Dot(points[topKStableSort(points, u, 1)[0]])
	if f1 <= 0 {
		return 0
	}
	return 1 - kthUtilitySort(points, u, k)/f1
}

// topKInputs yields random and tie-heavy ranking inputs: continuous
// points, points on a coarse grid (equal utilities everywhere),
// duplicated points, and utility vectors with zero weights.
func topKInputs(rng *rand.Rand) (cases [][]geom.Vector, utils []geom.Vector) {
	for trial := 0; trial < 60; trial++ {
		d := 1 + rng.Intn(5)
		n := 1 + rng.Intn(80)
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := geom.NewVector(d)
			for j := range p {
				switch trial % 3 {
				case 0:
					p[j] = rng.Float64()
				default:
					p[j] = float64(rng.Intn(4)) / 4
				}
			}
			pts[i] = p
		}
		if trial%2 == 1 {
			// Duplicate a random share of the points, in place and appended.
			for i := range pts {
				if rng.Intn(3) == 0 {
					pts[i] = pts[rng.Intn(n)].Clone()
				}
			}
			pts = append(pts, pts[:rng.Intn(n)+1]...)
		}
		u := RandomUtility(rng, d)
		if trial%4 == 3 {
			u[rng.Intn(d)] = 0
		}
		cases = append(cases, pts)
		utils = append(utils, u)
	}
	return cases, utils
}

func TestTopKMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pointSets, utils := topKInputs(rng)
	var warm Ranker // reused across every input, growing and shrinking
	for c, pts := range pointSets {
		u := utils[c]
		n := len(pts)
		for _, k := range []int{0, 1, n / 2, n - 1, n, n + 3} {
			want := topKStableSort(pts, u, k)
			if got := TopK(pts, u, k); !slices.Equal(got, want) {
				t.Fatalf("case %d (n=%d k=%d): TopK = %v, want %v", c, n, k, got, want)
			}
			if got := warm.TopK(pts, u, k); !slices.Equal(got, want) {
				t.Fatalf("case %d (n=%d k=%d): warm Ranker = %v, want %v", c, n, k, got, want)
			}
		}
	}
}

func TestTopKEmptyAndNegative(t *testing.T) {
	if got := TopK(nil, geom.Vector{1}, 3); len(got) != 0 {
		t.Fatalf("TopK(nil) = %v", got)
	}
	pts := []geom.Vector{{0.2}, {0.9}}
	if got := TopK(pts, geom.Vector{1}, -1); len(got) != 0 {
		t.Fatalf("TopK(k=-1) = %v", got)
	}
}

// FuzzTopK compares the selection with the stable sort on byte-derived
// points whose coordinates take one of eight values, so equal utilities
// and duplicated points are common.
func FuzzTopK(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint8(2), uint8(3), uint8(0))
	f.Add([]byte{7, 7, 7, 7, 7, 7}, uint8(1), uint8(1), uint8(4))
	f.Add([]byte{0, 1, 0, 1, 1, 0, 1, 0, 0, 0}, uint8(2), uint8(9), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, dRaw, kRaw, uRaw uint8) {
		d := int(dRaw)%4 + 1
		n := len(data) / d
		if n == 0 || n > 200 {
			return
		}
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.NewVector(d)
			for j := range pts[i] {
				pts[i][j] = float64(data[i*d+j]%8) / 8
			}
		}
		u := geom.NewVector(d)
		for j := range u {
			u[j] = float64((int(uRaw)>>j)&3) / 3
		}
		k := int(kRaw) % (n + 4)
		want := topKStableSort(pts, u, k)
		if got := TopK(pts, u, k); !slices.Equal(got, want) {
			t.Fatalf("n=%d k=%d u=%v: TopK = %v, want %v", n, k, u, got, want)
		}
		if k >= 1 {
			if got, want := KthUtility(pts, u, k), kthUtilitySort(pts, u, k); got != want {
				t.Fatalf("n=%d k=%d: KthUtility = %v, want %v", n, k, got, want)
			}
		}
	})
}

// TestEpsilonForTopKUnchanged checks EpsilonForTopK and KthUtility against
// the sort-based helpers they replace, bit for bit, on every k in range.
func TestEpsilonForTopKUnchanged(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pointSets, utils := topKInputs(rng)
	for c, pts := range pointSets {
		u := utils[c]
		for k := 1; k <= len(pts)+2; k++ {
			if got, want := EpsilonForTopK(pts, u, k), epsilonForTopKSort(pts, u, k); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("case %d k=%d: EpsilonForTopK = %v, want %v", c, k, got, want)
			}
			if got, want := KthUtility(pts, u, k), kthUtilitySort(pts, u, k); got != want {
				t.Fatalf("case %d k=%d: KthUtility = %v, want %v", c, k, got, want)
			}
		}
	}
	if EpsilonForTopK(nil, geom.Vector{1}, 1) != 0 {
		t.Fatal("EpsilonForTopK(nil) must be 0")
	}
}

// TestKClampedToOne checks that k < 1 reads the top utility instead of
// panicking on index −1, as k > n already reads the last.
func TestKClampedToOne(t *testing.T) {
	pts := []geom.Vector{{0, 1}, {0.3, 0.7}, {0.5, 0.8}, {0.7, 0.4}, {1, 0}}
	u := geom.Vector{0.4, 0.6}
	for _, k := range []int{0, -3} {
		if got, want := KthUtility(pts, u, k), KthUtility(pts, u, 1); got != want {
			t.Fatalf("KthUtility(k=%d) = %v, want %v", k, got, want)
		}
		if got := EpsilonForTopK(pts, u, k); got != 0 {
			t.Fatalf("EpsilonForTopK(k=%d) = %v, want 0", k, got)
		}
		if got := Accuracy(pts, u, k, pts[2]); got != 1 {
			t.Fatalf("Accuracy of the top point at k=%d = %v, want 1", k, got)
		}
	}
	if KthUtility(nil, u, 2) != 0 {
		t.Fatal("KthUtility(nil) must be 0")
	}
}
