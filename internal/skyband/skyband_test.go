package skyband

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"ist/internal/geom"
)

func TestSkylineSmall(t *testing.T) {
	pts := []geom.Vector{
		{0.9, 0.1}, // skyline
		{0.5, 0.5}, // skyline
		{0.4, 0.4}, // dominated by (0.5,0.5)
		{0.1, 0.9}, // skyline
		{0.9, 0.1}, // duplicate of first: not dominated (no strict dim)
	}
	got := Skyline(pts)
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("Skyline = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Skyline = %v, want %v", got, want)
		}
	}
}

func TestKSkybandPaperTable2(t *testing.T) {
	// Table 2's dataset: all five points are in the 2-skyband except p5?
	// Verify against brute force below; here check k=1: p1, p3, p5 only
	// (p2 is dominated by p3; p4 is dominated by p3? p3=(0.5,0.8), p4=(0.7,0.4):
	// no. p4 not dominated; p5=(1,0) not dominated).
	pts := []geom.Vector{
		{0, 1}, {0.3, 0.7}, {0.5, 0.8}, {0.7, 0.4}, {1, 0},
	}
	got := Skyline(pts)
	want := []int{0, 2, 3, 4} // p2 dominated by p3
	if len(got) != len(want) {
		t.Fatalf("Skyline = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Skyline = %v, want %v", got, want)
		}
	}
	// k=2: everything survives (p2 has only 1 dominator).
	if got := KSkyband(pts, 2); len(got) != 5 {
		t.Fatalf("2-skyband = %v, want all 5", got)
	}
}

func TestKSkybandMonotoneInK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := randomPoints(rng, 200, 3)
	prev := 0
	for k := 1; k <= 5; k++ {
		cur := len(KSkyband(pts, k))
		if cur < prev {
			t.Fatalf("skyband size decreased from %d to %d at k=%d", prev, cur, k)
		}
		prev = cur
	}
}

// Property: KSkyband agrees with the brute-force dominator count.
func TestQuickKSkybandMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 30 + rng.Intn(70)
		d := 2 + rng.Intn(3)
		k := 1 + rng.Intn(4)
		pts := randomPoints(rng, n, d)
		got := KSkyband(pts, k)
		counts := DominatorCount(pts)
		var want []int
		for i, c := range counts {
			if c < k {
				want = append(want, i)
			}
		}
		if len(got) != len(want) {
			return false
		}
		sort.Ints(got)
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: every possible top-k point is in the k-skyband — for random
// utility vectors, the top-k points by utility are all skyband members.
func TestQuickSkybandContainsTopK(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 50 + rng.Intn(50)
		d := 2 + rng.Intn(3)
		k := 1 + rng.Intn(3)
		pts := randomPoints(rng, n, d)
		band := map[int]bool{}
		for _, i := range KSkyband(pts, k) {
			band[i] = true
		}
		for trial := 0; trial < 20; trial++ {
			u := randSimplex(rng, d)
			idx := topK(pts, u, k)
			for _, i := range idx {
				if !band[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFilter(t *testing.T) {
	pts := []geom.Vector{{1}, {2}, {3}}
	got := Filter(pts, []int{2, 0})
	if len(got) != 2 || got[0][0] != 3 || got[1][0] != 1 {
		t.Fatalf("Filter = %v", got)
	}
}

// TestFilterCopiesContiguously checks that Filter's points are copies with
// the selected values, stored back to back in one block, each capped at
// its own length.
func TestFilterCopiesContiguously(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	pts := make([]geom.Vector, 50)
	for i := range pts {
		pts[i] = geom.Vector{rng.Float64(), rng.Float64(), rng.Float64()}
	}
	idx := []int{4, 9, 9, 17, 31, 49}
	got := Filter(pts, idx)
	if len(got) != len(idx) {
		t.Fatalf("Filter kept %d points, want %d", len(got), len(idx))
	}
	for i, j := range idx {
		if !slices.Equal(got[i], pts[j]) || cap(got[i]) != len(pts[j]) {
			t.Fatalf("point %d = %v (cap %d), want %v (cap %d)", i, got[i], cap(got[i]), pts[j], len(pts[j]))
		}
		prev := reflect.ValueOf(got[max(i-1, 0)])
		if i > 0 && reflect.ValueOf(got[i]).Pointer() != prev.Pointer()+uintptr(8*prev.Len()) {
			t.Fatalf("point %d does not follow point %d in memory", i, i-1)
		}
	}
	got[0][0] = -1
	_ = append(got[1], 7) // a full copy: must not spill into got[2]
	if pts[idx[0]][0] == -1 || got[2][0] != pts[idx[2]][0] {
		t.Fatal("Filter's points share memory with the input or with each other")
	}
	if len(Filter(pts, nil)) != 0 {
		t.Fatal("Filter of no indices is not empty")
	}
}

func TestKSkybandDuplicates(t *testing.T) {
	// The lower-bound dataset of Theorem 3.2: groups of k identical points.
	// Duplicates never dominate each other, so all of them stay in any
	// skyband.
	pts := []geom.Vector{
		{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5},
		{0.9, 0.9}, {0.9, 0.9}, {0.9, 0.9},
	}
	// (0.9,0.9) dominates (0.5,0.5): only the three 0.9s survive k=1, and
	// the duplicates do not eliminate each other.
	if got := Skyline(pts); len(got) != 3 {
		t.Fatalf("Skyline = %v, want the three 0.9 duplicates", got)
	}
}

func TestKSkybandDuplicatesDominated(t *testing.T) {
	pts := []geom.Vector{
		{0.5, 0.5}, {0.5, 0.5},
		{0.9, 0.9}, {0.9, 0.9},
	}
	// Each (0.5,0.5) is dominated by two points; 2-skyband excludes them,
	// 3-skyband includes everything.
	if got := KSkyband(pts, 2); len(got) != 2 {
		t.Fatalf("2-skyband = %v, want the two 0.9s", got)
	}
	if got := KSkyband(pts, 3); len(got) != 4 {
		t.Fatalf("3-skyband = %v, want all", got)
	}
}

func randomPoints(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := geom.NewVector(d)
		for j := range p {
			p[j] = rng.Float64()
		}
		pts[i] = p
	}
	return pts
}

func randSimplex(rng *rand.Rand, d int) geom.Vector {
	u := geom.NewVector(d)
	s := 0.0
	for i := range u {
		u[i] = rng.ExpFloat64()
		s += u[i]
	}
	return u.Scale(1 / s)
}

func topK(pts []geom.Vector, u geom.Vector, k int) []int {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return u.Dot(pts[idx[a]]) > u.Dot(pts[idx[b]])
	})
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}
