package skyband

import (
	"math/rand"
	"runtime"
	"testing"
	"testing/quick"

	"ist/internal/geom"
)

func TestKSkyband2DMatchesGeneric(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		n := 5 + rng.Intn(200)
		k := 1 + rng.Intn(5)
		pts := make([]geom.Vector, n)
		for i := range pts {
			// Coarse grid to force plenty of ties and duplicates.
			pts[i] = geom.Vector{
				float64(rng.Intn(12)) / 12,
				float64(rng.Intn(12)) / 12,
			}
		}
		fast := KSkyband2D(pts, k)
		slow := kSkybandGeneric(pts, k)
		if !equalInts(fast, slow) {
			t.Fatalf("trial %d (n=%d k=%d): fast %v != slow %v", trial, n, k, fast, slow)
		}
	}
}

// kSkybandGeneric is the O(n^2) reference.
func kSkybandGeneric(pts []geom.Vector, k int) []int {
	counts := DominatorCount(pts)
	var out []int
	for i, c := range counts {
		if c < k {
			out = append(out, i)
		}
	}
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKSkyband2DDuplicates(t *testing.T) {
	pts := []geom.Vector{
		{0.5, 0.5}, {0.5, 0.5}, {0.9, 0.9}, {0.9, 0.9},
	}
	if got := KSkyband2D(pts, 2); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("2-skyband = %v, want [2 3]", got)
	}
	if got := KSkyband2D(pts, 3); len(got) != 4 {
		t.Fatalf("3-skyband = %v, want all", got)
	}
}

func TestKSkyband2DPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"3d":   func() { KSkyband2D([]geom.Vector{{1, 2, 3}}, 1) },
		"badK": func() { KSkyband2D([]geom.Vector{{1, 2}}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
	if got := KSkyband2D(nil, 1); got != nil {
		t.Fatalf("empty input: %v", got)
	}
}

// Property: fast path equals the generic path on continuous random data.
func TestQuick2DMatches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 10 + rng.Intn(150)
		k := 1 + rng.Intn(6)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.Float64(), rng.Float64()}
		}
		return equalInts(KSkyband2D(pts, k), kSkybandGeneric(pts, k))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The 2-d path runs once per catalog set-up, and all its scratch is garbage
// afterwards, so it is held to about 17 bytes a point.
func TestKSkyband2DScratch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Vector, 60000)
	for i := range pts {
		pts[i] = geom.Vector{rng.Float64(), rng.Float64()}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	band := KSkyband2D(pts, 5)
	runtime.ReadMemStats(&after)
	if got, limit := after.TotalAlloc-before.TotalAlloc, uint64(18*len(pts)+8*len(band)+4096); got > limit {
		t.Fatalf("KSkyband2D allocated %d bytes on %d points, want at most %d", got, len(pts), limit)
	}
}

func TestFenwick(t *testing.T) {
	f := newFenwick(10)
	f.add(3)
	f.add(3)
	f.add(7)
	if f.prefixCount(2) != 0 || f.prefixCount(3) != 2 || f.prefixCount(10) != 3 {
		t.Fatal("prefix counts wrong")
	}
	if f.suffixCount(1) != 3 || f.suffixCount(4) != 1 || f.suffixCount(8) != 0 {
		t.Fatal("suffix counts wrong")
	}
}

func BenchmarkKSkyband2DVsGeneric(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Vector, 20000)
	for i := range pts {
		// anti-correlated-ish for a large band
		x := rng.Float64()
		pts[i] = geom.Vector{x, 1 - x + rng.NormFloat64()*0.05}
	}
	b.Run("fenwick", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			KSkyband2D(pts, 10)
		}
	})
	b.Run("generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			kSkybandCounting(pts, 10)
		}
	})
}
