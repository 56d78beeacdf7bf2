package hull

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/oracle"
)

// exactScan is the serial exact scan, failing the test on a certificate error.
func exactScan(t testing.TB, pts []geom.Vector) []int {
	t.Helper()
	v, err := ConvexPointsExact(pts, nil, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func TestConvexPointsExact2D(t *testing.T) {
	// Table 2: p1(0,1), p2(0.3,0.7), p3(0.5,0.8), p4(0.7,0.4), p5(1,0).
	// Upper hull (top-1 achievable): p1, p3, p5. p2 is below segment p1-p3;
	// p4 is below segment p3-p5 (at x=0.7: 0.8 + 0.2/0.5*(-0.8)... check in
	// utility terms instead: verified by the sampling cross-check below).
	pts := []geom.Vector{{0, 1}, {0.3, 0.7}, {0.5, 0.8}, {0.7, 0.4}, {1, 0}}
	got := exactScan(t, pts)
	want := []int{0, 2, 4}
	if len(got) != len(want) {
		t.Fatalf("ConvexPointsExact = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ConvexPointsExact = %v, want %v", got, want)
		}
	}
}

func TestConvexPointsDominatedNeverConvex(t *testing.T) {
	pts := []geom.Vector{{0.9, 0.9}, {0.5, 0.5}, {0.8, 0.95}}
	got := exactScan(t, pts)
	for _, i := range got {
		if i == 1 {
			t.Fatal("strictly dominated point reported convex")
		}
	}
}

func TestConvexPointsDuplicates(t *testing.T) {
	// Duplicates of a convex point are all convex (tied top-1).
	pts := []geom.Vector{{1, 0}, {1, 0}, {0, 1}, {0.4, 0.4}}
	got := exactScan(t, pts)
	want := []int{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestConvexPointsSingle(t *testing.T) {
	pts := []geom.Vector{{0.5, 0.5, 0.5}}
	if got := exactScan(t, pts); len(got) != 1 || got[0] != 0 {
		t.Fatalf("singleton: %v", got)
	}
	if got := exactScan(t, nil); got != nil {
		t.Fatalf("empty: %v", got)
	}
}

func TestSamplingSubsetOfExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := dataset.AntiCorrelated(rng, 300, 3)
	exact := map[int]bool{}
	for _, i := range exactScan(t, d.Points) {
		exact[i] = true
	}
	sampled := ConvexPointsSampling(d.Points, 500, rng)
	for _, i := range sampled {
		if !exact[i] {
			t.Fatalf("sampling found %d which exact says is not convex", i)
		}
	}
	if len(sampled) == 0 {
		t.Fatal("sampling found nothing")
	}
}

// Property: every point that wins a random utility draw must be reported by
// the exact method (completeness), and every reported point must win at its
// LP witness (checked internally) — cross-validate with brute force over a
// fine sample.
func TestQuickExactCompleteness(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		d := 2 + rng.Intn(3)
		pts := make([]geom.Vector, n)
		for i := range pts {
			p := geom.NewVector(d)
			for j := range p {
				p[j] = rng.Float64()
			}
			pts[i] = p
		}
		exact := map[int]bool{}
		for _, i := range exactScan(t, pts) {
			exact[i] = true
		}
		for s := 0; s < 200; s++ {
			u := oracle.RandomUtility(rng, d)
			if !exact[argmax(pts, u, -1)] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: soundness — every exact convex point is the (tied) winner of at
// least one sampled utility among many, OR wins its own verification (small
// top-1 regions can escape sampling, so verify via a dense sweep in 2D
// where the answer is computable by brute force).
func TestExactSoundness2D(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := 30 + rng.Intn(50)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.Float64(), rng.Float64()}
		}
		got := exactScan(t, pts)
		// Brute force in 2D: sweep u1 over a fine grid, collect winners
		// (with tolerance for ties).
		winners := map[int]bool{}
		for s := 0; s <= 5000; s++ {
			u1 := float64(s) / 5000
			u := geom.Vector{u1, 1 - u1}
			best := -1.0
			for _, p := range pts {
				if v := u.Dot(p); v > best {
					best = v
				}
			}
			for i, p := range pts {
				if u.Dot(p) >= best-1e-12 {
					winners[i] = true
				}
			}
		}
		gotSet := map[int]bool{}
		for _, i := range got {
			gotSet[i] = true
		}
		// Completeness: every grid winner is reported.
		for i := range winners {
			if !gotSet[i] {
				t.Fatalf("trial %d: grid winner %d missing from exact set", trial, i)
			}
		}
		// Soundness is allowed a tolerance: a reported point must at least be
		// within epsilon of winning somewhere on the grid. Verify by a direct
		// LP-free check: max over grid of (utility of p - best other).
		for _, i := range got {
			bestMargin := -1.0
			for s := 0; s <= 5000; s++ {
				u1 := float64(s) / 5000
				u := geom.Vector{u1, 1 - u1}
				my := u.Dot(pts[i])
				other := -1.0
				for j, p := range pts {
					if j != i {
						if v := u.Dot(p); v > other {
							other = v
						}
					}
				}
				if m := my - other; m > bestMargin {
					bestMargin = m
				}
			}
			if bestMargin < -1e-4 {
				t.Fatalf("trial %d: reported convex point %d never close to winning (margin %v)", trial, i, bestMargin)
			}
		}
	}
}

func sortedEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	sort.Ints(a)
	sort.Ints(b)
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSamplingDeterministicSeed(t *testing.T) {
	pts := dataset.AntiCorrelated(rand.New(rand.NewSource(3)), 200, 4).Points
	a := ConvexPointsSampling(pts, 300, rand.New(rand.NewSource(5)))
	b := ConvexPointsSampling(pts, 300, rand.New(rand.NewSource(5)))
	if !sortedEqual(a, b) {
		t.Fatal("same seed must give the same sampled convex points")
	}
}

func TestConvexPoints2DMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		n := 5 + rng.Intn(80)
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.Vector{rng.Float64(), rng.Float64()}
		}
		fast := ConvexPoints2D(pts)
		exact := exactScan(t, pts)
		if !sortedEqual(fast, exact) {
			t.Fatalf("trial %d: fast %v != exact %v", trial, fast, exact)
		}
	}
}

func TestConvexPoints2DDuplicates(t *testing.T) {
	pts := []geom.Vector{{1, 0}, {1, 0}, {0, 1}, {0.2, 0.2}}
	got := ConvexPoints2D(pts)
	want := exactScan(t, pts)
	if !sortedEqual(got, want) {
		t.Fatalf("fast %v != exact %v on duplicates", got, want)
	}
}

func TestConvexPoints2DPanicsOn3D(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 3-d input")
		}
	}()
	ConvexPoints2D([]geom.Vector{{1, 2, 3}})
}

func BenchmarkConvexPoints2DVsExact(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pts := dataset.AntiCorrelated(rng, 2000, 2).Points
	b.Run("envelope", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ConvexPoints2D(pts)
		}
	})
	b.Run("lp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			exactScan(b, pts)
		}
	})
}
