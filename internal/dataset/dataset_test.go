package dataset

import (
	"math"
	"math/rand"
	"testing"

	"ist/internal/skyband"
)

func inUnitRange(t *testing.T, d *Dataset) {
	t.Helper()
	for i, p := range d.Points {
		for j, x := range p {
			if x <= 0 || x > 1 {
				t.Fatalf("%s point %d dim %d = %v outside (0,1]", d.Name, i, j, x)
			}
		}
	}
}

func TestGeneratorsBasic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []*Dataset{
		Independent(rng, 500, 4),
		Correlated(rng, 500, 4),
		AntiCorrelated(rng, 500, 4),
		IslandLike(rng, 500),
		WeatherLike(rng, 500),
		CarLike(rng, 500),
		NBALike(rng, 500),
	} {
		if d.Size() != 500 {
			t.Fatalf("%s: size %d", d.Name, d.Size())
		}
		inUnitRange(t, d)
	}
	if IslandLike(rng, 10).Dim() != 2 {
		t.Fatal("island must be 2-d")
	}
	if NBALike(rng, 10).Dim() != 6 {
		t.Fatal("nba must be 6-d")
	}
	if WeatherLike(rng, 10).Dim() != 4 || CarLike(rng, 10).Dim() != 4 {
		t.Fatal("weather/car must be 4-d")
	}
}

func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range xs {
		cov += (xs[i] - mx) * (ys[i] - my)
		vx += (xs[i] - mx) * (xs[i] - mx)
		vy += (ys[i] - my) * (ys[i] - my)
	}
	return cov / math.Sqrt(vx*vy)
}

func dimPair(d *Dataset, i, j int) ([]float64, []float64) {
	xs := make([]float64, d.Size())
	ys := make([]float64, d.Size())
	for k, p := range d.Points {
		xs[k] = p[i]
		ys[k] = p[j]
	}
	return xs, ys
}

func TestCorrelationStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	anti := AntiCorrelated(rng, 5000, 2)
	xs, ys := dimPair(anti, 0, 1)
	if r := pearson(xs, ys); r > -0.2 {
		t.Fatalf("anti-correlated pearson = %v, want strongly negative", r)
	}
	corr := Correlated(rng, 5000, 2)
	xs, ys = dimPair(corr, 0, 1)
	if r := pearson(xs, ys); r < 0.5 {
		t.Fatalf("correlated pearson = %v, want strongly positive", r)
	}
	ind := Independent(rng, 5000, 2)
	xs, ys = dimPair(ind, 0, 1)
	if r := math.Abs(pearson(xs, ys)); r > 0.1 {
		t.Fatalf("independent pearson = %v, want near zero", r)
	}
}

func TestSkylineSizesOrdering(t *testing.T) {
	// Anti-correlated data must have a much bigger skyline than correlated.
	rng := rand.New(rand.NewSource(3))
	anti := len(skyband.Skyline(AntiCorrelated(rng, 3000, 3).Points))
	corr := len(skyband.Skyline(Correlated(rng, 3000, 3).Points))
	if anti <= corr*2 {
		t.Fatalf("skyline sizes anti=%d corr=%d: expected anti >> corr", anti, corr)
	}
}

func TestLowerBoundDatasetStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	d := LowerBound(rng, 100, 2, 5)
	if d.Size() != 100 {
		t.Fatalf("size = %d", d.Size())
	}
	// Exactly n/k distinct points, each duplicated k times.
	distinct := map[string]int{}
	for _, p := range d.Points {
		distinct[p.String()]++
	}
	if len(distinct) != 20 {
		t.Fatalf("distinct groups = %d, want 20", len(distinct))
	}
	for s, c := range distinct {
		if c != 5 {
			t.Fatalf("group %s has %d copies, want 5", s, c)
		}
	}
	// No group dominates another (they sit on a convex arc).
	for i, p := range d.Points {
		for j, q := range d.Points {
			if i != j && p.Dominates(q) {
				t.Fatalf("point %d dominates %d", i, j)
			}
		}
	}
}

func TestByName(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, name := range []string{"anti", "corr", "indep", "island", "weather", "car", "nba"} {
		d, err := ByName(name, rng, 50, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d.Size() != 50 {
			t.Fatalf("%s: size %d", name, d.Size())
		}
	}
	if _, err := ByName("nope", rng, 10, 2); err == nil {
		t.Fatal("unknown dataset must error")
	}
}

// TestByNameRefusesEmptySizes: a dataset with no tuples, or a synthetic one
// with no dimensions, is an error rather than a dataset the algorithms
// cannot run on; the stand-ins with a fixed dimension ignore d.
func TestByNameRefusesEmptySizes(t *testing.T) {
	for _, c := range []struct {
		name  string
		n, d  int
		valid bool
	}{
		{"car", 0, 3, false},
		{"island", -3, 2, false},
		{"indep", 0, 3, false},
		{"anti", 10, 0, false},
		{"corr", 10, -1, false},
		{"indep", 10, 0, false},
		{"anti", 1, 1, true},
		{"car", 1, 0, true},
		{"nba", 10, 0, true},
		{"weather", 10, -2, true},
	} {
		ds, err := ByName(c.name, rand.New(rand.NewSource(1)), c.n, c.d)
		if valid := err == nil; valid != c.valid {
			t.Errorf("ByName(%q, n=%d, d=%d): error %v, want valid=%v", c.name, c.n, c.d, err, c.valid)
			continue
		}
		if c.valid && (ds.Size() != c.n || ds.Dim() < 1) {
			t.Errorf("ByName(%q, n=%d, d=%d): %d tuples of dimension %d", c.name, c.n, c.d, ds.Size(), ds.Dim())
		}
	}
}

func TestDeterministicWithSeed(t *testing.T) {
	a := AntiCorrelated(rand.New(rand.NewSource(9)), 100, 4)
	b := AntiCorrelated(rand.New(rand.NewSource(9)), 100, 4)
	for i := range a.Points {
		if !a.Points[i].Equal(b.Points[i]) {
			t.Fatal("same seed must reproduce the same dataset")
		}
	}
}
