// Package dataset generates the evaluation datasets of Section 6.
//
// The synthetic families (anti-correlated, correlated, independent) follow
// the classic generators of Börzsönyi et al. ("The Skyline Operator"), the
// source the paper itself cites. The four real datasets (Island, Weather,
// Car, NBA) are not distributed with the paper, so this package provides
// synthetic stand-ins that match their documented dimensionality, size and
// correlation structure; see DESIGN.md §3 for the substitution rationale.
// Every generated dimension is normalized to (0, 1] with larger-is-better
// orientation, exactly as the paper assumes (Section 3).
package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"ist/internal/geom"
)

// Dataset is a named collection of points in (0,1]^d.
type Dataset struct {
	Name   string
	Points []geom.Vector
}

// Dim returns the dimensionality (0 for an empty dataset).
func (d *Dataset) Dim() int {
	if len(d.Points) == 0 {
		return 0
	}
	return len(d.Points[0])
}

// Size returns the number of points.
func (d *Dataset) Size() int { return len(d.Points) }

// attrFloor is the tiny positive attribute value standing in for 0 so that
// every dimension stays inside the paper's open-below (0,1] domain. It is a
// domain floor shared by the generators and the normalizer (io.go), not a
// comparison tolerance, which is why it lives here and not in geom.
//
//lint:ignore epsconst (0,1] domain floor, not a comparison tolerance
const attrFloor = 1e-6

// clamp01 forces x into (0, 1]; values at or below zero become attrFloor so
// every dimension stays in the paper's (0,1] domain.
func clamp01(x float64) float64 {
	if x <= 0 {
		return attrFloor
	}
	if x > 1 {
		return 1
	}
	return x
}

// Independent returns n uniform points in (0,1]^d.
func Independent(rng *rand.Rand, n, d int) *Dataset {
	pts := make([]geom.Vector, n)
	for i := range pts {
		p := geom.NewVector(d)
		for j := range p {
			p[j] = clamp01(rng.Float64())
		}
		pts[i] = p
	}
	return &Dataset{Name: fmt.Sprintf("independent-%dd", d), Points: pts}
}

// Correlated returns n points whose coordinates are positively correlated:
// good values in one dimension imply good values in the others (small
// skylines).
func Correlated(rng *rand.Rand, n, d int) *Dataset {
	pts := make([]geom.Vector, n)
	for i := range pts {
		base := rng.NormFloat64()*0.15 + 0.5
		p := geom.NewVector(d)
		for j := range p {
			p[j] = clamp01(base + rng.NormFloat64()*0.05)
		}
		pts[i] = p
	}
	return &Dataset{Name: fmt.Sprintf("correlated-%dd", d), Points: pts}
}

// AntiCorrelated returns n points whose coordinates are negatively
// correlated: points good in one dimension are bad in the others, placing
// mass near the hyperplane Σx = const and producing large skylines. This is
// the paper's default synthetic workload.
func AntiCorrelated(rng *rand.Rand, n, d int) *Dataset {
	pts := make([]geom.Vector, n)
	for i := range pts {
		// Classic construction: pick the plane Σx = d*v around v~N(0.5,σ),
		// then redistribute mass between dimension pairs to induce negative
		// correlation, with small per-dimension jitter.
		v := rng.NormFloat64()*0.08 + 0.5
		p := geom.NewVector(d)
		for j := range p {
			p[j] = v
		}
		for pass := 0; pass < d; pass++ {
			a, b := rng.Intn(d), rng.Intn(d)
			if a == b {
				continue
			}
			shift := (rng.Float64() - 0.5) * v
			p[a] += shift
			p[b] -= shift
		}
		for j := range p {
			p[j] = clamp01(p[j] + rng.NormFloat64()*0.01)
		}
		pts[i] = p
	}
	return &Dataset{Name: fmt.Sprintf("anticorrelated-%dd", d), Points: pts}
}

// IslandLike returns an n-point stand-in for the Island dataset: 2-d
// geographic coordinates clustered around a handful of population centres
// (paper: 63,383 2-dimensional locations).
func IslandLike(rng *rand.Rand, n int) *Dataset {
	type cluster struct{ cx, cy, sx, sy float64 }
	clusters := []cluster{
		{0.2, 0.75, 0.08, 0.06},
		{0.55, 0.5, 0.12, 0.1},
		{0.8, 0.25, 0.06, 0.08},
		{0.35, 0.3, 0.1, 0.07},
		{0.7, 0.8, 0.05, 0.05},
	}
	pts := make([]geom.Vector, n)
	for i := range pts {
		c := clusters[rng.Intn(len(clusters))]
		pts[i] = geom.Vector{
			clamp01(c.cx + rng.NormFloat64()*c.sx),
			clamp01(c.cy + rng.NormFloat64()*c.sy),
		}
	}
	return &Dataset{Name: "island", Points: pts}
}

// WeatherLike returns an n-point stand-in for the Weather dataset: 4
// meteorological attributes with weak cross-correlations (paper: 178,080
// tuples, 4 attributes).
func WeatherLike(rng *rand.Rand, n int) *Dataset {
	pts := make([]geom.Vector, n)
	for i := range pts {
		// latent climate factor couples the attributes weakly
		f := rng.NormFloat64()
		temp := clamp01(0.5 + 0.18*f + rng.NormFloat64()*0.12)
		humidity := clamp01(0.55 - 0.10*f + rng.NormFloat64()*0.15)
		wind := clamp01(0.35 + rng.NormFloat64()*0.18)
		sunshine := clamp01(0.5 + 0.12*f + rng.NormFloat64()*0.2)
		pts[i] = geom.Vector{temp, humidity, wind, sunshine}
	}
	return &Dataset{Name: "weather", Points: pts}
}

// CarLike returns an n-point stand-in for the used-car dataset: price, year
// of purchase, horse power, used kilometers — all normalized so larger is
// better (cheaper price and fewer kilometers map to larger values). The real
// dataset has 68,010 cars (paper Section 6); price/power are heavy-tailed,
// and price correlates positively with power and negatively with age/usage.
func CarLike(rng *rand.Rand, n int) *Dataset {
	pts := make([]geom.Vector, n)
	for i := range pts {
		quality := rng.NormFloat64() // latent "how premium is the car"
		// raw price: lognormal, premium cars cost more
		price := math.Exp(0.45*quality + rng.NormFloat64()*0.35)
		// normalized "cheapness" in (0,1]
		cheap := clamp01(1.2 / (1 + price))
		year := clamp01(0.5 + 0.15*quality + rng.NormFloat64()*0.2)
		power := clamp01(0.35 + 0.2*quality + math.Abs(rng.NormFloat64())*0.15)
		kmUsed := math.Abs(rng.NormFloat64())*0.3 + (1-year)*0.4
		fresh := clamp01(1 - kmUsed)
		pts[i] = geom.Vector{cheap, year, power, fresh}
	}
	return &Dataset{Name: "car", Points: pts}
}

// NBALike returns an n-point stand-in for the NBA players dataset: 6
// per-player performance attributes (paper: 16,916 players, 6 attributes).
// Stats are skewed (few stars) and positively correlated through a latent
// skill factor, with role trade-offs (scorers vs rebounders vs passers).
func NBALike(rng *rand.Rand, n int) *Dataset {
	pts := make([]geom.Vector, n)
	for i := range pts {
		skill := math.Abs(rng.NormFloat64()) * 0.35 // heavy-tailed talent
		role := rng.Float64()                       // 0: big man, 1: guard
		points := clamp01(0.15 + skill*(0.6+0.4*role) + rng.NormFloat64()*0.08)
		rebounds := clamp01(0.15 + skill*(1.1-role) + rng.NormFloat64()*0.08)
		assists := clamp01(0.1 + skill*role*1.2 + rng.NormFloat64()*0.08)
		steals := clamp01(0.12 + skill*(0.3+0.5*role) + rng.NormFloat64()*0.1)
		blocks := clamp01(0.1 + skill*(1.0-role)*0.8 + rng.NormFloat64()*0.1)
		minutes := clamp01(0.2 + skill*0.9 + rng.NormFloat64()*0.12)
		pts[i] = geom.Vector{points, rebounds, assists, steals, blocks, minutes}
	}
	return &Dataset{Name: "nba", Points: pts}
}

// LowerBound returns the adversarial dataset of Theorem 3.2: n points in
// groups of k exact duplicates, with groups mutually non-dominating. Any
// algorithm needs Ω(log₂(n/k)) questions on it.
func LowerBound(rng *rand.Rand, n, d, k int) *Dataset {
	groups := (n + k - 1) / k
	pts := make([]geom.Vector, 0, n)
	for g := 0; g < groups; g++ {
		// Place group centres on a strictly convex curve so that every group
		// is the unique top-k winner for some utility vector: use the unit
		// sphere arc restricted to the positive orthant.
		p := geom.NewVector(d)
		theta := (float64(g) + 0.5) / float64(groups) * math.Pi / 2
		p[0] = math.Cos(theta)
		p[1] = math.Sin(theta)
		for j := 2; j < d; j++ {
			p[j] = 0.5
		}
		for j := range p {
			p[j] = clamp01(p[j])
		}
		for c := 0; c < k && len(pts) < n; c++ {
			pts = append(pts, p.Clone())
		}
	}
	_ = rng
	return &Dataset{Name: fmt.Sprintf("lowerbound-n%d-k%d", n, k), Points: pts}
}

// ByName builds one of the named datasets used in the experiments. It
// refuses n < 1, and d < 1 for the synthetic families, whose dimension is a
// parameter (the real-data stand-ins fix their own).
func ByName(name string, rng *rand.Rand, n, d int) (*Dataset, error) {
	if n < 1 {
		return nil, fmt.Errorf("dataset: n = %d, want at least 1 tuple", n)
	}
	switch name {
	case "anti", "anticorrelated":
		return synthetic(AntiCorrelated, rng, n, d)
	case "corr", "correlated":
		return synthetic(Correlated, rng, n, d)
	case "indep", "independent":
		return synthetic(Independent, rng, n, d)
	case "island":
		return IslandLike(rng, n), nil
	case "weather":
		return WeatherLike(rng, n), nil
	case "car":
		return CarLike(rng, n), nil
	case "nba":
		return NBALike(rng, n), nil
	default:
		return nil, fmt.Errorf("dataset: unknown dataset %q", name)
	}
}

// synthetic builds a synthetic family at dimension d, refusing d < 1.
func synthetic(gen func(*rand.Rand, int, int) *Dataset, rng *rand.Rand, n, d int) (*Dataset, error) {
	if d < 1 {
		return nil, fmt.Errorf("dataset: d = %d, want at least 1 dimension", d)
	}
	return gen(rng, n, d), nil
}
