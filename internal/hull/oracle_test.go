package hull

import (
	"math/big"
	"math/rand"
	"reflect"
	"testing"

	"ist/internal/dataset"
	"ist/internal/geom"
	"ist/internal/skyband"
)

// The exact-arithmetic oracle. A point p is convex (top-1, ties included,
// at some utility of the simplex) exactly when the minimax LP
//
//	min t  s.t.  Σ_q λ_q·q + t·1 ≥ p,  λ ∈ Δ(P \ {p})
//
// has optimum t ≥ 0. ratConvexPoints solves that (d+1)-row LP for every
// point with a rational simplex, so its answer carries no rounding at all.

// ratSimplexMax maximizes c·x s.t. A·x = b, x ≥ 0 in exact arithmetic (two
// phases, Bland's rule, so it cannot cycle). Every b_i must be ≥ 0. ok is
// false when the system is infeasible; the problems built here are never
// unbounded.
func ratSimplexMax(A [][]*big.Rat, b, c []*big.Rat) (*big.Rat, bool) {
	m, n := len(A), len(c)
	width := n + m // structural columns, then one artificial per row
	t := make([][]*big.Rat, m)
	for i := range t {
		t[i] = make([]*big.Rat, width+1)
		for j := 0; j < width; j++ {
			t[i][j] = new(big.Rat)
		}
		for j := 0; j < n; j++ {
			t[i][j].Set(A[i][j])
		}
		t[i][n+i].SetInt64(1)
		t[i][width] = new(big.Rat).Set(b[i])
	}
	basis := make([]int, m)
	for i := range basis {
		basis[i] = n + i
	}
	pivot := func(r, col int) {
		inv := new(big.Rat).Inv(t[r][col])
		for j := range t[r] {
			t[r][j].Mul(t[r][j], inv)
		}
		for i := range t {
			if i == r || t[i][col].Sign() == 0 {
				continue
			}
			f := new(big.Rat).Set(t[i][col])
			for j := range t[i] {
				t[i][j].Sub(t[i][j], new(big.Rat).Mul(f, t[r][j]))
			}
		}
		basis[r] = col
	}
	// run maximizes cost·x over the current tableau, entering only columns
	// below limit, and returns the optimum.
	run := func(cost []*big.Rat, limit int) *big.Rat {
		for {
			col := -1
			for j := 0; j < limit && col < 0; j++ {
				r := new(big.Rat).Set(cost[j])
				for i, bj := range basis {
					r.Sub(r, new(big.Rat).Mul(cost[bj], t[i][j]))
				}
				if r.Sign() > 0 {
					col = j
				}
			}
			if col < 0 {
				v := new(big.Rat)
				for i, bj := range basis {
					v.Add(v, new(big.Rat).Mul(cost[bj], t[i][width]))
				}
				return v
			}
			row := -1
			var best *big.Rat
			for i := range t {
				if t[i][col].Sign() <= 0 {
					continue
				}
				ratio := new(big.Rat).Quo(t[i][width], t[i][col])
				if row < 0 || ratio.Cmp(best) < 0 || (ratio.Cmp(best) == 0 && basis[i] < basis[row]) {
					row, best = i, ratio
				}
			}
			if row < 0 {
				panic("ratSimplexMax: unbounded")
			}
			pivot(row, col)
		}
	}
	phase1 := make([]*big.Rat, width)
	for j := range phase1 {
		phase1[j] = new(big.Rat)
		if j >= n {
			phase1[j].SetInt64(-1)
		}
	}
	if run(phase1, width).Sign() < 0 {
		return nil, false
	}
	// Drive artificials left at level zero out of the basis; a row with no
	// structural entry is redundant and keeps its artificial at zero.
	for i, bi := range basis {
		if bi < n {
			continue
		}
		for j := 0; j < n; j++ {
			if t[i][j].Sign() != 0 {
				pivot(i, j)
				break
			}
		}
	}
	phase2 := make([]*big.Rat, width)
	for j := range phase2 {
		phase2[j] = new(big.Rat)
		if j < n {
			phase2[j].Set(c[j])
		}
	}
	return run(phase2, n), true
}

// ratMinimaxMargin is the exact optimum t of p's minimax LP against others.
func ratMinimaxMargin(points []geom.Vector, p int, others []int) *big.Rat {
	d, m := len(points[p]), len(others)
	// Columns: λ (m), t⁺, t⁻, one surplus per coordinate row.
	n := m + 2 + d
	rat := func(x float64) *big.Rat { return new(big.Rat).SetFloat64(x) }
	A := make([][]*big.Rat, d+1)
	b := make([]*big.Rat, d+1)
	for i := 0; i <= d; i++ {
		A[i] = make([]*big.Rat, n)
		for j := range A[i] {
			A[i][j] = new(big.Rat)
		}
	}
	for i := 0; i < d; i++ {
		for j, q := range others {
			A[i][j] = rat(points[q][i])
		}
		A[i][m].SetInt64(1)
		A[i][m+1].SetInt64(-1)
		A[i][m+2+i].SetInt64(-1)
		b[i] = rat(points[p][i])
		if b[i].Sign() < 0 {
			for j := range A[i] {
				A[i][j].Neg(A[i][j])
			}
			b[i].Neg(b[i])
		}
	}
	for j := 0; j < m; j++ {
		A[d][j].SetInt64(1)
	}
	b[d] = big.NewRat(1, 1)
	c := make([]*big.Rat, n)
	for j := range c {
		c[j] = new(big.Rat)
	}
	c[m].SetInt64(-1) // maximize −t = −t⁺ + t⁻
	c[m+1].SetInt64(1)
	v, ok := ratSimplexMax(A, b, c)
	if !ok {
		panic("ratMinimaxMargin: infeasible")
	}
	return v.Neg(v)
}

// ratConvexPoints is the exact convex-point set, ascending.
func ratConvexPoints(points []geom.Vector) []int {
	var out []int
	for p := range points {
		others := make([]int, 0, len(points)-1)
		for q := range points {
			if q != p {
				others = append(others, q)
			}
		}
		if len(others) == 0 || ratMinimaxMargin(points, p, others).Sign() >= 0 {
			out = append(out, p)
		}
	}
	return out
}

// gridPoints draws n points in d dimensions on the grid {0, 1/8, ..., 1},
// clamped from a wider range so that 0 and 1 are common, and copies some
// earlier points verbatim: ties and duplicates of every kind.
func gridPoints(rng *rand.Rand, n, d int) []geom.Vector {
	pts := make([]geom.Vector, n)
	for i := range pts {
		if i > 0 && rng.Intn(4) == 0 {
			pts[i] = append(geom.Vector(nil), pts[rng.Intn(i)]...)
			continue
		}
		p := geom.NewVector(d)
		for j := range p {
			p[j] = gridCoord(rng.Intn(13))
		}
		pts[i] = p
	}
	return pts
}

// gridCoord maps 0..12 onto (k−2)/8 clamped to [0, 1].
func gridCoord(k int) float64 {
	return min(max(float64(k-2)/8, 0), 1)
}

// checkAgainstOracle compares the serial and speculative scans with the
// exact oracle on one input.
func checkAgainstOracle(t *testing.T, pts []geom.Vector) {
	t.Helper()
	want := ratConvexPoints(pts)
	for _, workers := range []int{1, 2} {
		got, err := ConvexPointsExact(pts, nil, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v on %v", workers, err, pts)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: scan %v, exact oracle %v on %v", workers, got, want, pts)
		}
	}
}

// TestRationalOracleSmall pins the oracle itself on hand-checked inputs.
func TestRationalOracleSmall(t *testing.T) {
	cases := []struct {
		pts  []geom.Vector
		want []int
	}{
		{[]geom.Vector{{0, 1}, {0.3, 0.7}, {0.5, 0.8}, {0.7, 0.4}, {1, 0}}, []int{0, 2, 4}},
		{[]geom.Vector{{1, 0}, {1, 0}, {0, 1}, {0.4, 0.4}}, []int{0, 1, 2}},
		// (0.5, 0.5) ties the two corners' mean at u = (½, ½): convex.
		{[]geom.Vector{{1, 0}, {0, 1}, {0.5, 0.5}}, []int{0, 1, 2}},
		{[]geom.Vector{{1, 0}, {0, 1}, {0.5, 0.5 - 1.0/64}}, []int{0, 1}},
		{[]geom.Vector{{0.5, 0.5, 0.5}}, []int{0}},
	}
	for _, c := range cases {
		if got := ratConvexPoints(c.pts); !reflect.DeepEqual(got, c.want) {
			t.Fatalf("oracle %v on %v, want %v", got, c.pts, c.want)
		}
	}
}

// TestConvexPointsExactMatchesRationalOracle is the differential test: on
// small random inputs with clamped and duplicated coordinates the float scan
// must report exactly the rational oracle's set, serial and speculative.
func TestConvexPointsExactMatchesRationalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		d := 1 + rng.Intn(4)
		n := 1 + rng.Intn(12)
		checkAgainstOracle(t, gridPoints(rng, n, d))
	}
}

// FuzzConvexPointsExact compares the scan with the rational oracle on up to
// 12 grid points in up to 4 dimensions. The first byte picks d, the rest are
// coordinates (gridCoord of byte mod 13), so ties, clamped values and
// duplicates are common.
func FuzzConvexPointsExact(f *testing.F) {
	f.Add([]byte{1, 10, 2, 2, 10, 6, 6})
	f.Add([]byte{2, 10, 2, 6, 6, 6, 2, 10, 10, 10, 6, 6, 6})
	f.Add([]byte{3, 10, 10, 2, 2, 2, 10, 10, 10, 10, 2, 2, 2, 10, 10, 10, 10, 6, 6, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		d := 1 + int(data[0])%4
		coords := data[1:]
		n := min(len(coords)/d, 12)
		if n == 0 {
			return
		}
		pts := make([]geom.Vector, n)
		for i := range pts {
			pts[i] = geom.NewVector(d)
			for j := range pts[i] {
				pts[i][j] = gridCoord(int(coords[i*d+j]) % 13)
			}
		}
		checkAgainstOracle(t, pts)
	})
}

// TestAntiBandReportsEveryTiedTop1 is the regression for ties at a simplex
// corner: on this anti-correlated band 23 points share x₁ = 1, so all of
// them tie for top-1 at u = e₁ and all are convex. A scan that trusted the
// primal LP's witness dropped band indices 576, 593 and 604.
func TestAntiBandReportsEveryTiedTop1(t *testing.T) {
	ds, err := dataset.ByName("anti", rand.New(rand.NewSource(7)), 2000, 4)
	if err != nil {
		t.Fatal(err)
	}
	band := skyband.Filter(ds.Points, skyband.KSkyband(ds.Points, 10))
	if len(band) != 686 {
		t.Fatalf("band has %d points, want 686", len(band))
	}
	var tied []int
	for i, p := range band {
		//lint:ignore floatcmp the generator clamps to exactly 1
		if p[0] == 1 {
			tied = append(tied, i)
		}
	}
	if len(tied) != 23 {
		t.Fatalf("%d band points with x₁ = 1, want 23", len(tied))
	}
	for _, workers := range []int{1, 2} {
		V, err := ConvexPointsExact(band, nil, nil, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		in := map[int]bool{}
		for _, v := range V {
			in[v] = true
		}
		for _, i := range tied {
			if !in[i] {
				t.Errorf("workers=%d: band point %d ties for top-1 at e₁ but is not reported", workers, i)
			}
		}
	}
}
