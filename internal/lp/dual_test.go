package lp_test

import (
	"math"
	"math/rand"
	"testing"

	"ist/internal/lp"
)

// dualTol is the tolerance the dual checks below allow: a few pivots of
// float64 noise on (0,1]-scale data.
const dualTol = 1e-9

// checkDual asserts that res.Dual is an optimal solution of p's dual: one
// multiplier per row with the maximization sign convention (LE >= 0,
// GE <= 0, EQ free), dual feasibility column by column (Σ_i y_i·a_ij >= c_j
// for a nonnegative x_j, == c_j for a free one), and strong duality
// (Σ_i RHS_i·y_i equals the optimum).
func checkDual(t *testing.T, p lp.Problem, res lp.Result) {
	t.Helper()
	if res.Status != lp.Optimal {
		t.Fatalf("status %v, want optimal", res.Status)
	}
	if len(res.Dual) != len(p.Constraints) {
		t.Fatalf("%d multipliers for %d rows", len(res.Dual), len(p.Constraints))
	}
	by := 0.0
	for i, c := range p.Constraints {
		y := res.Dual[i]
		switch {
		case c.Rel == lp.LE && y < -dualTol:
			t.Fatalf("row %d (LE, RHS %v): multiplier %v < 0", i, c.RHS, y)
		case c.Rel == lp.GE && y > dualTol:
			t.Fatalf("row %d (GE, RHS %v): multiplier %v > 0", i, c.RHS, y)
		}
		by += c.RHS * y
	}
	if math.Abs(by-res.Value) > dualTol*(1+math.Abs(res.Value)) {
		t.Fatalf("b·y = %v, optimum %v", by, res.Value)
	}
	for j := 0; j < p.NumVars; j++ {
		col := 0.0
		for i, c := range p.Constraints {
			col += res.Dual[i] * c.Coef[j]
		}
		free := p.Free != nil && p.Free[j]
		if free && math.Abs(col-p.Objective[j]) > dualTol {
			t.Fatalf("free column %d: yᵀa = %v, c = %v", j, col, p.Objective[j])
		}
		if !free && col < p.Objective[j]-dualTol {
			t.Fatalf("column %d: yᵀa = %v < c = %v", j, col, p.Objective[j])
		}
	}
}

// TestDualSignsOnNegatedRows pins the multiplier of each row kind, including
// rows the solver negates because their RHS is negative.
func TestDualSignsOnNegatedRows(t *testing.T) {
	cases := []struct {
		name string
		p    lp.Problem
		want []float64
	}{
		{
			// max x s.t. x <= 2: y = 1.
			name: "LE",
			p: lp.Problem{NumVars: 1, Objective: []float64{1},
				Constraints: []lp.Constraint{{Coef: []float64{1}, Rel: lp.LE, RHS: 2}}},
			want: []float64{1},
		},
		{
			// max x s.t. -x >= -2 (negated to x <= 2): y = -1.
			name: "GE negated",
			p: lp.Problem{NumVars: 1, Objective: []float64{1},
				Constraints: []lp.Constraint{{Coef: []float64{-1}, Rel: lp.GE, RHS: -2}}},
			want: []float64{-1},
		},
		{
			// max -x s.t. x >= 1: y = -1.
			name: "GE",
			p: lp.Problem{NumVars: 1, Objective: []float64{-1},
				Constraints: []lp.Constraint{{Coef: []float64{1}, Rel: lp.GE, RHS: 1}}},
			want: []float64{-1},
		},
		{
			// max -x s.t. -x <= -1 (negated to x >= 1): y = 1.
			name: "LE negated",
			p: lp.Problem{NumVars: 1, Objective: []float64{-1},
				Constraints: []lp.Constraint{{Coef: []float64{-1}, Rel: lp.LE, RHS: -1}}},
			want: []float64{1},
		},
		{
			// max x s.t. -x = -3 (negated to x = 3): y = -1.
			name: "EQ negated",
			p: lp.Problem{NumVars: 1, Objective: []float64{1},
				Constraints: []lp.Constraint{{Coef: []float64{-1}, Rel: lp.EQ, RHS: -3}}},
			want: []float64{-1},
		},
		{
			// max x + 2y s.t. x + y = 1, y <= 0.25, x >= 0.5: the
			// optimum 1.25 at (0.75, 0.25) leaves x >= 0.5 slack.
			name: "mixed",
			p: lp.Problem{NumVars: 2, Objective: []float64{1, 2},
				Constraints: []lp.Constraint{
					{Coef: []float64{1, 1}, Rel: lp.EQ, RHS: 1},
					{Coef: []float64{0, 1}, Rel: lp.LE, RHS: 0.25},
					{Coef: []float64{1, 0}, Rel: lp.GE, RHS: 0.5},
				}},
			want: []float64{1, 1, 0},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res := lp.Solve(c.p)
			checkDual(t, c.p, res)
			for i, w := range c.want {
				if math.Abs(res.Dual[i]-w) > dualTol {
					t.Fatalf("Dual = %v, want %v", res.Dual, c.want)
				}
			}
		})
	}
}

// TestDualStrongDuality checks the multipliers of random bounded, feasible
// LPs that mix LE, GE and EQ rows of either RHS sign, nonnegative and free
// variables.
func TestDualStrongDuality(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 200; trial++ {
		nv := 1 + rng.Intn(5)
		x0 := make([]float64, nv)
		p := lp.Problem{NumVars: nv, Objective: make([]float64, nv), Free: make([]bool, nv)}
		for j := range x0 {
			p.Free[j] = rng.Intn(3) == 0
			x0[j] = rng.Float64()
			if p.Free[j] {
				x0[j] -= 0.5
			}
			p.Objective[j] = rng.Float64()*2 - 1
			// A box keeps the problem bounded: x_j <= 1 and, for a free
			// variable, -x_j <= 1.
			box := make([]float64, nv)
			box[j] = 1
			p.Constraints = append(p.Constraints, lp.Constraint{Coef: box, Rel: lp.LE, RHS: 1})
			if p.Free[j] {
				neg := make([]float64, nv)
				neg[j] = -1
				p.Constraints = append(p.Constraints, lp.Constraint{Coef: neg, Rel: lp.LE, RHS: 1})
			}
		}
		// Random rows through (or around) x0, so the problem stays feasible.
		for r := rng.Intn(6); r > 0; r-- {
			a := make([]float64, nv)
			v := 0.0
			for j := range a {
				a[j] = rng.Float64()*2 - 1
				v += a[j] * x0[j]
			}
			c := lp.Constraint{Coef: a, Rel: lp.Relation(rng.Intn(3))}
			switch c.Rel {
			case lp.LE:
				c.RHS = v + rng.Float64()*0.2
			case lp.GE:
				c.RHS = v - rng.Float64()*0.2
			case lp.EQ:
				c.RHS = v
			}
			p.Constraints = append(p.Constraints, c)
		}
		res := lp.Solve(p)
		if res.Status != lp.Optimal {
			t.Fatalf("trial %d: status %v on a bounded feasible LP", trial, res.Status)
		}
		checkDual(t, p, res)
	}
}

// TestIterationLimitIsNotOptimal: a solve cut short by the pivot limit must
// say so instead of passing its current point off as optimal.
func TestIterationLimitIsNotOptimal(t *testing.T) {
	// max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 needs two pivots.
	p := lp.Problem{
		NumVars:   2,
		Objective: []float64{3, 5},
		Constraints: []lp.Constraint{
			{Coef: []float64{1, 0}, Rel: lp.LE, RHS: 4},
			{Coef: []float64{0, 2}, Rel: lp.LE, RHS: 12},
			{Coef: []float64{3, 2}, Rel: lp.LE, RHS: 18},
		},
	}
	restore := lp.SetMaxIter(1)
	res := lp.Solve(p)
	restore()
	if res.Status != lp.IterationLimit {
		t.Fatalf("status %v, want %v", res.Status, lp.IterationLimit)
	}
	if res.Status.String() != "iteration-limit" {
		t.Fatalf("status string %q", res.Status.String())
	}
	if res.X != nil || res.Dual != nil {
		t.Fatalf("a cut-short solve reported a point: X=%v Dual=%v", res.X, res.Dual)
	}
	if res := lp.Solve(p); res.Status != lp.Optimal {
		t.Fatalf("after restore: status %v, want optimal", res.Status)
	}
}
