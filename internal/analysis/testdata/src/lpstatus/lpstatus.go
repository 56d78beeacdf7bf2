// Package lpstatusdata exercises the lpstatus analyzer.
package lpstatusdata

import "ist/internal/lp"

func unchecked(p lp.Problem) []float64 {
	res := lp.Solve(p)
	return res.X // want `lp.Result.X read but Result.Status is never checked`
}

func uncheckedValue(p lp.Problem) float64 {
	res := lp.Solve(p)
	return res.Value // want `lp.Result.Value read but Result.Status is never checked`
}

func uncheckedDual(p lp.Problem) []float64 {
	res := lp.Solve(p)
	return res.Dual // want `lp.Result.Dual read but Result.Status is never checked`
}

func checkedDual(p lp.Problem) []float64 {
	res := lp.Solve(p)
	if res.Status != lp.Optimal {
		return nil
	}
	return res.Dual
}

func checked(p lp.Problem) []float64 {
	res := lp.Solve(p)
	if res.Status != lp.Optimal {
		return nil
	}
	return res.X
}

func chained(p lp.Problem) float64 {
	return lp.Solve(p).Value // want `lp.Result.Value read directly off the Solve call`
}

func chainedX(p lp.Problem) []float64 {
	return lp.Solve(p).X // want `lp.Result.X read directly off the Solve call`
}

func chainedDual(p lp.Problem) []float64 {
	return lp.Solve(p).Dual // want `lp.Result.Dual read directly off the Solve call`
}

// escapes hands the whole Result to another function, which is assumed to
// check Status on the caller's behalf.
func escapes(p lp.Problem) float64 {
	res := lp.Solve(p)
	inspect(res)
	return res.Value
}

func inspect(r lp.Result) {}

func statusOnly(p lp.Problem) bool {
	res := lp.Solve(p)
	return res.Status == lp.Optimal
}

func suppressedUse(p lp.Problem) []float64 {
	res := lp.Solve(p)
	//lint:ignore lpstatus this probe only logs X and never acts on it
	return res.X
}
