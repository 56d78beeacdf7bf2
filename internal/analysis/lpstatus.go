package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LPStatusAnalyzer flags code that reads lp.Result.X, lp.Result.Value or
// lp.Result.Dual in a function that never inspects the same Result's Status.
// An infeasible, unbounded or iteration-limited solve leaves X, Value and
// Dual meaningless (zero-valued), so acting on them without the
// Status == lp.Optimal check turns a numeric edge case into a silently wrong
// geometric decision.
//
// The check is flow-insensitive per function: a Result-typed variable whose
// .X/.Value/.Dual is read must have a .Status read somewhere in the same
// function. Results that escape the function whole (returned, passed as an
// argument, re-assigned) are assumed to be checked by the consumer. Chained
// access like lp.Solve(p).X can never be status-checked and is always
// flagged.
var LPStatusAnalyzer = &Analyzer{
	Name: "lpstatus",
	Doc:  "flags lp.Result.X/.Value/.Dual reads on paths where Result.Status was never checked",
	Run:  runLPStatus,
}

func runLPStatus(pass *Pass) error {
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				// FuncDecl inspection reaches nested literals; analyzing them
				// separately would double-report.
				return true
			default:
				return true
			}
			if body != nil {
				checkLPStatusFunc(pass, body)
			}
			return true
		})
	}
	return nil
}

type lpVarState struct {
	usePos        token.Pos // first .X/.Value/.Dual read
	useName       string
	statusChecked bool
	escaped       bool
}

func checkLPStatusFunc(pass *Pass, body *ast.BlockStmt) {
	vars := map[*types.Var]*lpVarState{}
	state := func(v *types.Var) *lpVarState {
		if s, ok := vars[v]; ok {
			return s
		}
		s := &lpVarState{}
		vars[v] = s
		return s
	}
	// Idents consumed as the base of a tracked selector; any other use of a
	// tracked variable counts as an escape.
	selectorBases := map[*ast.Ident]bool{}

	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !isLPResult(pass.TypeOf(sel.X)) {
			return true
		}
		switch base := sel.X.(type) {
		case *ast.Ident:
			v, ok := pass.Info.ObjectOf(base).(*types.Var)
			if !ok {
				return true
			}
			selectorBases[base] = true
			s := state(v)
			switch sel.Sel.Name {
			case "Status":
				s.statusChecked = true
			case "X", "Value", "Dual":
				if s.usePos == token.NoPos {
					s.usePos, s.useName = sel.Sel.Pos(), sel.Sel.Name
				}
			}
		case *ast.CallExpr:
			// Chained lp.Solve(p).X — no variable to check Status on.
			if n := sel.Sel.Name; n == "X" || n == "Value" || n == "Dual" {
				pass.Reportf(sel.Sel.Pos(), "lp.Result.%s read directly off the Solve call; bind the Result and check .Status == lp.Optimal first", sel.Sel.Name)
			}
		}
		return true
	})

	// Escapes: any use of a tracked variable outside its own selectors.
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || selectorBases[id] {
			return true
		}
		if v, ok := pass.Info.Uses[id].(*types.Var); ok {
			if s, tracked := vars[v]; tracked {
				s.escaped = true
			}
		}
		return true
	})

	for _, s := range vars {
		if s.usePos != token.NoPos && !s.statusChecked && !s.escaped {
			pass.Reportf(s.usePos, "lp.Result.%s read but Result.Status is never checked in this function; gate on .Status == lp.Optimal", s.useName)
		}
	}
}

// isLPResult reports whether t (or *t) is the named type Result from the
// internal/lp package.
func isLPResult(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Result" && obj.Pkg() != nil && strings.HasSuffix(obj.Pkg().Path(), "internal/lp")
}
