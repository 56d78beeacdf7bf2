package analysis

import (
	"go/ast"
	"go/types"
)

// DetParAnalyzer guards the goroutines of library code (the server, the
// WAL, the experiments): a `go` statement's function literal must not mutate
// state captured from the enclosing scope without synchronization. An
// unsynchronized captured write is a data race, and in this codebase a race
// is also a determinism bug: results that land in scheduling order would
// make transcripts differ from run to run, and replay recovery needs them
// bit-identical.
//
// Flagged inside a `go` function literal (non-test, non-main packages):
//
//   - append to a captured slice (s = append(s, ...)) — the classic lost
//     update; results land in nondeterministic order even when the race
//     happens to be benign;
//   - assignment or ++/-- on a captured variable (x = v, n++);
//   - writes through a captured map (m[k] = v);
//   - field writes on a captured value (s.f = v) when no index expression
//     selects a per-task slot.
//
// Sanctioned, because they are the idioms of deterministic fan-out:
//
//   - index-ordered result slots: results[i] = ... where each goroutine
//     owns index i and a serial pass commits in order afterwards;
//   - writes that happen after a mutex Lock call earlier in the literal
//     (lock discipline itself is locksafe's job, not detpar's);
//   - variables declared inside the literal, channel sends, and
//     sync/atomic calls (none of which are assignment statements).
var DetParAnalyzer = &Analyzer{
	Name: "detpar",
	Doc:  "flags unsynchronized captured-state mutation inside go-statement function literals",
	Run:  runDetPar,
}

func runDetPar(pass *Pass) error {
	if pass.Pkg.Name() == "main" {
		return nil // CLIs own their goroutines end to end; races there are vet's domain
	}
	for _, f := range pass.Files {
		if isTestFile(pass, f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
					checkConcurrentLit(pass, lit)
				}
			}
			return true
		})
	}
	return nil
}

// checkConcurrentLit reports unsynchronized captured writes in lit's body
// (including nested literals — a closure deferred inside a goroutine still
// runs on the worker).
func checkConcurrentLit(pass *Pass, lit *ast.FuncLit) {
	// Mutex sanction: a write positioned after any ".Lock()" call inside the
	// literal is treated as guarded. Whether the lock is the RIGHT lock, held
	// at the write, and released on every path is locksafe's concern; detpar
	// only needs to separate deliberate synchronization from the bare idiom.
	firstLock := lit.End()
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Lock" {
				if call.Pos() < firstLock {
					firstLock = call.Pos()
				}
			}
		}
		return true
	})

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Pos() > firstLock {
				return true
			}
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				checkWrite(pass, lit, lhs, rhs)
			}
		case *ast.IncDecStmt:
			if n.Pos() > firstLock {
				return true
			}
			checkWrite(pass, lit, n.X, nil)
		}
		return true
	})
}

// checkWrite reports lhs when it mutates state captured from outside lit.
func checkWrite(pass *Pass, lit *ast.FuncLit, lhs, rhs ast.Expr) {
	switch l := lhs.(type) {
	case *ast.Ident:
		if !capturedVar(pass, lit, l) {
			return
		}
		if call, ok := rhs.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				pass.Reportf(lhs.Pos(), "append to captured %s inside a concurrently running function loses updates; collect into an index-ordered slot (results[i] = ...) and commit serially", l.Name)
				return
			}
		}
		pass.Reportf(lhs.Pos(), "write to captured %s inside a concurrently running function is unsynchronized; use an index-ordered result slot or guard it with a mutex", l.Name)
	case *ast.IndexExpr:
		base := pass.TypeOf(l.X)
		if base == nil {
			return
		}
		if _, isMap := base.Underlying().(*types.Map); !isMap {
			return // slice/array slot writes are the sanctioned commit idiom
		}
		root := rootIdent(l.X)
		if root == nil || !capturedVar(pass, lit, root) {
			return
		}
		pass.Reportf(lhs.Pos(), "write to captured map %s inside a concurrently running function races; collect per-worker results and merge after the barrier", root.Name)
	case *ast.SelectorExpr:
		if hasIndex(l.X) {
			return // results[i].field = ... — per-task slot
		}
		root := rootIdent(l.X)
		if root == nil || !capturedVar(pass, lit, root) {
			return
		}
		pass.Reportf(lhs.Pos(), "field write on captured %s inside a concurrently running function is unsynchronized; use an index-ordered result slot or guard it with a mutex", root.Name)
	case *ast.StarExpr:
		root := rootIdent(l.X)
		if root == nil || !capturedVar(pass, lit, root) {
			return
		}
		pass.Reportf(lhs.Pos(), "write through captured pointer %s inside a concurrently running function is unsynchronized; use an index-ordered result slot or guard it with a mutex", root.Name)
	}
}

// capturedVar reports whether id names a variable declared outside lit —
// i.e. captured by the closure rather than its own local or parameter.
func capturedVar(pass *Pass, lit *ast.FuncLit, id *ast.Ident) bool {
	if id.Name == "_" {
		return false
	}
	v, ok := pass.Info.ObjectOf(id).(*types.Var)
	if !ok || v.IsField() {
		return false
	}
	return v.Pos() < lit.Pos() || v.Pos() > lit.End()
}

// rootIdent unwraps selector/index/star/paren chains to the base identifier.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// hasIndex reports whether the expression chain contains an index selection
// (the per-task-slot idiom).
func hasIndex(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			return true
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}
