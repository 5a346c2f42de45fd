package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism returns the analyzer enforcing the solver packages'
// reproducibility invariants: Table 1–4 output must be byte-identical
// across runs, worker counts and machines, so the packages that feed
// those tables may not read the wall clock (inject internal/clock) and
// may not let map-iteration order leak into order-sensitive
// accumulators. The shared top-level math/rand source is rngflow's
// rule, which covers every package under internal/.
func Determinism() *Analyzer {
	a := &Analyzer{
		Name: "determinism",
		Doc:  "forbid wall-clock reads and order-sensitive map iteration in solver packages",
	}
	a.Run = func(pass *Pass) {
		if !matchesAny(pass.Pkg.Path, pass.Cfg.DeterminismPkgs) {
			return
		}
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					checkWallClock(pass, n)
				case *ast.FuncDecl:
					if n.Body != nil {
						checkMapRanges(pass, n.Body)
					}
				}
				return true
			})
		}
	}
	return a
}

// checkWallClock flags time.Now.
func checkWallClock(pass *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if ok && sel.Sel.Name == "Now" && pass.pkgNameOf(id) == "time" {
		pass.Reportf(sel.Pos(), "time.Now is nondeterministic; use internal/clock (the audited wall-clock seam) instead")
	}
}

// checkMapRanges flags range-over-map loops inside body whose bodies
// accumulate into order-sensitive state declared outside the loop —
// appending to a slice, or compound floating-point arithmetic (float
// addition is not associative, so the sum depends on iteration order)
// — unless the slice accumulator is sorted later in the same function.
func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info

	// Objects passed to a sort.* or slices.Sort* call anywhere in the
	// function, keyed to the call's position: an append accumulator is
	// fine if it is sorted after the loop finishes.
	type sortedAt struct {
		obj types.Object
		pos token.Pos
	}
	var sorts []sortedAt
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkgID, ok := sel.X.(*ast.Ident)
		if !ok {
			return true
		}
		switch pass.pkgNameOf(pkgID) {
		case "sort", "slices":
		default:
			return true
		}
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok {
				if obj := info.ObjectOf(id); obj != nil {
					sorts = append(sorts, sortedAt{obj, call.Pos()})
				}
			}
		}
		return true
	})
	sortedAfter := func(obj types.Object, pos token.Pos) bool {
		for _, s := range sorts {
			if s.obj == obj && s.pos > pos {
				return true
			}
		}
		return false
	}

	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		tv, ok := info.Types[rng.X]
		if !ok {
			return true
		}
		if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
			return true
		}
		outer := func(id *ast.Ident) types.Object {
			obj := info.ObjectOf(id)
			if obj == nil || obj.Pos() == token.NoPos {
				return nil
			}
			if obj.Pos() >= rng.Pos() && obj.Pos() < rng.End() {
				return nil // declared inside the loop; dies with it
			}
			return obj
		}
		ast.Inspect(rng.Body, func(m ast.Node) bool {
			asg, ok := m.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range asg.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := outer(id)
				if obj == nil {
					continue
				}
				switch asg.Tok {
				case token.ASSIGN, token.DEFINE:
					if i < len(asg.Rhs) && isAppendOf(info, asg.Rhs[i], obj) && !sortedAfter(obj, rng.End()) {
						pass.Reportf(asg.Pos(), "append to %q inside range over map: iteration order leaks into the slice; iterate sorted keys or sort afterwards", obj.Name())
					}
				case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN:
					if isFloat(obj.Type()) {
						pass.Reportf(asg.Pos(), "floating-point accumulation into %q inside range over map: float arithmetic is not associative, so the result depends on iteration order; iterate sorted keys", obj.Name())
					}
				}
			}
			return true
		})
		return true
	})
}

// isAppendOf reports whether e is append(obj, ...).
func isAppendOf(info *types.Info, e ast.Expr, obj types.Object) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return false
	}
	if b, ok := info.ObjectOf(fn).(*types.Builtin); !ok || b.Name() != "append" {
		return false
	}
	if len(call.Args) == 0 {
		return false
	}
	id, ok := call.Args[0].(*ast.Ident)
	return ok && info.ObjectOf(id) == obj
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
