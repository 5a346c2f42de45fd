package analysis

import (
	"go/ast"
	"go/types"

	"tableseg/internal/analysis/cfg"
	"tableseg/internal/analysis/dataflow"
)

// RNGFlow returns the analyzer enforcing RNG provenance. The WSAT
// restarts and EM initialization behind Tables 1–4 are reproducible
// only because a single seeded *rand.Rand is threaded from Options
// down through every randomized call; a generator materializing from
// anywhere else — the shared top-level source, a package-level
// variable, an unseeded declaration — silently breaks byte-identical
// output. rngflow forbids the shared top-level source anywhere under
// internal/, and in the solver packages it answers the provenance
// question: for every *rand.Rand reaching a call site it walks the
// use-def chains built by internal/analysis/dataflow back to the
// value's origin and accepts only seeded constructors, parameters,
// fields and other call results.
func RNGFlow() *Analyzer {
	a := &Analyzer{
		Name: "rngflow",
		Doc:  "require every *rand.Rand at a call site to derive, via def-use chains, from a seeded or threaded source",
	}
	a.Run = func(pass *Pass) {
		if isInternal(pass.Pkg.Path) {
			for _, f := range pass.Pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					if sel, ok := n.(*ast.SelectorExpr); ok {
						checkTopLevelRand(pass, sel)
					}
					return true
				})
			}
		}
		if !matchesAny(pass.Pkg.Path, pass.Cfg.RNGPkgs) {
			return
		}
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkRNGProvenance(pass, fd.Body)
			}
		}
	}
	return a
}

// randAllowed lists the math/rand package-level functions that are
// deterministic to reference: constructors for an explicitly seeded
// generator.
var randAllowed = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// checkTopLevelRand flags top-level math/rand functions (minus the
// seeded-constructor allowlist) anywhere under internal/: there is no
// package where the shared global source is acceptable.
func checkTopLevelRand(pass *Pass, sel *ast.SelectorExpr) {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	switch pass.pkgNameOf(id) {
	case "math/rand", "math/rand/v2":
		if randAllowed[sel.Sel.Name] {
			return
		}
		if _, isFunc := pass.Pkg.Info.Uses[sel.Sel].(*types.Func); isFunc {
			pass.Reportf(sel.Pos(), "top-level math/rand.%s bypasses the seeded generator threaded through Options; derive from the threaded *rand.Rand", sel.Sel.Name)
		}
	}
}

// checkRNGProvenance traces every *rand.Rand identifier used at a call
// site in body back through its reaching definitions.
func checkRNGProvenance(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	g := cfg.New(body)
	chains := dataflow.NewChains(body, g, info)

	seen := map[*ast.Ident]bool{}
	report := func(id *ast.Ident) {
		if seen[id] {
			return
		}
		seen[id] = true
		if reason := traceRNG(pass, chains, id, map[*dataflow.Def]bool{}); reason != "" {
			pass.Reportf(id.Pos(), "*rand.Rand %q %s", id.Name, reason)
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // separate unit: its own graph if ever needed
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// rng.Intn(...): the receiver carries the provenance.
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && isRandRand(info, id) {
				report(id)
			}
		}
		// f(..., rng, ...): the argument does.
		for _, arg := range call.Args {
			if id, ok := arg.(*ast.Ident); ok && isRandRand(info, id) {
				report(id)
			}
		}
		return true
	})
}

// traceRNG follows id's reaching definitions to their origins and
// returns a non-empty reason when any origin is unacceptable. visited
// breaks cycles through loops (rng = rng reassignments).
func traceRNG(pass *Pass, chains *dataflow.Chains, id *ast.Ident, visited map[*dataflow.Def]bool) string {
	defs := chains.DefsOf(id)
	if len(defs) == 0 {
		// Not a chained use (e.g. a variable captured by the enclosing
		// function and written only there): stay quiet rather than
		// guess.
		return ""
	}
	for _, d := range defs {
		if visited[d] {
			continue
		}
		visited[d] = true
		switch d.Kind {
		case dataflow.DefEntry:
			// Parameters, receivers and captures are threaded sources;
			// a package-level generator is shared mutable state.
			if d.Obj.Parent() == pass.Pkg.Types.Scope() {
				return "originates from a package-level generator (shared mutable state); thread the seeded *rand.Rand through parameters"
			}
		case dataflow.DefDecl:
			if d.RHS == nil {
				return "is declared without a source and may be used unseeded (nil); initialize it from rand.New(rand.NewSource(seed))"
			}
			if reason := traceRNGExpr(pass, chains, d.RHS, visited); reason != "" {
				return reason
			}
		case dataflow.DefAssign, dataflow.DefRange:
			if reason := traceRNGExpr(pass, chains, d.RHS, visited); reason != "" {
				return reason
			}
		}
	}
	return ""
}

// traceRNGExpr classifies the defining expression of a *rand.Rand:
// identifiers recurse through the chains; package-level identifiers
// are rejected; calls, selectors, indexes and the rest are accepted as
// threaded or constructed sources.
func traceRNGExpr(pass *Pass, chains *dataflow.Chains, e ast.Expr, visited map[*dataflow.Def]bool) string {
	switch e := e.(type) {
	case *ast.Ident:
		if obj := pass.Pkg.Info.ObjectOf(e); obj != nil && obj.Parent() == pass.Pkg.Types.Scope() {
			return "originates from a package-level generator (shared mutable state); thread the seeded *rand.Rand through parameters"
		}
		return traceRNG(pass, chains, e, visited)
	case *ast.ParenExpr:
		return traceRNGExpr(pass, chains, e.X, visited)
	}
	return ""
}

// isRandRand reports whether id is a variable of type *rand.Rand
// (math/rand or math/rand/v2).
func isRandRand(info *types.Info, id *ast.Ident) bool {
	obj, ok := info.Uses[id].(*types.Var)
	if !ok {
		return false
	}
	ptr, ok := obj.Type().(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	tn := named.Obj()
	if tn.Name() != "Rand" || tn.Pkg() == nil {
		return false
	}
	switch tn.Pkg().Path() {
	case "math/rand", "math/rand/v2":
		return true
	}
	return false
}
