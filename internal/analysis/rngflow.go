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
// question with the taint lattice of internal/analysis/dataflow,
// limited to *rand.Rand values: a package-level generator carries one
// bit from function entry until an assignment in the body overwrites
// it, a *rand.Rand declared without a value carries a second, and a
// receiver or argument at a call site may carry neither. Seeded
// constructors, parameters, fields and other call results carry none.
func RNGFlow() *Analyzer {
	a := &Analyzer{
		Name: "rngflow",
		Doc:  "require every *rand.Rand at a call site to derive from a seeded or threaded source, not a package-level generator or a declaration without a value",
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
		shared := packageGenerators(pass)
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkRNGProvenance(pass, fd.Body, shared)
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

// RNG provenance bits: a package-level generator, and a *rand.Rand
// declared without a value.
const (
	rngShared dataflow.Mask = 1 << iota
	rngUnset
)

// packageGenerators seeds every package-level *rand.Rand with the
// rngShared bit at function entry.
func packageGenerators(pass *Pass) map[types.Object]dataflow.Mask {
	scope := pass.Pkg.Types.Scope()
	shared := map[types.Object]dataflow.Mask{}
	for _, name := range scope.Names() {
		if v, ok := scope.Lookup(name).(*types.Var); ok && isRandRand(v.Type()) {
			shared[v] = rngShared
		}
	}
	return shared
}

// checkRNGProvenance runs the taint fixpoint over body and reports
// every *rand.Rand receiver or argument that a package-level generator
// or an unset declaration may reach. When both may, the declaration is
// reported.
func checkRNGProvenance(pass *Pass, body *ast.BlockStmt, shared map[types.Object]dataflow.Mask) {
	tt := dataflow.NewTaint(body, cfg.New(body), dataflow.TaintConfig{
		Info:     pass.Pkg.Info,
		Entry:    shared,
		ZeroDecl: rngUnset,
		TypeOK:   isRandRand,
	})
	check := func(fact map[types.Object]dataflow.Mask, e ast.Expr) {
		id, ok := e.(*ast.Ident)
		if !ok {
			return
		}
		switch m := tt.Mask(fact, id); {
		case m&rngUnset != 0:
			pass.Reportf(id.Pos(), "*rand.Rand %q is declared without a source and may be used unseeded (nil); initialize it from rand.New(rand.NewSource(seed))", id.Name)
		case m&rngShared != 0:
			pass.Reportf(id.Pos(), "*rand.Rand %q originates from a package-level generator (shared mutable state); thread the seeded *rand.Rand through parameters", id.Name)
		}
	}
	tt.Walk(func(_ *cfg.Block, n ast.Node, fact map[types.Object]dataflow.Mask) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return false // separate unit: its own graph if ever needed
			case *ast.CallExpr:
				// rng.Intn(...): the receiver carries the provenance;
				// f(..., rng, ...): the argument does.
				if sel, ok := m.Fun.(*ast.SelectorExpr); ok {
					check(fact, sel.X)
				}
				for _, arg := range m.Args {
					check(fact, arg)
				}
			}
			return true
		})
	})
}

// isRandRand reports whether t is *rand.Rand (math/rand or
// math/rand/v2).
func isRandRand(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
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
