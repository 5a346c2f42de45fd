package analysis

import (
	"go/ast"
	"go/token"
	"go/types"

	"tableseg/internal/analysis/callgraph"
	"tableseg/internal/analysis/cfg"
)

// GoroLeak returns the analyzer enforcing provable goroutine exits:
// every `go func(){...}` launched inside an exported function must
// have an exit path the control-flow graph can certify, because a
// leaked goroutine pins its captures (caches, channels, solver state)
// for the process lifetime and — worse for this reproduction — keeps
// racing the next batch's fan-in. A goroutine is accepted when one of
// the following holds:
//
//  1. it ranges over (or receives from) a channel that is provably
//     closed — a close(ch) that lies on every CFG path of the body it
//     appears in (defer close(ch) qualifies), whether that body is
//     the launching function's or a sibling goroutine's;
//  2. it receives from ctx.Done() (directly or in a select case), so
//     cancellation bounds its lifetime;
//  3. it performs no potentially-blocking operation at all and its
//     body's CFG reaches the function exit (straight-line work);
//  4. it is a joiner: its only blocking operations are
//     sync.WaitGroup.Wait calls, so it exits when the goroutines it
//     joins exit (each of which is checked on its own).
//
// The check is intra-procedural: only goroutines launched as function
// literals are analyzed (a named function launched with `go` would
// need cross-function analysis and is left to the race detector).
func GoroLeak() *Analyzer {
	a := &Analyzer{
		Name: "goroleak",
		Doc:  "require a provable exit path for every goroutine launched in an exported function",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil || !ast.IsExported(fn.Name.Name) {
					continue
				}
				checkGoroutines(pass, fn)
			}
		}
	}
	return a
}

func checkGoroutines(pass *Pass, fn *ast.FuncDecl) {
	exempt := callgraph.NonBlockingComms(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		lit, ok := g.Call.Fun.(*ast.FuncLit)
		if !ok {
			return true
		}
		if why := goroutineExitProof(pass, fn, g, lit, exempt); why != "" {
			pass.Reportf(g.Pos(), "goroutine launched in exported %s has no provable exit path (%s); range over a channel closed on all paths, or select on ctx.Done()", fn.Name.Name, why)
		}
		return true
	})
}

// goroutineExitProof returns "" when the goroutine body has a provable
// exit, or a short reason it does not.
func goroutineExitProof(pass *Pass, fn *ast.FuncDecl, g *ast.GoStmt, lit *ast.FuncLit, exempt map[ast.Node]bool) string {
	// Rule 2: a ctx.Done() receive bounds the goroutine's lifetime.
	if receivesCtxDone(pass, lit.Body) {
		return ""
	}
	// Rule 1: range over / receive from a provably-closed channel.
	closedProof := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if closedProof {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return n == lit // descend into the goroutine's own body only
		case *ast.RangeStmt:
			if obj := channelObject(pass, n.X); obj != nil && channelClosedOnAllPaths(pass, fn, g, obj) {
				closedProof = true
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				if obj := channelObject(pass, n.X); obj != nil && channelClosedOnAllPaths(pass, fn, g, obj) {
					closedProof = true
				}
			}
		}
		return true
	})
	if closedProof {
		return ""
	}
	ops := callgraph.CollectBlocking(pass.Pkg.Info, lit.Body, exempt)
	// Rule 3: nothing can block and the body terminates.
	if len(ops) == 0 {
		body := cfg.New(lit.Body)
		if body.Reaches(body.Entry) {
			return ""
		}
		return "body loops forever without blocking or exiting"
	}
	// Rule 4: a joiner only waits for goroutines that are themselves
	// checked.
	joiner := true
	for _, op := range ops {
		if op.What != "sync.WaitGroup.Wait" {
			joiner = false
			break
		}
	}
	if joiner {
		return ""
	}
	return "first blocking operation is a " + ops[0].What
}

// receivesCtxDone reports whether body (excluding nested function
// literals) receives from the Done channel of a context.Context.
func receivesCtxDone(pass *Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			call, ok := n.X.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || sel.Sel.Name != "Done" {
				return true
			}
			if t := pass.Pkg.Info.TypeOf(sel.X); t != nil && isContextType(t) {
				found = true
			}
		}
		return true
	})
	return found
}

// channelObject resolves e to the object of a channel-typed
// identifier, or nil.
func channelObject(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	obj := pass.Pkg.Info.ObjectOf(id)
	if obj == nil {
		return nil
	}
	if _, isChan := obj.Type().Underlying().(*types.Chan); !isChan {
		return nil
	}
	return obj
}

// channelClosedOnAllPaths reports whether some close(ch) site provably
// runs: it lies on every CFG path of the body it appears in. A site in
// the launching function's own body must cover every path from the go
// statement to the function exit; a site inside another function
// literal (a sibling goroutine, whose own termination goroleak checks
// separately) must cover every path of that literal's body from its
// entry. defer close(ch) registered on all paths qualifies either way,
// since the registration statement is a CFG node.
func channelClosedOnAllPaths(pass *Pass, fn *ast.FuncDecl, g *ast.GoStmt, ch types.Object) bool {
	isClose := func(n ast.Node) bool {
		var call *ast.CallExpr
		switch n := n.(type) {
		case *ast.ExprStmt:
			call, _ = n.X.(*ast.CallExpr)
		case *ast.DeferStmt:
			call = n.Call
		case *ast.CallExpr:
			call = n
		}
		if call == nil || len(call.Args) != 1 {
			return false
		}
		fun, ok := call.Fun.(*ast.Ident)
		if !ok || fun.Name != "close" {
			return false
		}
		if b, ok := pass.Pkg.Info.ObjectOf(fun).(*types.Builtin); !ok || b.Name() != "close" {
			return false
		}
		id, ok := call.Args[0].(*ast.Ident)
		return ok && pass.Pkg.Info.ObjectOf(id) == ch
	}

	// Contexts holding at least one close site: the outer body and/or
	// specific function literals.
	type closeSite struct {
		lit *ast.FuncLit // nil: in fn's own body
	}
	var sites []closeSite
	var litStack []*ast.FuncLit
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			litStack = append(litStack, n)
			ast.Inspect(n.Body, walk)
			litStack = litStack[:len(litStack)-1]
			return false
		case *ast.CallExpr:
			if isClose(n) {
				var lit *ast.FuncLit
				if len(litStack) > 0 {
					lit = litStack[len(litStack)-1]
				}
				sites = append(sites, closeSite{lit: lit})
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)

	// The go statement's own context: the innermost literal containing
	// it, or the outer body.
	goLit := innermostFuncLit(fn.Body, g.Pos())

	tried := map[*ast.FuncLit]bool{}
	for _, s := range sites {
		if tried[s.lit] {
			continue // one graph query per context covers all its sites
		}
		tried[s.lit] = true
		var graph *cfg.Graph
		from, idx := (*cfg.Block)(nil), -1
		if s.lit == nil {
			graph = cfg.New(fn.Body)
			if goLit == nil {
				// Close site shares the launching body: it must cover
				// every path from the launch onward.
				from, idx = graph.Find(g)
			} else {
				from, idx = graph.Entry, -1
			}
		} else {
			graph = cfg.New(s.lit.Body)
			from, idx = graph.Entry, -1
		}
		if from == nil {
			continue
		}
		if graph.AllPathsContain(from, idx, isClose) {
			return true
		}
	}
	return false
}

// innermostFuncLit returns the innermost function literal in root
// whose extent contains pos, or nil.
func innermostFuncLit(root ast.Node, pos token.Pos) *ast.FuncLit {
	var found *ast.FuncLit
	ast.Inspect(root, func(n ast.Node) bool {
		lit, ok := n.(*ast.FuncLit)
		if !ok {
			return true
		}
		if lit.Pos() <= pos && pos < lit.End() {
			found = lit // keep descending: innermost wins
			return true
		}
		return false
	})
	return found
}
