// Package callgraph builds a static call graph over go/types for the
// module under analysis and computes per-function summary facts
// bottom-up over its strongly connected components. It is the
// interprocedural layer beneath tableseglint: the intra-procedural
// analyzers see one function body at a time, while the summaries here
// answer "does this callee, transitively, block?", "does it thread
// its context into everything that blocks?", and "does it write an
// HTTP response on every path?" — the facts the ctxflow and httpresp
// analyzers, and lockdiscipline's held-across check, consume.
//
// The graph resolves:
//
//   - direct calls to package-level functions and methods, across all
//     packages handed to Build;
//   - interface method calls, devirtualized when exactly one named
//     type in the module implements the interface (provably the only
//     concrete receiver the module can supply);
//   - method values and function values bound once to a local
//     variable and later called (f := x.M; f());
//   - function literals, each of which is its own node, including
//     literals launched by go and defer statements (the edge records
//     the launch kind, so summaries can exclude goroutine bodies from
//     the caller's may-block classification while still charging
//     deferred calls to it).
//
// Calls it cannot resolve (interface calls with several
// implementations, func values passed in from elsewhere) keep their
// static callee object when one exists, so signature-level checks
// still apply, and otherwise contribute nothing — the same
// under-approximation the intra-procedural analyzers already make.
package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// Source is one type-checked package to include in the graph.
type Source struct {
	Path  string
	Files []*ast.File
	Info  *types.Info
	Types *types.Package
}

// EdgeKind classifies how a call site transfers control.
type EdgeKind uint8

const (
	// EdgeCall is a plain call: the callee runs before the caller's
	// next statement.
	EdgeCall EdgeKind = iota
	// EdgeDefer is a deferred call: it runs on the caller's exit, in
	// the caller's goroutine (so its blocking charges to the caller).
	EdgeDefer
	// EdgeGo is a goroutine launch: the callee runs elsewhere and its
	// blocking does not charge to the caller.
	EdgeGo
	// EdgeRef is a function or method value referenced outside call
	// position (passed as an argument, stored in a field): a potential
	// call the graph records but charges to nobody.
	EdgeRef
)

func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeDefer:
		return "defer"
	case EdgeGo:
		return "go"
	case EdgeRef:
		return "ref"
	}
	return "?"
}

// Edge is one call site (or function-value reference) in a node.
type Edge struct {
	Kind EdgeKind
	// Site is the *ast.CallExpr for calls, or the referencing
	// expression for EdgeRef.
	Site ast.Node
	// Callee is the resolved module-local target, nil when the callee
	// is external or unresolvable.
	Callee *Node
	// CalleeFn is the static callee object when one exists — set even
	// for interface methods and external functions, so signature
	// checks (does it take a context?) work on unresolved calls too.
	CalleeFn *types.Func
	// Devirt marks an interface call resolved to the single
	// implementing type in the module.
	Devirt bool
}

// Node is one function in the graph: a declared function or method
// (Fn set) or a function literal (Lit set).
type Node struct {
	Fn   *types.Func
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
	Info *types.Info
	Path string // import path of the declaring package
	Out  []Edge

	// Summary is filled by Summarize.
	Summary Summary

	sites         map[*ast.CallExpr]*Edge
	respondEvents map[*ast.CallExpr]RespondEvent
}

// Name returns a short display name for diagnostics:
// "pkg.Func", "pkg.(*T).Method" or "pkg.func-literal".
func (n *Node) Name() string {
	if n.Fn != nil {
		return FuncDisplayName(n.Fn)
	}
	return "function literal"
}

// FuncDisplayName renders fn as "pkg.Func" or "pkg.(*T).Method".
func FuncDisplayName(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			name = "(" + star + named.Obj().Name() + ")." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// Graph is the module call graph.
type Graph struct {
	// Nodes lists every function node in deterministic (source) order.
	Nodes []*Node

	byFunc map[*types.Func]*Node
	byLit  map[*ast.FuncLit]*Node

	// concrete named types of the module, for devirtualization.
	namedTypes []*types.Named

	summarized bool
}

// NodeOf returns the node of a declared function or method, nil when
// fn was not declared (with a body) in any Build source.
func (g *Graph) NodeOf(fn *types.Func) *Node { return g.byFunc[fn] }

// LitNode returns the node of a function literal, nil when the
// literal lies outside every Build source.
func (g *Graph) LitNode(lit *ast.FuncLit) *Node { return g.byLit[lit] }

// Build constructs the call graph over srcs. Edges are resolved
// across all sources, so handing Build every loaded package of the
// module yields whole-module resolution.
func Build(srcs []Source) *Graph {
	g := &Graph{
		byFunc: map[*types.Func]*Node{},
		byLit:  map[*ast.FuncLit]*Node{},
	}
	// Pass 1: create nodes for every declared function and every
	// function literal, and collect the module's concrete named types.
	for _, src := range srcs {
		g.collectTypes(src)
		for _, f := range src.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					fn, _ := src.Info.Defs[n.Name].(*types.Func)
					if fn == nil || n.Body == nil {
						return true // keep descending: the body may hold literals
					}
					node := &Node{Fn: fn, Body: n.Body, Info: src.Info, Path: src.Path}
					g.Nodes = append(g.Nodes, node)
					g.byFunc[fn] = node
				case *ast.FuncLit:
					node := &Node{Lit: n, Body: n.Body, Info: src.Info, Path: src.Path}
					g.Nodes = append(g.Nodes, node)
					g.byLit[n] = node
				}
				return true
			})
		}
	}
	// Pass 2: resolve the edges of every node.
	for _, n := range g.Nodes {
		g.buildEdges(n)
	}
	return g
}

// collectTypes records the concrete (non-interface) named types
// declared at package scope, the candidate set for devirtualization.
func (g *Graph) collectTypes(src Source) {
	if src.Types == nil {
		return
	}
	scope := src.Types.Scope()
	names := scope.Names() // already sorted
	for _, name := range names {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			continue
		}
		g.namedTypes = append(g.namedTypes, named)
	}
}

// buildEdges scans n's body shallowly (nested literals are their own
// nodes) and resolves every call site and function-value reference.
func (g *Graph) buildEdges(n *Node) {
	if n.Body == nil {
		return
	}
	n.sites = map[*ast.CallExpr]*Edge{}

	bindings := g.localBindings(n)

	// funPos marks expressions appearing in call position, so the
	// reference walk below can skip them.
	funPos := map[ast.Expr]bool{}

	addCall := func(kind EdgeKind, call *ast.CallExpr) {
		fun := ast.Unparen(call.Fun)
		funPos[fun] = true
		e := Edge{Kind: kind, Site: call}
		g.resolveCallee(n, fun, bindings, &e)
		n.Out = append(n.Out, e)
		n.sites[call] = &n.Out[len(n.Out)-1]
	}

	var visit func(m ast.Node) bool
	visit = func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false // its body is its own node
		case *ast.GoStmt:
			addCall(EdgeGo, m.Call)
			for _, a := range m.Call.Args {
				ast.Inspect(a, visit)
			}
			return false
		case *ast.DeferStmt:
			addCall(EdgeDefer, m.Call)
			for _, a := range m.Call.Args {
				ast.Inspect(a, visit)
			}
			return false
		case *ast.CallExpr:
			if g.isConversion(n, m) {
				return true
			}
			addCall(EdgeCall, m)
			// Descend into Fun (for chained calls like f()() and
			// method-value receivers) and the arguments.
			ast.Inspect(m.Fun, visit)
			for _, a := range m.Args {
				ast.Inspect(a, visit)
			}
			return false
		}
		return true
	}
	ast.Inspect(n.Body, visit)

	// Reference walk: function and method values used outside call
	// position (arguments, assignments, composite literals).
	ast.Inspect(n.Body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != ast.Node(n.Lit) {
			return false
		}
		e, ok := m.(ast.Expr)
		if !ok || funPos[e] {
			return true
		}
		if fn := g.staticFunc(n, e); fn != nil {
			edge := Edge{Kind: EdgeRef, Site: e, CalleeFn: fn, Callee: g.byFunc[fn]}
			n.Out = append(n.Out, edge)
			return false
		}
		return true
	})
}

// isConversion reports whether call is a type conversion rather than
// a function call.
func (g *Graph) isConversion(n *Node, call *ast.CallExpr) bool {
	if tv, ok := n.Info.Types[call.Fun]; ok {
		return tv.IsType()
	}
	return false
}

// staticFunc resolves e to the function or method it names when e is
// a bare function reference (not a call): an identifier bound to a
// *types.Func, or a method-value selector.
func (g *Graph) staticFunc(n *Node, e ast.Expr) *types.Func {
	switch e := e.(type) {
	case *ast.Ident:
		if fn, ok := n.Info.Uses[e].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := n.Info.Selections[e]; ok && sel.Kind() == types.MethodVal {
			if fn, ok := sel.Obj().(*types.Func); ok {
				return fn
			}
		}
		// Qualified reference pkg.Func.
		if id, ok := e.X.(*ast.Ident); ok {
			if _, isPkg := n.Info.Uses[id].(*types.PkgName); isPkg {
				if fn, ok := n.Info.Uses[e.Sel].(*types.Func); ok {
					return fn
				}
			}
		}
	}
	return nil
}

// bindTarget is what a single-assignment local function variable holds.
type bindTarget struct {
	fn  *types.Func  // method value or function reference
	lit *ast.FuncLit // bound literal
}

// localBindings finds local variables bound exactly once to a
// function literal, a function, or a method value — the shapes
// through which the suite's code makes indirect calls. A variable
// reassigned anywhere (or bound to anything else) is dropped.
func (g *Graph) localBindings(n *Node) map[types.Object]bindTarget {
	out := map[types.Object]bindTarget{}
	poisoned := map[types.Object]bool{}

	record := func(lhs ast.Expr, rhs ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok || id.Name == "_" {
			return
		}
		obj := n.Info.Defs[id]
		if obj == nil {
			obj = n.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, seen := out[obj]; seen || poisoned[obj] {
			// Second binding: no longer single-assignment.
			delete(out, obj)
			poisoned[obj] = true
			return
		}
		rhs = ast.Unparen(rhs)
		if lit, ok := rhs.(*ast.FuncLit); ok {
			out[obj] = bindTarget{lit: lit}
			return
		}
		if fn := g.staticFunc(n, rhs); fn != nil {
			out[obj] = bindTarget{fn: fn}
			return
		}
		poisoned[obj] = true
	}

	ast.Inspect(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return m == n.Lit
		case *ast.AssignStmt:
			if len(m.Lhs) == len(m.Rhs) {
				for i := range m.Lhs {
					record(m.Lhs[i], m.Rhs[i])
				}
			} else {
				// Multi-value RHS cannot bind a function variable we
				// track; poison the LHS identifiers.
				for _, lhs := range m.Lhs {
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := n.Info.Defs[id]; obj != nil {
							delete(out, obj)
							poisoned[obj] = true
						} else if obj := n.Info.Uses[id]; obj != nil {
							delete(out, obj)
							poisoned[obj] = true
						}
					}
				}
			}
		case *ast.ValueSpec:
			if len(m.Names) == len(m.Values) {
				for i := range m.Names {
					record(m.Names[i], m.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// resolveCallee fills e.Callee/e.CalleeFn for the call through fun.
func (g *Graph) resolveCallee(n *Node, fun ast.Expr, bindings map[types.Object]bindTarget, e *Edge) {
	switch fun := fun.(type) {
	case *ast.FuncLit:
		e.Callee = g.byLit[fun]
		return
	case *ast.Ident:
		switch obj := n.Info.Uses[fun].(type) {
		case *types.Func:
			e.CalleeFn = obj
			e.Callee = g.byFunc[obj]
		case *types.Var:
			if t, ok := bindings[obj]; ok {
				if t.lit != nil {
					e.Callee = g.byLit[t.lit]
				} else if t.fn != nil {
					e.CalleeFn = t.fn
					e.Callee = g.byFunc[t.fn]
				}
			}
		}
		return
	case *ast.SelectorExpr:
		if sel, ok := n.Info.Selections[fun]; ok && sel.Kind() == types.MethodVal {
			fn, ok := sel.Obj().(*types.Func)
			if !ok {
				return
			}
			e.CalleeFn = fn
			recv := sel.Recv()
			if _, isIface := recv.Underlying().(*types.Interface); isIface {
				if impl := g.devirtualize(recv, fn); impl != nil {
					e.CalleeFn = impl
					e.Callee = g.byFunc[impl]
					e.Devirt = true
				}
				return
			}
			e.Callee = g.byFunc[fn]
			return
		}
		// Qualified call pkg.Func(...).
		if fn, ok := n.Info.Uses[fun.Sel].(*types.Func); ok {
			e.CalleeFn = fn
			e.Callee = g.byFunc[fn]
		}
	}
}

// devirtualize resolves an interface method call to the concrete
// method when exactly one named type in the module implements the
// interface. Method-set membership uses both the value and pointer
// receivers, matching what the type checker would admit at an
// assignment to the interface.
func (g *Graph) devirtualize(recv types.Type, m *types.Func) *types.Func {
	iface, ok := recv.Underlying().(*types.Interface)
	if !ok || iface.NumMethods() == 0 {
		return nil
	}
	var impls []types.Type
	for _, named := range g.namedTypes {
		switch {
		case types.Implements(named, iface):
			impls = append(impls, named)
		case types.Implements(types.NewPointer(named), iface):
			impls = append(impls, types.NewPointer(named))
		}
		if len(impls) > 1 {
			return nil
		}
	}
	if len(impls) != 1 {
		return nil
	}
	pkg := m.Pkg()
	obj, _, _ := types.LookupFieldOrMethod(impls[0], true, pkg, m.Name())
	if fn, ok := obj.(*types.Func); ok {
		return fn
	}
	return nil
}

// edgeAt returns the edge recorded for a call site of n, nil when the
// call was not walked (e.g. it lies in a nested literal).
func (n *Node) edgeAt(call *ast.CallExpr) *Edge {
	if n.sites == nil {
		return nil
	}
	return n.sites[call]
}

// sccs partitions the graph into strongly connected components over
// Call and Defer edges (the edges whose blocking charges to the
// caller), returned in reverse topological order: every component
// appears after the components it calls into, so a bottom-up summary
// pass can process them in slice order.
func (g *Graph) sccs() [][]*Node {
	// Tarjan's algorithm, iterative over the deterministic node order.
	index := map[*Node]int{}
	low := map[*Node]int{}
	onStack := map[*Node]bool{}
	var stack []*Node
	var sccs [][]*Node
	next := 0

	var strongconnect func(v *Node)
	strongconnect = func(v *Node) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for i := range v.Out {
			e := &v.Out[i]
			if e.Callee == nil || (e.Kind != EdgeCall && e.Kind != EdgeDefer) {
				continue
			}
			w := e.Callee
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var scc []*Node
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				scc = append(scc, w)
				if w == v {
					break
				}
			}
			// Deterministic member order within the component.
			sort.Slice(scc, func(i, j int) bool { return index[scc[i]] < index[scc[j]] })
			sccs = append(sccs, scc)
		}
	}
	for _, v := range g.Nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	return sccs
}

// posOf returns a position for diagnostics anchored at a node's
// declaration.
func (n *Node) posOf() token.Pos {
	switch {
	case n.Lit != nil:
		return n.Lit.Pos()
	case n.Body != nil:
		return n.Body.Pos()
	}
	return token.NoPos
}
