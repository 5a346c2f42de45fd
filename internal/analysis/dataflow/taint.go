package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"tableseg/internal/analysis/cfg"
)

// Mask is a provenance bitmask: each configured source contributes one
// bit, so a sink report can name exactly which sources reach it.
type Mask uint64

// TaintConfig parameterizes one taint analysis over a function body.
// The zero value of every optional hook means "off".
type TaintConfig struct {
	// Info is the package's type information (required).
	Info *types.Info

	// Entry seeds objects (parameters, receivers, captures) with taint
	// at function entry.
	Entry map[types.Object]Mask

	// ExprSource returns the intrinsic taint of an expression — e.g. a
	// selector like st.colMass naming a probability table — independent
	// of dataflow. Optional.
	ExprSource func(e ast.Expr) Mask

	// ResultTaint returns the taint of a call's results by summary —
	// e.g. emitType(...) yields a probability. Optional. Beyond it,
	// calls are a clean boundary: argument taint does not reach a
	// call's results (builtins and conversions aside).
	ResultTaint func(call *ast.CallExpr) Mask

	// SanitizerCall reports whether a call is a sanitizer: its result
	// is clean, and the objects passed as plain identifier arguments
	// are killed after the node (branch-insensitively: the CFG has no
	// labeled true/false edges, so `if zeroProb(p) { continue }` clears
	// p on both paths — conservative toward fewer false positives).
	// Optional.
	SanitizerCall func(call *ast.CallExpr) bool

	// PropagateBinary, when set, taints arithmetic results with the
	// union of the operand masks. Comparisons never carry taint.
	PropagateBinary bool

	// GuardComparisons, when set, treats an ordered comparison of a
	// plain identifier against a constant (p <= 0, total > eps) as a
	// sanitizer for that identifier, same branch-insensitive caveat as
	// SanitizerCall.
	GuardComparisons bool

	// TypeOK restricts taint to values of matching type; expressions
	// whose type fails the predicate never carry taint. Nil means all
	// types qualify.
	TypeOK func(t types.Type) bool

	// ElemCopyRefs, when set, makes the builtin copy(dst, src) taint
	// dst only when the element type itself carries references
	// (CarriesRefs); a copy of scalar elements is a true deep copy.
	ElemCopyRefs bool

	// ZeroDecl taints a variable declared without a value (var x T),
	// subject to TypeOK: a nil *rand.Rand may be used unseeded.
	// Optional.
	ZeroDecl Mask
}

// Taint is the per-function taint fixpoint. Facts map tainted objects
// to the provenance mask of the sources that may reach them.
type Taint struct {
	Graph *cfg.Graph

	cfg TaintConfig
	res Result[taintFact]
	// rangeOf maps a RangeStmt's operand — the node cfg.New places in
	// the loop head — to its statement, so key/value binding is part of
	// the fixpoint transfer.
	rangeOf map[ast.Node]*ast.RangeStmt
}

type taintFact map[types.Object]Mask

// NewTaint solves the taint problem for body under config tc.
func NewTaint(body *ast.BlockStmt, g *cfg.Graph, tc TaintConfig) *Taint {
	t := &Taint{Graph: g, cfg: tc, rangeOf: map[ast.Node]*ast.RangeStmt{}}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			t.rangeOf[n.X] = n
		}
		return true
	})
	t.res = Solve(g, Problem[taintFact]{
		Boundary: func() taintFact {
			f := taintFact{}
			for obj, m := range tc.Entry {
				f[obj] = m
			}
			return f
		},
		Init: func() taintFact { return taintFact{} },
		Merge: func(dst, src taintFact) taintFact {
			for obj, m := range src {
				dst[obj] |= m
			}
			return dst
		},
		Equal: func(a, b taintFact) bool {
			if len(a) != len(b) {
				return false
			}
			for obj, m := range a {
				if b[obj] != m {
					return false
				}
			}
			return true
		},
		Transfer: func(b *cfg.Block, in taintFact) taintFact {
			f := taintFact{}
			for obj, m := range in {
				f[obj] = m
			}
			for _, n := range b.Nodes {
				t.applyNode(f, n)
			}
			return f
		},
	})
	return t
}

// Walk replays every block's nodes in order, invoking fn with the fact
// holding *before* each node. Blocks are visited in index order, so the
// callback sequence is deterministic.
func (t *Taint) Walk(fn func(b *cfg.Block, n ast.Node, fact map[types.Object]Mask)) {
	for _, b := range t.Graph.Blocks {
		f := taintFact{}
		for obj, m := range t.res.In[b.Index] {
			f[obj] = m
		}
		for _, n := range b.Nodes {
			fn(b, n, f)
			t.applyNode(f, n)
		}
	}
}

// Mask evaluates the taint of expression e under fact.
func (t *Taint) Mask(fact map[types.Object]Mask, e ast.Expr) Mask {
	return t.exprMask(taintFact(fact), e)
}

// typeOK applies the TypeOK filter to e's type.
func (t *Taint) typeOK(e ast.Expr) bool {
	if t.cfg.TypeOK == nil {
		return true
	}
	tv, ok := t.cfg.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return t.cfg.TypeOK(tv.Type)
}

// exprMask computes the provenance mask of one expression under fact.
func (t *Taint) exprMask(fact taintFact, e ast.Expr) Mask {
	if e == nil {
		return 0
	}
	var src Mask
	if t.cfg.ExprSource != nil && t.typeOK(e) {
		src = t.cfg.ExprSource(e)
	}
	switch e := e.(type) {
	case *ast.Ident:
		if obj := t.cfg.Info.ObjectOf(e); obj != nil && t.typeOK(e) {
			return src | fact[obj]
		}
		return src
	case *ast.SelectorExpr:
		// A field read carries the base's taint (struct containment)
		// plus any intrinsic source mask of the selector itself.
		if !t.typeOK(e) {
			return src
		}
		return src | t.exprMask(fact, e.X)
	case *ast.IndexExpr:
		if !t.typeOK(e) {
			return src
		}
		return src | t.exprMask(fact, e.X)
	case *ast.CallExpr:
		if t.cfg.SanitizerCall != nil && t.cfg.SanitizerCall(e) {
			return 0
		}
		var m Mask
		if t.cfg.ResultTaint != nil {
			m = t.cfg.ResultTaint(e)
		}
		if conv, operand := t.conversionOperand(e); conv {
			return src | m | t.exprMask(fact, operand)
		}
		if id, ok := e.Fun.(*ast.Ident); ok {
			switch id.Name {
			case "append":
				if _, isBuiltin := t.cfg.Info.ObjectOf(id).(*types.Builtin); isBuiltin && len(e.Args) > 0 {
					m |= t.exprMask(fact, e.Args[0])
					for _, a := range e.Args[1:] {
						if !t.cfg.ElemCopyRefs || t.elemCarriesRefs(e.Args[0]) {
							m |= t.exprMask(fact, a)
						}
					}
					return src | m
				}
			case "min", "max":
				if _, isBuiltin := t.cfg.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
					for _, a := range e.Args {
						m |= t.exprMask(fact, a)
					}
					return src | m
				}
			}
		}
		return src | m
	case *ast.BinaryExpr:
		if isComparison(e.Op) {
			return 0
		}
		if !t.cfg.PropagateBinary {
			return src
		}
		return src | t.exprMask(fact, e.X) | t.exprMask(fact, e.Y)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			return src | t.exprMask(fact, e.X)
		}
		return src | t.exprMask(fact, e.X)
	case *ast.ParenExpr:
		return src | t.exprMask(fact, e.X)
	case *ast.StarExpr:
		return src | t.exprMask(fact, e.X)
	case *ast.SliceExpr:
		return src | t.exprMask(fact, e.X)
	case *ast.TypeAssertExpr:
		return src | t.exprMask(fact, e.X)
	case *ast.CompositeLit:
		var m Mask
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				m |= t.exprMask(fact, kv.Value)
			} else {
				m |= t.exprMask(fact, el)
			}
		}
		return src | m
	}
	return src
}

// conversionOperand reports whether call is a type conversion and, if
// so, returns its single operand.
func (t *Taint) conversionOperand(call *ast.CallExpr) (bool, ast.Expr) {
	if len(call.Args) != 1 {
		return false, nil
	}
	tv, ok := t.cfg.Info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false, nil
	}
	return true, call.Args[0]
}

// elemCarriesRefs reports whether the element type of e (a slice or
// array expression) itself carries references.
func (t *Taint) elemCarriesRefs(e ast.Expr) bool {
	tv, ok := t.cfg.Info.Types[e]
	if !ok || tv.Type == nil {
		return true // unknown: stay conservative
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Slice:
		return CarriesRefs(u.Elem())
	case *types.Array:
		return CarriesRefs(u.Elem())
	}
	return true
}

// applyNode advances fact f over one CFG node.
func (t *Taint) applyNode(f taintFact, n ast.Node) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		t.applyAssign(f, n)
	case *ast.DeclStmt:
		if gen, ok := n.Decl.(*ast.GenDecl); ok && gen.Tok == token.VAR {
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					obj := t.cfg.Info.ObjectOf(name)
					if obj == nil {
						continue
					}
					m := t.cfg.ZeroDecl
					if i < len(vs.Values) {
						m = t.exprMask(f, vs.Values[i])
					} else if len(vs.Values) == 1 {
						m = t.exprMask(f, vs.Values[0])
					}
					t.setObj(f, obj, name, m)
				}
			}
		}
	}
	// Sanitizing effects — sanitizer calls and guard comparisons — may
	// sit anywhere inside the node (an if condition, a call statement,
	// an assignment RHS), so inspect it fully.
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if e, ok := m.(ast.Expr); ok {
			t.applyExprEffects(f, e)
		}
		return true
	})
	// A range operand in a loop head binds its key/value variables on
	// every iteration.
	if rng, ok := t.rangeOf[n]; ok {
		m := t.exprMask(f, rng.X)
		for _, e := range []ast.Expr{rng.Key, rng.Value} {
			id, ok := e.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			if obj := t.cfg.Info.ObjectOf(id); obj != nil {
				t.setObj(f, obj, id, m)
			}
		}
	}
}

// applyAssign transfers taint through one assignment statement.
func (t *Taint) applyAssign(f taintFact, n *ast.AssignStmt) {
	if n.Tok != token.ASSIGN && n.Tok != token.DEFINE {
		// Op-assign: x op= e reads and writes x.
		if id, ok := n.Lhs[0].(*ast.Ident); ok {
			if obj := t.cfg.Info.ObjectOf(id); obj != nil {
				m := f[obj]
				if t.cfg.PropagateBinary {
					m |= t.exprMask(f, n.Rhs[0])
				}
				t.setObj(f, obj, id, m)
			}
		}
		return
	}
	if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
		// Tuple assignment from one call / comma-ok: all targets get
		// the RHS mask.
		m := t.exprMask(f, n.Rhs[0])
		for _, lhs := range n.Lhs {
			t.assignTo(f, lhs, m)
		}
		return
	}
	masks := make([]Mask, len(n.Rhs))
	for i, rhs := range n.Rhs {
		masks[i] = t.exprMask(f, rhs)
	}
	for i, lhs := range n.Lhs {
		t.assignTo(f, lhs, masks[i])
	}
}

// assignTo writes mask m into the storage lhs denotes: a strong update
// for a plain identifier, a weak (|=) update on the root object for
// index/selector/star targets — writing one element may leave others
// tainted, so taint only accumulates.
func (t *Taint) assignTo(f taintFact, lhs ast.Expr, m Mask) {
	switch lhs := lhs.(type) {
	case *ast.Ident:
		if lhs.Name == "_" {
			return
		}
		if obj := t.cfg.Info.ObjectOf(lhs); obj != nil {
			t.setObj(f, obj, lhs, m)
		}
	case *ast.IndexExpr, *ast.SelectorExpr, *ast.StarExpr:
		if root := rootIdent(lhs); root != nil {
			if obj := t.cfg.Info.ObjectOf(root); obj != nil {
				if m != 0 {
					f[obj] |= m
				}
			}
		}
	case *ast.ParenExpr:
		t.assignTo(f, lhs.X, m)
	}
}

// setObj strongly updates obj's taint, honoring the type filter via the
// identifier's type.
func (t *Taint) setObj(f taintFact, obj types.Object, at ast.Expr, m Mask) {
	if m != 0 && t.cfg.TypeOK != nil && !t.cfg.TypeOK(obj.Type()) {
		m = 0
	}
	if m == 0 {
		delete(f, obj)
		return
	}
	f[obj] = m
}

// applyCallEffects handles statement-level calls with side effects on
// taint: sanitizer calls kill their identifier arguments, and the
// builtin copy(dst, src) transfers (or not, per ElemCopyRefs) taint
// into dst.
func (t *Taint) applyCallEffects(f taintFact, call *ast.CallExpr) {
	if t.cfg.SanitizerCall != nil && t.cfg.SanitizerCall(call) {
		for _, a := range call.Args {
			if id, ok := a.(*ast.Ident); ok {
				if obj := t.cfg.Info.ObjectOf(id); obj != nil {
					delete(f, obj)
				}
			}
		}
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "copy" && len(call.Args) == 2 {
		if _, isBuiltin := t.cfg.Info.ObjectOf(id).(*types.Builtin); isBuiltin {
			transfer := true
			if t.cfg.ElemCopyRefs && !t.elemCarriesRefs(call.Args[0]) {
				transfer = false
			}
			if transfer {
				m := t.exprMask(f, call.Args[1])
				t.assignTo(f, call.Args[0], m)
			}
		}
	}
}

// applyExprEffects applies sanitizing effects of one expression node:
// sanitizer calls and (optionally) guard comparisons.
func (t *Taint) applyExprEffects(f taintFact, e ast.Expr) {
	switch e := e.(type) {
	case *ast.CallExpr:
		t.applyCallEffects(f, e)
	case *ast.BinaryExpr:
		if !t.cfg.GuardComparisons || !isOrdered(e.Op) {
			return
		}
		// ident <op> constant or constant <op> ident.
		for _, pair := range [][2]ast.Expr{{e.X, e.Y}, {e.Y, e.X}} {
			id, ok := pair[0].(*ast.Ident)
			if !ok {
				continue
			}
			if tv, ok := t.cfg.Info.Types[pair[1]]; !ok || tv.Value == nil {
				continue
			}
			if obj := t.cfg.Info.ObjectOf(id); obj != nil {
				delete(f, obj)
			}
		}
	}
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

func isOrdered(op token.Token) bool {
	switch op {
	case token.LSS, token.LEQ, token.GTR, token.GEQ:
		return true
	}
	return false
}

// rootIdent returns the base identifier of a chain of index, selector,
// star, paren and slice expressions, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// CarriesRefs reports whether values of type t can share mutable
// backing storage: pointers, slices, maps, channels, interfaces and
// functions do; structs and arrays do if any element does; basic
// scalars and strings do not.
func CarriesRefs(t types.Type) bool {
	return carriesRefs(t, map[types.Type]bool{})
}

func carriesRefs(t types.Type, visiting map[types.Type]bool) bool {
	if visiting[t] {
		return false // recursive type: cycle must pass through a pointer, counted there
	}
	visiting[t] = true
	defer delete(visiting, t)
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface, *types.Signature:
		return true
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesRefs(u.Field(i).Type(), visiting) {
				return true
			}
		}
		return false
	case *types.Array:
		return carriesRefs(u.Elem(), visiting)
	default:
		return false
	}
}
