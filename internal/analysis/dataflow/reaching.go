package dataflow

import (
	"go/ast"
	"go/token"
	"go/types"

	"tableseg/internal/analysis/cfg"
)

// DefKind classifies how a definition binds its variable.
type DefKind int

const (
	// DefAssign is x = e, x := e or x op= e.
	DefAssign DefKind = iota
	// DefDecl is a var declaration; RHS is nil when there is no
	// initializer (the variable holds its zero value).
	DefDecl
	// DefRange is a range key/value binding; the defining CFG node is
	// the ranged operand, re-executed in the loop head each iteration.
	DefRange
	// DefIncDec is x++ / x--.
	DefIncDec
	// DefEntry is a pseudo-definition at function entry for every
	// variable declared outside the analyzed body: parameters,
	// receivers, named results, captured variables and package-level
	// variables. Its RHS and Node are nil.
	DefEntry
)

// Def is one static definition site of a variable.
type Def struct {
	// Kind classifies the definition.
	Kind DefKind
	// Obj is the defined variable.
	Obj types.Object
	// Node is the CFG node performing the definition (nil for
	// DefEntry).
	Node ast.Node
	// RHS is the defining expression: the assignment's right-hand
	// side, the declaration initializer, or the ranged operand for
	// DefRange. Nil when the definition carries no expression
	// (DefEntry, DefIncDec, uninitialized DefDecl).
	RHS ast.Expr
}

// Chains holds the reaching-definition fixpoint of one function body
// and the use-def/def-use chains derived from it.
type Chains struct {
	Graph *cfg.Graph
	// Defs lists every definition, in deterministic (block, node)
	// order with the DefEntry pseudo-definitions first.
	Defs []*Def

	info      *types.Info
	useDefs   map[*ast.Ident][]*Def
	defUses   map[*Def][]*ast.Ident
	byObj     map[types.Object][]int // def indices per object
	nodeDefs  map[ast.Node][]*Def
	rangeBind map[ast.Node][]*Def // keyed by the ranged operand node
}

// NewChains builds reaching definitions and chains for body, whose
// graph is g. Identifier uses inside nested function literals are not
// chained (the literal body is a separate unit with its own graph).
func NewChains(body *ast.BlockStmt, g *cfg.Graph, info *types.Info) *Chains {
	c := &Chains{
		Graph:     g,
		info:      info,
		useDefs:   map[*ast.Ident][]*Def{},
		defUses:   map[*Def][]*ast.Ident{},
		byObj:     map[types.Object][]int{},
		nodeDefs:  map[ast.Node][]*Def{},
		rangeBind: map[ast.Node][]*Def{},
	}
	c.collectRangeBindings(body)
	c.collectEntryDefs(body)
	for _, b := range g.Blocks {
		for _, n := range b.Nodes {
			for _, d := range c.defsInNode(n) {
				c.addDef(d)
				c.nodeDefs[n] = append(c.nodeDefs[n], d)
			}
		}
	}
	c.solve()
	return c
}

// DefsOf returns the definitions that may reach the given identifier
// use, in Defs order. Nil when id is not a chained use (not a variable,
// a write target, or inside a nested function literal).
func (c *Chains) DefsOf(id *ast.Ident) []*Def { return c.useDefs[id] }

// UsesOf returns the identifier uses a definition may reach, in source
// order.
func (c *Chains) UsesOf(d *Def) []*ast.Ident { return c.defUses[d] }

// addDef registers d in the definition index.
func (c *Chains) addDef(d *Def) {
	c.byObj[d.Obj] = append(c.byObj[d.Obj], len(c.Defs))
	c.Defs = append(c.Defs, d)
}

// collectRangeBindings maps each RangeStmt's ranged operand (the CFG
// node re-evaluated in the loop head) to the key/value definitions it
// performs. Nested function literals are not descended into.
func (c *Chains) collectRangeBindings(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			for _, e := range []ast.Expr{n.Key, n.Value} {
				id, ok := e.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := c.info.ObjectOf(id)
				if obj == nil {
					continue
				}
				c.rangeBind[n.X] = append(c.rangeBind[n.X], &Def{
					Kind: DefRange, Obj: obj, Node: n.X, RHS: n.X,
				})
			}
		}
		return true
	})
}

// collectEntryDefs synthesizes a DefEntry for every variable used in
// body but declared outside it: parameters, receivers, named results,
// captured variables and package-level variables.
func (c *Chains) collectEntryDefs(body *ast.BlockStmt) {
	seen := map[types.Object]bool{}
	var order []types.Object
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := c.info.Uses[id].(*types.Var)
		if !ok || seen[obj] {
			return true
		}
		if obj.Pos() >= body.Pos() && obj.Pos() < body.End() {
			return true // declared inside: a real def covers it
		}
		seen[obj] = true
		order = append(order, obj)
		return true
	})
	for _, obj := range order {
		c.addDef(&Def{Kind: DefEntry, Obj: obj})
	}
}

// defsInNode extracts the definitions a single CFG node performs.
func (c *Chains) defsInNode(n ast.Node) []*Def {
	if binds, ok := c.rangeBind[n]; ok {
		return binds
	}
	var out []*Def
	add := func(kind DefKind, id *ast.Ident, rhs ast.Expr) {
		if id == nil || id.Name == "_" {
			return
		}
		obj := c.info.ObjectOf(id)
		if obj == nil {
			return
		}
		out = append(out, &Def{Kind: kind, Obj: obj, Node: n, RHS: rhs})
	}
	switch n := n.(type) {
	case *ast.AssignStmt:
		for i, lhs := range n.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			var rhs ast.Expr
			if len(n.Rhs) == len(n.Lhs) {
				rhs = n.Rhs[i]
			} else if len(n.Rhs) == 1 {
				rhs = n.Rhs[0] // tuple assignment from one call/comma-ok
			}
			add(DefAssign, id, rhs)
		}
	case *ast.IncDecStmt:
		if id, ok := n.X.(*ast.Ident); ok {
			add(DefIncDec, id, nil)
		}
	case *ast.DeclStmt:
		gen, ok := n.Decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.VAR {
			return out
		}
		for _, spec := range gen.Specs {
			vs, ok := spec.(*ast.ValueSpec)
			if !ok {
				continue
			}
			for i, name := range vs.Names {
				var rhs ast.Expr
				if i < len(vs.Values) {
					rhs = vs.Values[i]
				} else if len(vs.Values) == 1 {
					rhs = vs.Values[0]
				}
				add(DefDecl, name, rhs)
			}
		}
	}
	return out
}

// solve runs the reaching-definitions fixpoint and materializes the
// chains. Facts are def-index bitsets.
func (c *Chains) solve() {
	nd := len(c.Defs)
	res := Solve(c.Graph, Problem[bitset]{
		Boundary: func() bitset {
			// Every DefEntry reaches function entry.
			f := newBitset(nd)
			for i, d := range c.Defs {
				if d.Kind == DefEntry {
					f.set(i)
				}
			}
			return f
		},
		Init:  func() bitset { return newBitset(nd) },
		Merge: func(dst, src bitset) bitset { dst.or(src); return dst },
		Equal: func(a, b bitset) bool { return a.equal(b) },
		Transfer: func(b *cfg.Block, in bitset) bitset {
			f := in.clone()
			for _, n := range b.Nodes {
				c.applyNode(f, n)
			}
			return f
		},
	})

	for _, b := range c.Graph.Blocks {
		f := res.In[b.Index].clone()
		for _, n := range b.Nodes {
			for _, id := range c.usesInNode(n) {
				obj := c.info.ObjectOf(id)
				for _, di := range c.byObj[obj] {
					if f.has(di) {
						d := c.Defs[di]
						c.useDefs[id] = append(c.useDefs[id], d)
						c.defUses[d] = append(c.defUses[d], id)
					}
				}
			}
			c.applyNode(f, n)
		}
	}
	for d, uses := range c.defUses {
		sortIdents(uses)
		c.defUses[d] = uses
	}
}

// applyNode updates fact f with node n's definitions: each kills all
// other definitions of the same object, except range bindings, which
// re-execute in a loop head and therefore merge rather than overwrite
// (a definition from inside the loop body survives the back edge).
func (c *Chains) applyNode(f bitset, n ast.Node) {
	for _, d := range c.nodeDefs[n] {
		di := c.defIndex(d)
		if d.Kind != DefRange {
			for _, other := range c.byObj[d.Obj] {
				f.clear(other)
			}
		}
		f.set(di)
	}
}

func (c *Chains) defIndex(d *Def) int {
	for _, i := range c.byObj[d.Obj] {
		if c.Defs[i] == d {
			return i
		}
	}
	return -1
}

// usesInNode lists the identifier reads inside one CFG node, in source
// order: every variable identifier except pure write targets (LHS of
// plain assignment or declaration; op-assign targets are reads too)
// and anything inside a nested function literal.
func (c *Chains) usesInNode(n ast.Node) []*ast.Ident {
	writes := map[*ast.Ident]bool{}
	switch n := n.(type) {
	case *ast.AssignStmt:
		if n.Tok == token.ASSIGN || n.Tok == token.DEFINE {
			for _, lhs := range n.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					writes[id] = true
				}
			}
		}
	case *ast.DeclStmt:
		if gen, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gen.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, name := range vs.Names {
						writes[name] = true
					}
				}
			}
		}
	}
	var out []*ast.Ident
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.Ident:
			if writes[m] {
				return true
			}
			if _, ok := c.info.Uses[m].(*types.Var); ok {
				out = append(out, m)
			}
		}
		return true
	})
	return out
}

func sortIdents(ids []*ast.Ident) {
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j].Pos() < ids[j-1].Pos(); j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
}

// bitset is a fixed-capacity bit vector used as the reaching-defs fact.
type bitset []uint64

func newBitset(n int) bitset { return make(bitset, (n+63)/64) }

func (b bitset) set(i int)   { b[i/64] |= 1 << (i % 64) }
func (b bitset) clear(i int) { b[i/64] &^= 1 << (i % 64) }
func (b bitset) has(i int) bool {
	if i < 0 {
		return false
	}
	return b[i/64]&(1<<(i%64)) != 0
}
func (b bitset) or(o bitset) {
	for i := range b {
		b[i] |= o[i]
	}
}
func (b bitset) equal(o bitset) bool {
	for i := range b {
		if b[i] != o[i] {
			return false
		}
	}
	return true
}
func (b bitset) clone() bitset {
	o := make(bitset, len(b))
	copy(o, b)
	return o
}
