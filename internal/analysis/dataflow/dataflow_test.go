package dataflow

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"testing"

	"tableseg/internal/analysis/cfg"
)

// compile parses and type-checks one source file and returns the named
// function's declaration plus the type info needed by the clients.
func compile(t *testing.T, src, fn string) (*ast.FuncDecl, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "t.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.Default()}
	if _, err := conf.Check("t", fset, []*ast.File{file}, info); err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	for _, d := range file.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name.Name == fn {
			return fd, info
		}
	}
	t.Fatalf("function %s not found", fn)
	return nil, nil
}

// identAt finds the n-th (0-based) occurrence of name as a use inside
// body, in source order.
func identAt(t *testing.T, body *ast.BlockStmt, name string, n int) *ast.Ident {
	t.Helper()
	var found *ast.Ident
	count := 0
	ast.Inspect(body, func(m ast.Node) bool {
		if found != nil {
			return false
		}
		if id, ok := m.(*ast.Ident); ok && id.Name == name {
			if count == n {
				found = id
				return false
			}
			count++
		}
		return true
	})
	if found == nil {
		t.Fatalf("ident %s #%d not found", name, n)
	}
	return found
}

func TestChainsStraightLine(t *testing.T) {
	fd, info := compile(t, `package t
func f() int {
	x := 1
	x = 2
	return x
}`, "f")
	g := cfg.New(fd.Body)
	c := NewChains(fd.Body, g, info)

	// The x in `return x` (occurrence: x:=1 is a def, x=2 is a def,
	// return x is the first chained use).
	use := identAt(t, fd.Body, "x", 2)
	defs := c.DefsOf(use)
	if len(defs) != 1 {
		t.Fatalf("DefsOf(return x) = %d defs, want 1 (the x = 2 redefinition)", len(defs))
	}
	if defs[0].Kind != DefAssign {
		t.Errorf("reaching def kind = %v, want DefAssign", defs[0].Kind)
	}
	if lit, ok := defs[0].RHS.(*ast.BasicLit); !ok || lit.Value != "2" {
		t.Errorf("reaching def RHS = %v, want the literal 2", defs[0].RHS)
	}
	if uses := c.UsesOf(defs[0]); len(uses) != 1 || uses[0] != use {
		t.Errorf("UsesOf(x=2) = %v, want exactly the return-x use", uses)
	}
}

func TestChainsBranchMerge(t *testing.T) {
	fd, info := compile(t, `package t
func f(c bool) int {
	x := 1
	if c {
		x = 2
	}
	return x
}`, "f")
	g := cfg.New(fd.Body)
	c := NewChains(fd.Body, g, info)

	use := identAt(t, fd.Body, "x", 2)
	defs := c.DefsOf(use)
	if len(defs) != 2 {
		t.Fatalf("DefsOf(return x) = %d defs, want 2 (both branch defs reach)", len(defs))
	}
}

func TestChainsLoopSelfUse(t *testing.T) {
	fd, info := compile(t, `package t
func f(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		s = s + i
	}
	return s
}`, "f")
	g := cfg.New(fd.Body)
	c := NewChains(fd.Body, g, info)

	// The s on the RHS of `s = s + i` must see both the initial s := 0
	// and the loop's own s = s + i (back edge).
	rhsUse := identAt(t, fd.Body, "s", 2)
	defs := c.DefsOf(rhsUse)
	if len(defs) != 2 {
		t.Fatalf("DefsOf(s in s+i) = %d defs, want 2 (init + back edge)", len(defs))
	}
}

func TestChainsEntryDefsForParams(t *testing.T) {
	fd, info := compile(t, `package t
func f(n int) int {
	return n + 1
}`, "f")
	g := cfg.New(fd.Body)
	c := NewChains(fd.Body, g, info)

	use := identAt(t, fd.Body, "n", 0)
	defs := c.DefsOf(use)
	if len(defs) != 1 || defs[0].Kind != DefEntry {
		t.Fatalf("DefsOf(param n) = %v, want one DefEntry", defs)
	}
}

func TestChainsRangeBindings(t *testing.T) {
	fd, info := compile(t, `package t
func f(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v
	}
	return s
}`, "f")
	g := cfg.New(fd.Body)
	c := NewChains(fd.Body, g, info)

	use := identAt(t, fd.Body, "v", 1) // the v in s += v
	defs := c.DefsOf(use)
	if len(defs) != 1 || defs[0].Kind != DefRange {
		t.Fatalf("DefsOf(v) = %v, want one DefRange", defs)
	}
	if _, ok := defs[0].RHS.(*ast.Ident); !ok {
		t.Errorf("range def RHS = %T, want the ranged operand xs", defs[0].RHS)
	}
}

func isFloat(tt types.Type) bool {
	b, ok := tt.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

func TestTaintAssignPropagation(t *testing.T) {
	fd, info := compile(t, `package t
func src() float64 { return 0 }
func f() float64 {
	p := src()
	q := p
	r := q * 2
	return r
}`, "f")
	g := cfg.New(fd.Body)
	tt := NewTaint(fd.Body, g, TaintConfig{
		Info: info,
		ResultTaint: func(call *ast.CallExpr) Mask {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "src" {
				return 1
			}
			return 0
		},
		PropagateBinary: true,
		TypeOK:          isFloat,
	})
	var gotReturn Mask
	tt.Walk(func(_ *cfg.Block, n ast.Node, fact map[types.Object]Mask) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			gotReturn = tt.Mask(fact, ret.Results[0])
		}
	})
	if gotReturn != 1 {
		t.Fatalf("taint of returned r = %#x, want 1 (src flows through p, q, r)", gotReturn)
	}
}

func TestTaintSanitizerKillsArgument(t *testing.T) {
	fd, info := compile(t, `package t
func src() float64 { return 0 }
func clean(p float64) bool { return p <= 0 }
func f() float64 {
	p := src()
	if clean(p) {
		return 0
	}
	return p
}`, "f")
	g := cfg.New(fd.Body)
	tt := NewTaint(fd.Body, g, TaintConfig{
		Info: info,
		ResultTaint: func(call *ast.CallExpr) Mask {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "src" {
				return 1
			}
			return 0
		},
		SanitizerCall: func(call *ast.CallExpr) bool {
			id, ok := call.Fun.(*ast.Ident)
			return ok && id.Name == "clean"
		},
		TypeOK: isFloat,
	})
	var afterGuard Mask = 0xff
	tt.Walk(func(_ *cfg.Block, n ast.Node, fact map[types.Object]Mask) {
		if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
			if id, ok := ret.Results[0].(*ast.Ident); ok && id.Name == "p" {
				afterGuard = tt.Mask(fact, id)
			}
		}
	})
	if afterGuard != 0 {
		t.Fatalf("taint of p after clean(p) guard = %#x, want 0 (sanitized)", afterGuard)
	}
}

func TestTaintGuardComparison(t *testing.T) {
	fd, info := compile(t, `package t
func src() float64 { return 0 }
func f() float64 {
	p := src()
	if p <= 0 {
		return 0
	}
	return p
}`, "f")
	g := cfg.New(fd.Body)
	tt := NewTaint(fd.Body, g, TaintConfig{
		Info: info,
		ResultTaint: func(call *ast.CallExpr) Mask {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "src" {
				return 1
			}
			return 0
		},
		GuardComparisons: true,
		TypeOK:           isFloat,
	})
	var afterGuard Mask = 0xff
	tt.Walk(func(_ *cfg.Block, n ast.Node, fact map[types.Object]Mask) {
		if ret, ok := n.(*ast.ReturnStmt); ok && len(ret.Results) == 1 {
			if id, ok := ret.Results[0].(*ast.Ident); ok && id.Name == "p" {
				afterGuard = tt.Mask(fact, id)
			}
		}
	})
	if afterGuard != 0 {
		t.Fatalf("taint of p after p <= 0 guard = %#x, want 0", afterGuard)
	}
}

func TestTaintEntryAliasReachesReturn(t *testing.T) {
	fd, info := compile(t, `package t
type Out struct{ Items []int }
func f(in []int) Out {
	return Out{Items: in}
}`, "f")
	g := cfg.New(fd.Body)
	var inObj types.Object
	for _, p := range fd.Type.Params.List {
		inObj = info.ObjectOf(p.Names[0])
	}
	tt := NewTaint(fd.Body, g, TaintConfig{
		Info:         info,
		Entry:        map[types.Object]Mask{inObj: 1},
		ElemCopyRefs: true,
	})
	var retMask Mask
	tt.Walk(func(_ *cfg.Block, n ast.Node, fact map[types.Object]Mask) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			retMask = tt.Mask(fact, ret.Results[0])
		}
	})
	if retMask != 1 {
		t.Fatalf("composite-literal return mask = %#x, want 1 (param aliased)", retMask)
	}
}

func TestTaintCopyOfScalarsIsClean(t *testing.T) {
	fd, info := compile(t, `package t
type Out struct{ Items []int }
func f(in []int) Out {
	cp := make([]int, len(in))
	copy(cp, in)
	return Out{Items: cp}
}`, "f")
	g := cfg.New(fd.Body)
	var inObj types.Object
	for _, p := range fd.Type.Params.List {
		inObj = info.ObjectOf(p.Names[0])
	}
	tt := NewTaint(fd.Body, g, TaintConfig{
		Info:         info,
		Entry:        map[types.Object]Mask{inObj: 1},
		ElemCopyRefs: true,
	})
	var retMask Mask = 0xff
	tt.Walk(func(_ *cfg.Block, n ast.Node, fact map[types.Object]Mask) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			retMask = tt.Mask(fact, ret.Results[0])
		}
	})
	if retMask != 0 {
		t.Fatalf("copy()d scalar slice return mask = %#x, want 0", retMask)
	}
}

func TestCarriesRefs(t *testing.T) {
	f64 := types.Typ[types.Float64]
	scalarStruct := types.NewStruct([]*types.Var{
		types.NewField(token.NoPos, nil, "A", f64, false),
	}, nil)
	refStruct := types.NewStruct([]*types.Var{
		types.NewField(token.NoPos, nil, "P", types.NewSlice(types.Typ[types.Int]), false),
	}, nil)
	cases := []struct {
		name string
		typ  types.Type
		want bool
	}{
		{"float64", f64, false},
		{"string", types.Typ[types.String], false},
		{"[]float64", types.NewSlice(f64), true},
		{"*int", types.NewPointer(types.Typ[types.Int]), true},
		{"map", types.NewMap(types.Typ[types.Int], f64), true},
		{"scalar struct", scalarStruct, false},
		{"ref struct", refStruct, true},
		{"[4]float64", types.NewArray(f64, 4), false},
		{"[4][]int", types.NewArray(types.NewSlice(types.Typ[types.Int]), 4), true},
	}
	for _, c := range cases {
		if got := CarriesRefs(c.typ); got != c.want {
			t.Errorf("CarriesRefs(%s) = %v, want %v", c.name, got, c.want)
		}
	}
}
