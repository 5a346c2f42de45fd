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

func TestTaintZeroDeclReachesOnlyUnassignedPaths(t *testing.T) {
	fd, info := compile(t, `package t
func f(c bool) (*int, *int, int) {
	var p, q *int
	var n int
	if c {
		p = new(int)
	}
	q = new(int)
	return p, q, n
}`, "f")
	g := cfg.New(fd.Body)
	tt := NewTaint(fd.Body, g, TaintConfig{
		Info:     info,
		ZeroDecl: 1,
		TypeOK: func(t types.Type) bool {
			_, ok := t.(*types.Pointer)
			return ok
		},
	})
	var got [3]Mask
	tt.Walk(func(_ *cfg.Block, n ast.Node, fact map[types.Object]Mask) {
		if ret, ok := n.(*ast.ReturnStmt); ok {
			for i, r := range ret.Results {
				got[i] = tt.Mask(fact, r)
			}
		}
	})
	// p is assigned on one branch only, q on every path, and n fails
	// the type filter.
	if got != [3]Mask{1, 0, 0} {
		t.Fatalf("masks of p, q, n = %v, want [1 0 0]", got)
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
