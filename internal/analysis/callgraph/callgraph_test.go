package callgraph

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// buildGraph type-checks one synthetic package and returns its
// summarized call graph.
func buildGraph(t *testing.T, src string) *Graph {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	tpkg, err := conf.Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	g := Build([]Source{{Path: "p", Files: []*ast.File{file}, Info: info, Types: tpkg}})
	g.Summarize()
	return g
}

// nodeNamed finds the declared function node with the given name.
func nodeNamed(t *testing.T, g *Graph, name string) *Node {
	t.Helper()
	for _, n := range g.Nodes {
		if n.Fn != nil && n.Fn.Name() == name {
			return n
		}
	}
	t.Fatalf("no node named %q", name)
	return nil
}

func TestMethodValueResolution(t *testing.T) {
	g := buildGraph(t, `package p

type S struct{ ch chan int }

func (s *S) Recv() { <-s.ch }

func caller(s *S) {
	f := s.Recv
	f()
}
`)
	caller := nodeNamed(t, g, "caller")
	if got := caller.Summary.Blocks; got&KindChan == 0 {
		t.Fatalf("caller Blocks = %v, want chan via method value", got)
	}
	var resolved bool
	for _, e := range caller.Out {
		if e.Kind == EdgeCall && e.CalleeFn != nil && e.CalleeFn.Name() == "Recv" && e.Callee != nil {
			resolved = true
		}
	}
	if !resolved {
		t.Fatalf("method-value call f() not resolved to (*S).Recv; edges: %+v", caller.Out)
	}
}

func TestInterfaceSingleImplDevirtualized(t *testing.T) {
	g := buildGraph(t, `package p

type Waiter interface{ Await() }

type impl struct{ ch chan int }

func (i *impl) Await() { <-i.ch }

func caller(w Waiter) { w.Await() }
`)
	caller := nodeNamed(t, g, "caller")
	var devirt bool
	for _, e := range caller.Out {
		if e.Kind == EdgeCall && e.Devirt && e.Callee != nil && e.Callee.Fn.Name() == "Await" {
			devirt = true
		}
	}
	if !devirt {
		t.Fatalf("interface call with single impl not devirtualized; edges: %+v", caller.Out)
	}
	if caller.Summary.Blocks&KindChan == 0 {
		t.Fatalf("caller Blocks = %v, want chan through devirtualized callee", caller.Summary.Blocks)
	}
}

func TestInterfaceMultiImplNotDevirtualized(t *testing.T) {
	g := buildGraph(t, `package p

type Waiter interface{ Await() }

type a struct{}
type b struct{}

func (a) Await() {}
func (b) Await() {}

func caller(w Waiter) { w.Await() }
`)
	caller := nodeNamed(t, g, "caller")
	for _, e := range caller.Out {
		if e.Devirt {
			t.Fatalf("interface call with two impls was devirtualized: %+v", e)
		}
		if e.Kind == EdgeCall && e.CalleeFn == nil {
			t.Fatalf("static interface method object lost on unresolved call")
		}
	}
}

func TestDeferInLoop(t *testing.T) {
	g := buildGraph(t, `package p

import "sync"

func caller(wgs []*sync.WaitGroup) {
	for _, wg := range wgs {
		defer wg.Wait()
	}
}
`)
	caller := nodeNamed(t, g, "caller")
	var deferred int
	for _, e := range caller.Out {
		if e.Kind == EdgeDefer {
			deferred++
		}
	}
	if deferred != 1 {
		t.Fatalf("defer edges = %d, want 1", deferred)
	}
	if caller.Summary.Blocks&KindSync == 0 {
		t.Fatalf("caller Blocks = %v, want sync from deferred WaitGroup.Wait", caller.Summary.Blocks)
	}
}

func TestGoInClosureDoesNotChargeLauncher(t *testing.T) {
	g := buildGraph(t, `package p

func launcher(ch chan int) func() {
	return func() {
		go func() { <-ch }()
	}
}
`)
	launcher := nodeNamed(t, g, "launcher")
	if launcher.Summary.Blocks != 0 {
		t.Fatalf("launcher Blocks = %v, want none (receive runs in a goroutine)", launcher.Summary.Blocks)
	}
	// The outer closure launches but does not block either.
	var closure *Node
	for _, n := range g.Nodes {
		if n.Lit != nil && n.Body != nil {
			for _, e := range n.Out {
				if e.Kind == EdgeGo {
					closure = n
				}
			}
		}
	}
	if closure == nil {
		t.Fatalf("go statement inside closure produced no EdgeGo on the closure node")
	}
	if closure.Summary.Blocks != 0 {
		t.Fatalf("closure Blocks = %v, want none", closure.Summary.Blocks)
	}
	// The goroutine body itself is a node and does block.
	var body *Node
	for _, e := range closure.Out {
		if e.Kind == EdgeGo {
			body = e.Callee
		}
	}
	if body == nil || body.Summary.Blocks&KindChan == 0 {
		t.Fatalf("goroutine body not resolved or not blocking: %+v", body)
	}
}

func TestSCCFixpointMutualRecursion(t *testing.T) {
	g := buildGraph(t, `package p

func a(ch chan int, n int) {
	if n > 0 {
		b(ch, n-1)
	}
}

func b(ch chan int, n int) {
	<-ch
	a(ch, n)
}
`)
	for _, name := range []string{"a", "b"} {
		n := nodeNamed(t, g, name)
		if n.Summary.Blocks&KindChan == 0 {
			t.Fatalf("%s Blocks = %v, want chan through the recursion cycle", name, n.Summary.Blocks)
		}
	}
}

func TestCtxThreading(t *testing.T) {
	g := buildGraph(t, `package p

import (
	"context"
	"time"
)

func blockNoCtx(ch chan int) { <-ch }

func blockWithCtx(ctx context.Context, ch chan int) {
	select {
	case <-ch:
	case <-ctx.Done():
	}
}

func dropped(ctx context.Context, ch chan int) {
	blockWithCtx(context.Background(), ch)
}

func severed(ctx context.Context, ch chan int) {
	blockNoCtx(ch)
}

func threaded(ctx context.Context, ch chan int) {
	ctx2, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	blockWithCtx(ctx2, ch)
}

func sleeper(ctx context.Context) {
	time.Sleep(time.Second)
}
`)
	check := func(name string, wantKinds ...CtxIssueKind) {
		t.Helper()
		n := nodeNamed(t, g, name)
		if !n.Summary.HasCtx {
			t.Fatalf("%s: HasCtx = false", name)
		}
		var got []CtxIssueKind
		for _, is := range n.Summary.CtxIssues {
			got = append(got, is.Kind)
		}
		if len(got) != len(wantKinds) {
			t.Fatalf("%s: issues = %+v, want kinds %v", name, n.Summary.CtxIssues, wantKinds)
		}
		for i, k := range wantKinds {
			if got[i] != k {
				t.Fatalf("%s: issue %d kind = %v, want %v", name, i, got[i], k)
			}
		}
	}
	check("dropped", CtxDropped)
	check("severed", CtxSevered)
	check("threaded") // derivation through WithTimeout threads cleanly
	check("sleeper", CtxSleep)
	if n := nodeNamed(t, g, "blockWithCtx"); !n.Summary.HasCtx || len(n.Summary.CtxIssues) != 0 {
		t.Fatalf("blockWithCtx: HasCtx = %v, issues %+v; want a cleanly threaded context", n.Summary.HasCtx, n.Summary.CtxIssues)
	}
}

func TestRespondsSummary(t *testing.T) {
	g := buildGraph(t, `package p

import (
	"fmt"
	"net/http"
)

func full(w http.ResponseWriter, r *http.Request, ok bool) {
	if !ok {
		http.Error(w, "bad", http.StatusBadRequest)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func partial(w http.ResponseWriter, r *http.Request, ok bool) {
	if !ok {
		return
	}
	w.WriteHeader(http.StatusOK)
}

func delegated(w http.ResponseWriter, r *http.Request, ok bool) {
	if !ok {
		fail(w)
		return
	}
	w.WriteHeader(http.StatusOK)
}

func fail(w http.ResponseWriter) {
	http.Error(w, "bad", http.StatusInternalServerError)
}
`)
	cases := []struct {
		name                    string
		respondsAll, setsStatus bool
	}{
		{"full", true, true},
		{"partial", false, false},
		{"delegated", true, true},
		{"fail", true, true},
	}
	for _, c := range cases {
		n := nodeNamed(t, g, c.name)
		if !n.Summary.HasRW {
			t.Fatalf("%s: HasRW = false", c.name)
		}
		if n.Summary.RespondsAll != c.respondsAll || n.Summary.SetsStatus != c.setsStatus {
			t.Fatalf("%s: RespondsAll=%v SetsStatus=%v, want %v/%v",
				c.name, n.Summary.RespondsAll, n.Summary.SetsStatus, c.respondsAll, c.setsStatus)
		}
	}
}

func TestSCCsReverseTopological(t *testing.T) {
	g := buildGraph(t, `package p

func leaf() {}
func mid()  { leaf() }
func top()  { mid() }
`)
	pos := map[string]int{}
	for i, scc := range g.sccs() {
		for _, n := range scc {
			if n.Fn != nil {
				pos[n.Fn.Name()] = i
			}
		}
	}
	if !(pos["leaf"] < pos["mid"] && pos["mid"] < pos["top"]) {
		t.Fatalf("SCC order not reverse topological: %v", pos)
	}
}

func TestKindString(t *testing.T) {
	if got := (KindChan | KindLock).String(); got != "chan|lock" {
		t.Fatalf("Kind string = %q, want chan|lock", got)
	}
	if got := Kind(0).String(); got != "none" {
		t.Fatalf("zero Kind string = %q, want none", got)
	}
}

func TestFuncDisplayName(t *testing.T) {
	g := buildGraph(t, `package p

type T struct{}

func (t *T) Method() {}
func Plain()         {}
`)
	method := nodeNamed(t, g, "Method")
	if got := method.Name(); !strings.Contains(got, "(*T).Method") {
		t.Fatalf("method display name = %q", got)
	}
	plain := nodeNamed(t, g, "Plain")
	if got := plain.Name(); got != "p.Plain" {
		t.Fatalf("plain display name = %q", got)
	}
}
