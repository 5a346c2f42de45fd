package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the may-block call classifier, shared by the
// intra-procedural concurrency analyzers (goroleak, lockdiscipline,
// chancontract) and the interprocedural summary computation, so both
// use one definition of "operation after which a goroutine may park":
// channel sends and receives, selects without a ready branch,
// sync.WaitGroup.Wait, sync.Once.Do (the loser of a concurrent first
// call parks until the winner finishes), acquiring another mutex,
// time.Sleep, and solver invocations (exported
// Segment/Solve/Fit/Run/Train entry points, which by project contract
// can run for a long time).
//
// Classification is syntactic plus types: it inspects the node's own
// expressions but never descends into nested function literals (their
// bodies execute elsewhere) and treats go/defer statements as
// non-blocking at the point of registration (only their argument
// expressions are evaluated there). Each operation carries a Kind so
// interprocedural clients can distinguish cancellation-relevant
// parking (channels, joins, sleeps, solvers) from plain lock
// acquisition, which a short critical section performs routinely.

// Kind is a bitset classifying how an operation (or, transitively, a
// function) may block.
type Kind uint8

const (
	// KindChan marks channel sends, receives and channel-range loops.
	KindChan Kind = 1 << iota
	// KindSync marks sync.WaitGroup.Wait and sync.Once.Do.
	KindSync
	// KindLock marks sync.Mutex/RWMutex Lock and RLock acquisition.
	KindLock
	// KindSleep marks time.Sleep.
	KindSleep
	// KindSolver marks calls to exported entry points carrying the
	// project's long-running verb prefixes (Segment/Solve/Fit/Run/
	// Train), which by contract can run until their context cancels.
	KindSolver
)

// KindCancel is the subset of kinds that represent indefinite,
// cancellation-relevant parking: everything except taking a lock (a
// short critical section acquires locks routinely and needs no
// context).
const KindCancel = KindChan | KindSync | KindSleep | KindSolver

// String renders the bitset for diagnostics, e.g. "chan|lock".
func (k Kind) String() string {
	var parts []string
	for _, e := range [...]struct {
		k Kind
		s string
	}{
		{KindChan, "chan"}, {KindSync, "sync"}, {KindLock, "lock"},
		{KindSleep, "sleep"}, {KindSolver, "solver"},
	} {
		if k&e.k != 0 {
			parts = append(parts, e.s)
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "|")
}

// EntryPointPrefixes are the verb prefixes that mark an exported
// function or method as a pipeline/solver entry point: work that can
// be long-running and therefore must be cancelable from the caller.
// Shared with the analysis package's ctxdiscipline analyzer.
var EntryPointPrefixes = []string{"Segment", "Solve", "Fit", "Run", "Train"}

// hasEntryPrefix reports whether name carries one of the long-running
// entry-point verb prefixes.
func hasEntryPrefix(name string) bool {
	for _, p := range EntryPointPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// BlockingOp is one potentially-blocking operation found in a node.
type BlockingOp struct {
	Node ast.Node
	What string // human-readable classification for diagnostics
	Kind Kind
}

// NonBlockingComms returns the communication clauses (and their
// statements) of every `select` in body that has a default branch:
// those sends and receives only run when already ready, so they never
// block.
func NonBlockingComms(body ast.Node) map[ast.Node]bool {
	out := map[ast.Node]bool{}
	if body == nil {
		return out
	}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if c.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault {
			return true
		}
		for _, c := range sel.Body.List {
			if comm := c.(*ast.CommClause).Comm; comm != nil {
				out[comm] = true
				// The receive expression inside an assignment or
				// expression statement is what deeper walks encounter.
				ast.Inspect(comm, func(m ast.Node) bool {
					if u, ok := m.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						out[u] = true
					}
					return true
				})
			}
		}
		return true
	})
	return out
}

// CollectBlocking returns every potentially-blocking operation in n,
// in source order. exempt marks nodes known to be non-blocking
// (communications of selects with a default). The walk skips nested
// function literals and the calls of go/defer statements.
func CollectBlocking(info *types.Info, n ast.Node, exempt map[ast.Node]bool) []BlockingOp {
	var found []BlockingOp
	var visitExpr func(e ast.Expr)
	var visit func(n ast.Node) bool

	mark := func(node ast.Node, what string, kind Kind) {
		found = append(found, BlockingOp{Node: node, What: what, Kind: kind})
	}
	chanTyped := func(e ast.Expr) bool {
		if t := info.TypeOf(e); t != nil {
			_, ok := t.Underlying().(*types.Chan)
			return ok
		}
		return false
	}
	visitExpr = func(e ast.Expr) {
		if e != nil {
			ast.Inspect(e, visit)
		}
	}
	visit = func(n ast.Node) bool {
		if n == nil || exempt[n] {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.GoStmt:
			for _, a := range n.Call.Args {
				visitExpr(a)
			}
			return false
		case *ast.DeferStmt:
			for _, a := range n.Call.Args {
				visitExpr(a)
			}
			return false
		case *ast.SendStmt:
			mark(n, "channel send", KindChan)
			visitExpr(n.Value)
			return false
		case *ast.RangeStmt:
			// Ranging a channel blocks on every receive until the
			// channel is closed.
			if chanTyped(n.X) {
				mark(n, "channel-range receive", KindChan)
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				mark(n, "channel receive", KindChan)
				return false
			}
		case *ast.CallExpr:
			if what, kind := BlockingCall(info, n); what != "" {
				mark(n, what, kind)
				return false
			}
		}
		return true
	}
	if n != nil {
		// A CFG loop head for `for range ch` is the ranged operand
		// itself; a channel-typed root expression therefore marks the
		// per-iteration blocking receive.
		if e, ok := n.(ast.Expr); ok && chanTyped(e) {
			mark(n, "channel-range receive", KindChan)
		}
		ast.Inspect(n, visit)
	}
	return found
}

// BlockingCall classifies a call expression: "" when it is not a
// known potentially-blocking call.
func BlockingCall(info *types.Info, call *ast.CallExpr) (string, Kind) {
	if recv, method := SyncSelector(info, call); recv != "" {
		switch {
		case method == "Wait" && recv == "WaitGroup":
			return "sync.WaitGroup.Wait", KindSync
		case method == "Do" && recv == "Once":
			return "sync.Once.Do", KindSync
		case (method == "Lock" || method == "RLock") && (recv == "Mutex" || recv == "RWMutex"):
			return "sync." + recv + "." + method, KindLock
		}
	}
	// time.Sleep parks the goroutine.
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
		if id, ok := sel.X.(*ast.Ident); ok && pkgNameOf(info, id) == "time" && sel.Sel.Name == "Sleep" {
			return "time.Sleep", KindSleep
		}
	}
	// Solver invocations: exported entry points named with the
	// project's long-running verb prefixes (Segment/Solve/Fit/Run/
	// Train) can run until their context cancels.
	var nameID *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		nameID = fun
	case *ast.SelectorExpr:
		nameID = fun.Sel
	}
	if nameID != nil && ast.IsExported(nameID.Name) && hasEntryPrefix(nameID.Name) {
		if _, isFunc := info.Uses[nameID].(*types.Func); isFunc {
			return "solver invocation " + nameID.Name, KindSolver
		}
	}
	return "", 0
}

// SyncSelector resolves a method call's receiver to a type declared in
// package sync, returning the type and method names ("" when the call
// is not a sync-type method).
func SyncSelector(info *types.Info, call *ast.CallExpr) (recvType, method string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	selection, ok := info.Selections[sel]
	if !ok {
		return "", ""
	}
	t := selection.Recv()
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", ""
	}
	return obj.Name(), sel.Sel.Name
}

// pkgNameOf resolves an identifier to the imported package it names,
// or "" if it is not a package qualifier.
func pkgNameOf(info *types.Info, id *ast.Ident) string {
	if obj, ok := info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}
