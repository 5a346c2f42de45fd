package analysis

import (
	"go/ast"
	"go/types"

	"tableseg/internal/analysis/callgraph"
	"tableseg/internal/analysis/cfg"
)

// LockDiscipline returns the analyzer enforcing mutex hygiene over the
// control-flow graph: a sync.Mutex/RWMutex acquired in a function must
// be released on every path out of it (a defer unlock registered on
// all paths, or a per-path explicit unlock), and must not be held
// across a potentially-blocking operation — a channel send or receive,
// a select case communication (selects with a default are exempt: they
// cannot block), sync.WaitGroup.Wait, sync.Once.Do, acquiring another
// lock, a solver invocation, or a call to a module-local function whose
// call-graph summary says it may block (so hiding a channel receive or
// a WaitGroup join one helper call deep does not silence the check).
// Holding a lock across any of these turns an unrelated stall into a
// deadlock of every goroutine sharing the cache or registry the lock
// guards — precisely the failure mode that makes batch runs hang
// instead of reproducing Tables 1–4.
//
// Locks are identified by the printed receiver expression (e.g. e.mu,
// c.cache.mu), which is exact for the suite's shapes: a mutex reached
// through the same selector chain in one function body is the same
// mutex.
func LockDiscipline() *Analyzer {
	a := &Analyzer{
		Name: "lockdiscipline",
		Doc:  "require every mutex acquisition to unlock on all paths and never hold a lock across a may-block operation or callee",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					if n.Body != nil {
						var node *callgraph.Node
						if fn, _ := pass.Pkg.Info.Defs[n.Name].(*types.Func); fn != nil && pass.Facts != nil {
							node = pass.Facts.NodeOf(fn)
						}
						checkLocks(pass, node, n.Body)
					}
				case *ast.FuncLit:
					var node *callgraph.Node
					if pass.Facts != nil {
						node = pass.Facts.LitNode(n)
					}
					checkLocks(pass, node, n.Body)
				}
				return true
			})
		}
	}
	return a
}

// lockEvent is one Lock/RLock call found in a CFG node.
type lockEvent struct {
	call  *ast.CallExpr
	key   string // printed receiver expression, e.g. "e.mu"
	read  bool   // RLock/RUnlock pairing
	block *cfg.Block
	idx   int
}

// mutexCall classifies call as a Lock/Unlock-family method on a
// sync.Mutex or sync.RWMutex and returns the receiver key.
func mutexCall(pass *Pass, call *ast.CallExpr) (key, method string) {
	recv, method := callgraph.SyncSelector(pass.Pkg.Info, call)
	if recv != "Mutex" && recv != "RWMutex" {
		return "", ""
	}
	switch method {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
		sel := call.Fun.(*ast.SelectorExpr)
		return types.ExprString(sel.X), method
	}
	return "", ""
}

// checkLocks analyzes one function body (outermost statements only;
// nested literals get their own call). node is the body's call-graph
// node, through which calls resolve to their callees' summaries; nil
// (no fact base) limits the held-across check to the body's own
// operations.
func checkLocks(pass *Pass, node *callgraph.Node, body *ast.BlockStmt) {
	graph := cfg.New(body)
	exempt := callgraph.NonBlockingComms(body)

	// Collect the acquisition events block by block. Node expressions
	// are scanned without descending into nested literals, mirroring
	// the classifier's scoping.
	var locks []lockEvent
	for _, blk := range graph.Blocks {
		for i, stmt := range blk.Nodes {
			if _, isDefer := stmt.(*ast.DeferStmt); isDefer {
				continue // defer mu.Lock() is nonsense we don't model
			}
			inspectShallow(stmt, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if key, method := mutexCall(pass, call); key != "" && (method == "Lock" || method == "RLock") {
					locks = append(locks, lockEvent{
						call: call, key: key, read: method == "RLock",
						block: blk, idx: i,
					})
				}
				return true
			})
		}
	}

	for _, lk := range locks {
		unlockName := "Unlock"
		if lk.read {
			unlockName = "RUnlock"
		}
		isRelease := func(n ast.Node) bool {
			// A defer node counts through its call, which
			// explicitRelease skips; look at it directly.
			if d, ok := n.(*ast.DeferStmt); ok {
				key, method := mutexCall(pass, d.Call)
				return key == lk.key && method == unlockName
			}
			return explicitRelease(pass, n, lk.key, unlockName)
		}
		if !graph.AllPathsContain(lk.block, lk.idx, isRelease) {
			pass.Reportf(lk.call.Pos(), "%s.%s is not released on every path out of the function; unlock on each path or defer %s.%s", lk.key, lockName(lk.read), lk.key, unlockName)
		}
		checkHeldAcross(pass, node, graph, lk, unlockName, exempt)
	}
}

func lockName(read bool) string {
	if read {
		return "RLock"
	}
	return "Lock"
}

// checkHeldAcross walks every path from the acquisition until its
// release and reports, per CFG node, the first potentially-blocking
// operation encountered while the lock is held or else the first call
// to a module-local callee whose summary may block. A deferred release
// never clears the held state (the lock stays held to function exit by
// design), so anything blocking after it is still reported.
func checkHeldAcross(pass *Pass, node *callgraph.Node, graph *cfg.Graph, lk lockEvent, unlockName string, exempt map[ast.Node]bool) {
	reported := map[ast.Node]bool{}
	seen := map[*cfg.Block]bool{}
	var walk func(b *cfg.Block, start int)
	walk = func(b *cfg.Block, start int) {
		for i := start; i < len(b.Nodes); i++ {
			n := b.Nodes[i]
			if explicitRelease(pass, n, lk.key, unlockName) {
				return // lock released on this path
			}
			if ops := callgraph.CollectBlocking(pass.Pkg.Info, n, exempt); len(ops) > 0 {
				if op := ops[0]; !reported[op.Node] {
					reported[op.Node] = true
					pass.Reportf(op.Node.Pos(), "%s held across %s; release the lock before blocking (move the %s out of the critical section)", lk.key, op.What, op.What)
				}
			} else if call, callee := blockingCallee(pass, node, n); call != nil && !reported[call] {
				reported[call] = true
				pass.Reportf(call.Pos(), "%s held across call to %s, which may block (%s); release the lock before the call", lk.key, callee.Name(), callee.Summary.BlockWhat)
			}
		}
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s, 0)
		}
	}
	walk(lk.block, lk.idx+1)
}

// explicitRelease reports whether n calls key's unlockName method
// directly; deferred calls (and nested literals) do not count, since
// inspectShallow skips them.
func explicitRelease(pass *Pass, n ast.Node, key, unlockName string) bool {
	released := false
	inspectShallow(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if k, method := mutexCall(pass, call); k == key && method == unlockName {
				released = true
			}
		}
		return !released
	})
	return released
}

// blockingCallee returns the first call in n (outside nested literals
// and go/defer statements) that resolves to a module-local callee whose
// summary may block, or nil when node is nil or there is none.
func blockingCallee(pass *Pass, node *callgraph.Node, n ast.Node) (*ast.CallExpr, *callgraph.Node) {
	if node == nil {
		return nil, nil
	}
	var call *ast.CallExpr
	var callee *callgraph.Node
	inspectShallow(n, func(m ast.Node) bool {
		c, ok := m.(*ast.CallExpr)
		if call != nil || !ok {
			return call == nil
		}
		// Calls the intrinsic classifier knows (solver entry points,
		// sync methods) are its to report, even where a select with a
		// default exempts them.
		if what, _ := callgraph.BlockingCall(pass.Pkg.Info, c); what != "" {
			return true
		}
		if cn := node.ResolvedCallee(c); cn != nil && cn.Summary.Blocks != 0 {
			call, callee = c, cn
			return false
		}
		return true
	})
	return call, callee
}

// inspectShallow walks n without descending into nested function
// literals or the deferred/spawned calls of defer and go statements.
func inspectShallow(n ast.Node, f func(ast.Node) bool) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit, *ast.DeferStmt, *ast.GoStmt:
			return false
		}
		return f(m)
	})
}
