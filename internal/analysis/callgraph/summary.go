package callgraph

import (
	"go/ast"
	"go/token"
	"go/types"

	"tableseg/internal/analysis/cfg"
)

// This file computes the per-function summary facts, bottom-up over
// the SCCs of the call graph:
//
//   - may-block: the transitive closure of the may-block classifier in
//     block.go — a function may block if its own body contains a
//     blocking operation, or it calls (or defers) a function that may
//     block. Goroutine launches do not charge to the launcher. The
//     fact is a Kind bitset, so clients can distinguish
//     cancellation-relevant parking from plain lock acquisition.
//   - ctx-threaded: for a function with a context.Context parameter,
//     whether that context reaches every cancellation-relevant
//     blocking callee — each such callee either receives a context
//     derived from the parameter or is itself a violation (no context
//     parameter at all, or one it fails to thread onward).
//   - responds: for a function with an http.ResponseWriter parameter,
//     whether every path to the exit performs a respond event (writes
//     the status or body, or delegates to something that provably
//     does), and whether every path explicitly sets the status.
//
// All three facts are monotone on their lattices (Blocks only grows,
// CtxIssues only grows, RespondsAll/SetsStatus only flip false→true
// as callee facts grow), so iterating each SCC to a fixpoint in
// reverse topological order terminates with the least/greatest
// solution.

// Summary is the interprocedural fact set of one function.
type Summary struct {
	// Blocks is the union of ways the function may block, transitively
	// through calls and defers. Zero means provably non-blocking under
	// the classifier (module-external calls excepted, matching the
	// intra-procedural analyzers' under-approximation).
	Blocks Kind
	// BlockWhat/BlockPos witness the first blocking operation found.
	BlockWhat string
	BlockPos  token.Pos
	// CancelWhat/CancelPos witness the first cancellation-relevant
	// (non-lock) blocking operation.
	CancelWhat string
	CancelPos  token.Pos

	// HasCtx reports a context.Context parameter in the signature.
	HasCtx bool
	// CtxIssues are the ways the function fails to thread its context
	// into blocking work; empty means ctx-threaded.
	CtxIssues []CtxIssue

	// HasRW reports an http.ResponseWriter parameter in the signature.
	HasRW bool
	// RespondsAll reports that every path to the exit performs a
	// respond event on the writer.
	RespondsAll bool
	// SetsStatus reports that every path to the exit performs an
	// explicit status-setting event (WriteHeader, http.Error, or a
	// callee that does).
	SetsStatus bool
}

// CtxIssueKind classifies one failure to thread a context.
type CtxIssueKind uint8

const (
	// CtxSevered: the callee may block but takes no context at all —
	// cancellation cannot reach it.
	CtxSevered CtxIssueKind = iota
	// CtxDropped: the callee accepts a context but none of the
	// caller's derived contexts is passed.
	CtxDropped
	// CtxUnthreaded: the caller passes its context, but the callee
	// itself fails to thread it onward into its blocking work.
	CtxUnthreaded
	// CtxSleep: a bare time.Sleep, which no context can interrupt.
	CtxSleep
)

// CtxIssue is one context-threading failure at a call site.
type CtxIssue struct {
	Kind CtxIssueKind
	// Site is the offending call (or sleep) expression.
	Site ast.Node
	// Callee names the blocking callee for diagnostics ("" for
	// direct operations).
	Callee string
	// CalleePath is the import path of a module-local callee, "" when
	// external or unresolved.
	CalleePath string
	// What describes the blocking behavior being severed.
	What string
}

// RespondEvent classifies one call site's effect on the HTTP response.
type RespondEvent struct {
	Call *ast.CallExpr
	// Status: the event explicitly sets the response status
	// (WriteHeader-class). Responding twice with Status events is the
	// superfluous-WriteHeader bug.
	Status bool
	// Respond: the event starts or continues the response (status or
	// body write, or delegation to something that writes).
	Respond bool
	// HeaderMut: the event mutates the response headers, which is lost
	// (and vet-warned at runtime) once the body has started.
	HeaderMut bool
	// What describes the event for diagnostics.
	What string
}

// Summarize computes every node's Summary, bottom-up over SCCs.
// It is idempotent.
func (g *Graph) Summarize() {
	if g.summarized {
		return
	}
	g.summarized = true
	for _, scc := range g.sccs() {
		for changed := true; changed; {
			changed = false
			for _, n := range scc {
				next := g.computeSummary(n)
				if !summariesEqual(&next, &n.Summary) {
					n.Summary = next
					changed = true
				}
			}
		}
	}
}

func summariesEqual(a, b *Summary) bool {
	return a.Blocks == b.Blocks &&
		a.HasCtx == b.HasCtx && a.HasRW == b.HasRW &&
		len(a.CtxIssues) == len(b.CtxIssues) &&
		a.RespondsAll == b.RespondsAll &&
		a.SetsStatus == b.SetsStatus
}

// signature returns the node's function signature.
func (n *Node) signature() *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	if n.Lit != nil {
		if t := n.Info.TypeOf(n.Lit); t != nil {
			sig, _ := t.(*types.Signature)
			return sig
		}
	}
	return nil
}

func (s *Summary) addBlock(k Kind, what string, pos token.Pos) {
	if k == 0 {
		return
	}
	if s.Blocks == 0 {
		s.BlockWhat, s.BlockPos = what, pos
	}
	if s.CancelWhat == "" && k&KindCancel != 0 {
		s.CancelWhat, s.CancelPos = what, pos
	}
	s.Blocks |= k
}

// edgeCalleeName renders the callee of e for diagnostics.
func edgeCalleeName(e *Edge) string {
	switch {
	case e.CalleeFn != nil:
		return FuncDisplayName(e.CalleeFn)
	case e.Callee != nil:
		return e.Callee.Name()
	}
	return "function value"
}

// computeSummary derives n's summary from its body and the current
// summaries of its callees (which, mid-fixpoint, may still grow).
func (g *Graph) computeSummary(n *Node) Summary {
	var s Summary
	sig := n.signature()
	if sig != nil {
		s.HasCtx = ctxParamIndex(sig) >= 0
		s.HasRW = rwParamIndex(sig) >= 0
	}
	if n.Body == nil {
		return s
	}

	// Intrinsic blocking operations of the body itself.
	exempt := NonBlockingComms(n.Body)
	for _, op := range CollectBlocking(n.Info, n.Body, exempt) {
		s.addBlock(op.Kind, op.What, op.Node.Pos())
	}
	// Long-running entry points block by project contract, whatever
	// their bodies look like today (mirrors the intra classifier's
	// treatment of their call sites).
	if n.Fn != nil && n.Fn.Exported() && hasEntryPrefix(n.Fn.Name()) {
		s.addBlock(KindSolver, "long-running entry point "+n.Fn.Name()+" by contract", n.posOf())
	}

	// Transitive blocking through calls and defers.
	for i := range n.Out {
		e := &n.Out[i]
		switch e.Kind {
		case EdgeCall, EdgeDefer:
			if e.Callee != nil {
				if cs := &e.Callee.Summary; cs.Blocks != 0 {
					name := edgeCalleeName(e)
					pos := e.Site.Pos()
					if s.Blocks == 0 {
						s.BlockWhat, s.BlockPos = "calls "+name+" ("+cs.BlockWhat+")", pos
					}
					// Chain the cancellation-relevant description
					// separately: a callee can block first on a lock
					// (not cancellation-relevant) and then on a channel,
					// and the diagnostic must name the latter.
					if s.CancelWhat == "" && cs.Blocks&KindCancel != 0 {
						cw := cs.CancelWhat
						if cw == "" {
							cw = cs.BlockWhat
						}
						s.CancelWhat, s.CancelPos = "calls "+name+" ("+cw+")", pos
					}
					s.Blocks |= cs.Blocks
				}
			} else if e.Kind == EdgeDefer {
				// Deferred external calls are skipped by the intrinsic
				// walk (registration does not block) but still run in
				// this goroutine at exit.
				if call, ok := e.Site.(*ast.CallExpr); ok {
					if what, k := BlockingCall(n.Info, call); k != 0 {
						s.addBlock(k, "deferred "+what, call.Pos())
					}
				}
			}
		}
	}

	if s.HasCtx {
		s.CtxIssues = g.ctxIssues(n)
	}
	if s.HasRW {
		g.computeRespondEvents(n)
		graph := cfg.New(n.Body)
		s.RespondsAll = graph.AllPathsContain(graph.Entry, -1, func(m ast.Node) bool {
			return n.nodeHasEvent(m, false)
		})
		s.SetsStatus = graph.AllPathsContain(graph.Entry, -1, func(m ast.Node) bool {
			return n.nodeHasEvent(m, true)
		})
	}
	return s
}

// --- context threading ---

// ctxParamIndex returns the index of the first context.Context
// parameter of sig, or -1.
func ctxParamIndex(sig *types.Signature) int {
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// ctxDerivedObjs computes the objects carrying a context derived from
// n's context parameter(s): the parameters themselves plus every
// context-typed local assigned from an expression mentioning a
// derived object (ctx2, cancel := context.WithTimeout(ctx, d)).
func (g *Graph) ctxDerivedObjs(n *Node) map[types.Object]bool {
	derived := map[types.Object]bool{}
	sig := n.signature()
	if sig == nil {
		return derived
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if p := sig.Params().At(i); isContextType(p.Type()) {
			derived[p] = true
		}
	}

	// Collect candidate (lhs, rhs-mention) pairs once, then iterate to
	// a fixpoint (derivation chains: ctx2 from ctx, ctx3 from ctx2).
	type binding struct {
		obj types.Object
		rhs []ast.Expr
	}
	var bindings []binding
	record := func(lhs ast.Expr, rhs []ast.Expr) {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			return
		}
		obj := n.Info.Defs[id]
		if obj == nil {
			obj = n.Info.Uses[id]
		}
		if obj == nil || !isContextType(obj.Type()) {
			return
		}
		bindings = append(bindings, binding{obj: obj, rhs: rhs})
	}
	ast.Inspect(n.Body, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return m == n.Lit
		case *ast.AssignStmt:
			if len(m.Lhs) == len(m.Rhs) {
				for i := range m.Lhs {
					record(m.Lhs[i], m.Rhs[i:i+1])
				}
			} else {
				for _, lhs := range m.Lhs {
					record(lhs, m.Rhs)
				}
			}
		case *ast.ValueSpec:
			for _, name := range m.Names {
				record(name, m.Values)
			}
		}
		return true
	})
	for changed := true; changed; {
		changed = false
		for _, b := range bindings {
			if derived[b.obj] {
				continue
			}
			for _, rhs := range b.rhs {
				if mentionsDerived(n, rhs, derived) {
					derived[b.obj] = true
					changed = true
					break
				}
			}
		}
	}
	return derived
}

// mentionsDerived reports whether expr references any derived object.
func mentionsDerived(n *Node, expr ast.Expr, derived map[types.Object]bool) bool {
	found := false
	ast.Inspect(expr, func(m ast.Node) bool {
		if found {
			return false
		}
		if id, ok := m.(*ast.Ident); ok {
			if obj := n.Info.Uses[id]; obj != nil && derived[obj] {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// ctxIssues finds every way n fails to thread its context into
// cancellation-relevant blocking work.
func (g *Graph) ctxIssues(n *Node) []CtxIssue {
	derived := g.ctxDerivedObjs(n)
	var issues []CtxIssue

	// Bare sleeps: no context can interrupt them.
	exempt := NonBlockingComms(n.Body)
	for _, op := range CollectBlocking(n.Info, n.Body, exempt) {
		if op.Kind == KindSleep {
			issues = append(issues, CtxIssue{Kind: CtxSleep, Site: op.Node, What: op.What})
		}
	}

	for i := range n.Out {
		e := &n.Out[i]
		if e.Kind != EdgeCall && e.Kind != EdgeDefer {
			continue
		}
		kinds, what := g.edgeCancelBlocks(n, e)
		if kinds&KindCancel == 0 {
			continue
		}
		// Bare time.Sleep sites are already reported by the sleep pass
		// above; a severed-callee issue on top would double-report.
		if call, ok := e.Site.(*ast.CallExpr); ok && e.Callee == nil {
			if _, k := BlockingCall(n.Info, call); k == KindSleep {
				continue
			}
		}
		var sig *types.Signature
		if e.CalleeFn != nil {
			sig, _ = e.CalleeFn.Type().(*types.Signature)
		} else if e.Callee != nil {
			sig = e.Callee.signature()
		}
		if sig == nil {
			continue
		}
		name := edgeCalleeName(e)
		path := ""
		if e.Callee != nil {
			path = e.Callee.Path
		}
		if ctxParamIndex(sig) < 0 {
			issues = append(issues, CtxIssue{
				Kind: CtxSevered, Site: e.Site, Callee: name, CalleePath: path, What: what,
			})
			continue
		}
		if !callPassesDerivedCtx(n, e, derived) {
			issues = append(issues, CtxIssue{
				Kind: CtxDropped, Site: e.Site, Callee: name, CalleePath: path, What: what,
			})
			continue
		}
		if e.Callee != nil && e.Callee.Summary.HasCtx && len(e.Callee.Summary.CtxIssues) > 0 {
			inner := e.Callee.Summary.CtxIssues[0]
			issues = append(issues, CtxIssue{
				Kind: CtxUnthreaded, Site: e.Site, Callee: name, CalleePath: path,
				What: inner.What,
			})
		}
	}
	return issues
}

// edgeCancelBlocks reports how the call through e may block: the
// callee's summary when resolved, else the intrinsic classification of
// the call site.
func (g *Graph) edgeCancelBlocks(n *Node, e *Edge) (Kind, string) {
	if e.Callee != nil {
		cs := &e.Callee.Summary
		what := cs.CancelWhat
		if what == "" {
			what = cs.BlockWhat
		}
		return cs.Blocks, what
	}
	if call, ok := e.Site.(*ast.CallExpr); ok {
		what, k := BlockingCall(n.Info, call)
		return k, what
	}
	return 0, ""
}

// callPassesDerivedCtx reports whether the call passes a
// context-typed argument derived from n's context parameter.
func callPassesDerivedCtx(n *Node, e *Edge, derived map[types.Object]bool) bool {
	call, ok := e.Site.(*ast.CallExpr)
	if !ok {
		return false
	}
	for _, a := range call.Args {
		t := n.Info.TypeOf(a)
		if t == nil || !isContextType(t) {
			continue
		}
		if mentionsDerived(n, a, derived) {
			return true
		}
	}
	return false
}

// --- HTTP response facts ---

// rwParamIndex returns the index of the first http.ResponseWriter
// parameter of sig, or -1.
func rwParamIndex(sig *types.Signature) int {
	if sig == nil {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isResponseWriter(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

func isResponseWriter(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "ResponseWriter" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// isRequestPtr reports *net/http.Request.
func isRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

// HandlerShaped reports whether sig is handler-shaped: it has both an
// http.ResponseWriter and a *http.Request parameter.
func HandlerShaped(sig *types.Signature) bool {
	if sig == nil || rwParamIndex(sig) < 0 {
		return false
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isRequestPtr(sig.Params().At(i).Type()) {
			return true
		}
	}
	return false
}

// statusFuncs are the net/http package functions that write a status
// (and start the response) through their ResponseWriter argument.
var statusFuncs = map[string]bool{
	"Error": true, "NotFound": true, "Redirect": true,
	"ServeFile": true, "ServeContent": true,
}

// bodyWriters are external functions whose call with a ResponseWriter
// first argument writes the body (implicitly setting the status on
// first write): fmt.Fprint family, io.WriteString, io.Copy.
var bodyWriters = map[string]map[string]bool{
	"fmt": {"Fprint": true, "Fprintf": true, "Fprintln": true},
	"io":  {"WriteString": true, "Copy": true},
}

// inertRWFuncs are net/http functions that take a ResponseWriter but
// never write through it — MaxBytesReader only wraps the request body,
// NewResponseController only hands back a controller. Without this
// list they would be mistaken for the writer escaping into external
// code, which is assumed to respond.
var inertRWFuncs = map[string]bool{
	"MaxBytesReader":        true,
	"NewResponseController": true,
}

// computeRespondEvents classifies every call site of n by its effect
// on the HTTP response and stores the result on the node.
func (g *Graph) computeRespondEvents(n *Node) {
	events := map[*ast.CallExpr]RespondEvent{}
	info := n.Info

	rwTyped := func(e ast.Expr) bool {
		t := info.TypeOf(e)
		return t != nil && isResponseWriter(t)
	}

	for call := range n.sites {
		ev := RespondEvent{Call: call}
		fun := ast.Unparen(call.Fun)
		inert := false

		if sel, ok := fun.(*ast.SelectorExpr); ok {
			// w.WriteHeader / w.Write on the writer itself.
			if rwTyped(sel.X) {
				switch sel.Sel.Name {
				case "WriteHeader":
					ev.Status, ev.Respond, ev.What = true, true, "WriteHeader"
				case "Write":
					ev.Respond, ev.What = true, "body write"
				}
			}
			// w.Header().Set/Add/Del — header mutation.
			if inner, ok := ast.Unparen(sel.X).(*ast.CallExpr); ok && !ev.Respond {
				if isel, ok := ast.Unparen(inner.Fun).(*ast.SelectorExpr); ok &&
					isel.Sel.Name == "Header" && rwTyped(isel.X) {
					switch sel.Sel.Name {
					case "Set", "Add", "Del":
						ev.HeaderMut, ev.What = true, "Header()."+sel.Sel.Name
					}
				}
			}
			// net/http package helpers and fmt/io writers.
			if id, ok := sel.X.(*ast.Ident); ok && !ev.Respond && !ev.HeaderMut {
				switch pkgNameOf(info, id) {
				case "net/http":
					switch {
					case statusFuncs[sel.Sel.Name] && callHasRWArg(info, call):
						ev.Status, ev.Respond, ev.What = true, true, "http."+sel.Sel.Name
					case sel.Sel.Name == "SetCookie":
						ev.HeaderMut, ev.What = true, "http.SetCookie"
					case inertRWFuncs[sel.Sel.Name]:
						inert = true
					}
				case "fmt", "io":
					pkg := pkgShort(pkgNameOf(info, id))
					if bodyWriters[pkg][sel.Sel.Name] && len(call.Args) > 0 && rwTyped(call.Args[0]) {
						ev.Respond, ev.What = true, pkg+"."+sel.Sel.Name
					}
				}
			}
		}

		// Delegation: the writer passed onward.
		if !inert && !ev.Respond && !ev.HeaderMut && callHasRWArg(info, call) {
			if e := n.edgeAt(call); e != nil && e.Callee != nil {
				cs := &e.Callee.Summary
				switch {
				case cs.SetsStatus:
					ev.Status, ev.Respond = true, true
					ev.What = "call to " + edgeCalleeName(e) + " (sets the status)"
				case cs.RespondsAll:
					ev.Respond = true
					ev.What = "call to " + edgeCalleeName(e) + " (writes the response)"
				}
				// A resolved callee that provably never responds is not
				// an event; a partial responder is handled by its own
				// httpresp run.
			} else {
				// The writer escapes into an external or unresolved
				// call: assume it responds (delegating to a mux,
				// middleware or template is the normal shape), but make
				// no claim about the status.
				ev.Respond = true
				ev.What = "call passing the ResponseWriter onward"
			}
		}

		if ev.Status || ev.Respond || ev.HeaderMut {
			events[call] = ev
		}
	}
	n.respondEvents = events
}

func pkgShort(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[i+1:]
		}
	}
	return path
}

func callHasRWArg(info *types.Info, call *ast.CallExpr) bool {
	for _, a := range call.Args {
		if t := info.TypeOf(a); t != nil && isResponseWriter(t) {
			return true
		}
	}
	return false
}

// RespondEvents exposes the classified call sites of a summarized
// node (nil before Summarize, or for nodes without a ResponseWriter).
func (n *Node) RespondEvents() map[*ast.CallExpr]RespondEvent { return n.respondEvents }

// nodeHasEvent reports whether CFG node m contains (shallowly — not
// descending into nested literals or go/defer bodies) a respond event
// of n; statusOnly restricts to explicit status-setting events.
func (n *Node) nodeHasEvent(m ast.Node, statusOnly bool) bool {
	found := false
	ast.Inspect(m, func(x ast.Node) bool {
		if found {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if ev, ok := n.respondEvents[x]; ok {
				if ev.Respond && (!statusOnly || ev.Status) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// ResolvedCallee returns the module-local callee of a call site of n,
// nil when the call is external or unresolved.
func (n *Node) ResolvedCallee(call *ast.CallExpr) *Node {
	if e := n.edgeAt(call); e != nil {
		return e.Callee
	}
	return nil
}
