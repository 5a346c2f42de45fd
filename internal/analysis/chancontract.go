package analysis

import (
	"go/ast"
	"go/types"

	"tableseg/internal/analysis/callgraph"
)

// ChanContract returns the analyzer enforcing channel ownership across
// exported APIs: a channel returned by an exported function or method
// is a stream the caller will range over, so the producing side must
// close it — exactly once, and only from a context that cannot race
// its own senders. Concretely:
//
//  1. an exported function whose result list includes a channel must
//     close that channel somewhere (typically in the goroutine that
//     produces into it); a never-closed result channel strands every
//     caller that ranges over it;
//  2. a channel may have at most one close site — two close sites are
//     a latent "close of closed channel" panic;
//  3. if the close site and a send site live in different goroutines,
//     the closer must join the senders first (a sync.WaitGroup.Wait
//     before the close): closing while another goroutine can still
//     send is a "send on closed channel" panic under racing schedules;
//  4. no function may close a channel it received as a parameter: the
//     receiver of a channel is a consumer, and only the producing side
//     knows when the stream is complete.
//
// The analysis is intra-procedural and identifier-based, matching the
// fan-out/fan-in shapes this codebase uses (local channel, worker
// literals, joiner literal).
func ChanContract() *Analyzer {
	a := &Analyzer{
		Name: "chancontract",
		Doc:  "returned channels must be closed exactly once, after joining senders; never close a received channel",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				checkCloses(pass, fn)
				if ast.IsExported(fn.Name.Name) {
					checkReturnedChannels(pass, fn)
				}
			}
		}
	}
	return a
}

// closeSitesOf finds every close(ch) call in fn for any channel
// object, keyed by the channel's object, with the innermost function
// literal containing each site (nil = the outer body).
type closeSite struct {
	call *ast.CallExpr
	lit  *ast.FuncLit
}

func closeSitesOf(pass *Pass, fn *ast.FuncDecl) map[types.Object][]closeSite {
	sites := map[types.Object][]closeSite{}
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
			if obj := closedChannel(pass, n); obj != nil {
				var lit *ast.FuncLit
				if len(litStack) > 0 {
					lit = litStack[len(litStack)-1]
				}
				sites[obj] = append(sites[obj], closeSite{call: n, lit: lit})
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
	return sites
}

// closedChannel returns the channel object closed by call, or nil if
// call is not close(ident).
func closedChannel(pass *Pass, call *ast.CallExpr) types.Object {
	fun, ok := call.Fun.(*ast.Ident)
	if !ok || fun.Name != "close" || len(call.Args) != 1 {
		return nil
	}
	if b, ok := pass.Pkg.Info.ObjectOf(fun).(*types.Builtin); !ok || b.Name() != "close" {
		return nil
	}
	id, ok := call.Args[0].(*ast.Ident)
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

// checkCloses enforces rules 2–4 for every channel closed anywhere in
// fn (exported or not: a double close panics regardless of export).
func checkCloses(pass *Pass, fn *ast.FuncDecl) {
	params := map[types.Object]bool{}
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.Pkg.Info.ObjectOf(name); obj != nil {
					params[obj] = true
				}
			}
		}
	}
	for ch, sites := range closeSitesOf(pass, fn) {
		for _, s := range sites[1:] {
			pass.Reportf(s.call.Pos(), "channel %s is closed in more than one place; exactly one owner may close a channel", ch.Name())
		}
		if params[ch] {
			pass.Reportf(sites[0].call.Pos(), "%s closes channel parameter %s; only the producing side closes a channel, and %s received this one", fn.Name.Name, ch.Name(), fn.Name.Name)
		}
		checkSendRace(pass, fn, ch, sites[0])
	}
}

// checkSendRace enforces rule 3: a close site in one goroutine with a
// send site in another must be preceded by a WaitGroup.Wait in the
// closer's own body (the join that guarantees the senders are gone).
func checkSendRace(pass *Pass, fn *ast.FuncDecl, ch types.Object, site closeSite) {
	foreignSend := false
	var litStack []*ast.FuncLit
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		if foreignSend {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			litStack = append(litStack, n)
			ast.Inspect(n.Body, walk)
			litStack = litStack[:len(litStack)-1]
			return false
		case *ast.SendStmt:
			id, ok := n.Chan.(*ast.Ident)
			if !ok || pass.Pkg.Info.ObjectOf(id) != ch {
				return true
			}
			var lit *ast.FuncLit
			if len(litStack) > 0 {
				lit = litStack[len(litStack)-1]
			}
			if lit != site.lit {
				foreignSend = true
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walk)
	if !foreignSend {
		return
	}
	// The closer must join first: a WaitGroup.Wait positioned before
	// the close in the closer's own context.
	var closerBody ast.Node = fn.Body
	if site.lit != nil {
		closerBody = site.lit.Body
	}
	joined := false
	ast.Inspect(closerBody, func(n ast.Node) bool {
		if joined {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && lit != site.lit {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() >= site.call.Pos() {
			return true
		}
		if recv, method := callgraph.SyncSelector(pass.Pkg.Info, call); recv == "WaitGroup" && method == "Wait" {
			joined = true
		}
		return true
	})
	if !joined {
		pass.Reportf(site.call.Pos(), "close of %s can race sends from another goroutine; join the senders (wg.Wait) before closing, or close from the sole sender", ch.Name())
	}
}

// checkReturnedChannels enforces rule 1 on exported functions.
func checkReturnedChannels(pass *Pass, fn *ast.FuncDecl) {
	if fn.Type.Results == nil {
		return
	}
	returnsChan := false
	for _, field := range fn.Type.Results.List {
		if t := pass.Pkg.Info.TypeOf(field.Type); t != nil {
			if ch, ok := t.Underlying().(*types.Chan); ok && ch.Dir() != types.SendOnly {
				returnsChan = true
			}
		}
	}
	if !returnsChan {
		return
	}
	sites := closeSitesOf(pass, fn)

	// Gather the channel objects handed back by return statements in
	// the outer body (returns inside literals return from the literal,
	// not from fn).
	seen := map[types.Object]bool{}
	var walkReturns func(n ast.Node) bool
	walkReturns = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				obj := channelObject(pass, res)
				if obj == nil {
					// Returning a fresh or non-local channel expression:
					// nothing in this function can ever close it.
					if t := pass.Pkg.Info.TypeOf(res); t != nil {
						if ch, ok := t.Underlying().(*types.Chan); ok && ch.Dir() != types.SendOnly {
							pass.Reportf(res.Pos(), "%s returns a channel that is never closed; the producing goroutine must close it so callers ranging over it terminate", fn.Name.Name)
						}
					}
					continue
				}
				if seen[obj] {
					continue
				}
				seen[obj] = true
				if len(sites[obj]) == 0 {
					pass.Reportf(n.Pos(), "%s returns channel %s but never closes it; the producing goroutine must close it so callers ranging over it terminate", fn.Name.Name, obj.Name())
				}
			}
		}
		return true
	}
	ast.Inspect(fn.Body, walkReturns)
}
