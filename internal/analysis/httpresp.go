package analysis

import (
	"go/ast"
	"go/types"

	"tableseg/internal/analysis/callgraph"
	"tableseg/internal/analysis/cfg"
)

// HTTPResp returns the handler-contract analyzer for the daemon's
// serving path. For every handler-shaped function (one taking both an
// http.ResponseWriter and a *http.Request) it enforces three
// invariants over the control-flow graph, using the call-graph
// summaries to see through response helpers like writeJSON/writeError:
//
//   - every path to the exit responds: each branch (error branches
//     included) writes the status or body, or calls something whose
//     summary proves it does — a handler that silently returns leaves
//     the client a 200 with an empty body it never chose;
//   - the status is written at most once per path: a second
//     WriteHeader (or http.Error after a write) is dropped by net/http
//     with a runtime warning, masking which status the client saw;
//   - headers are not mutated after the response starts: a
//     Header().Set after the first write is silently lost.
//
// Functions that merely take a ResponseWriter (response helpers) get
// the latter two path checks; the must-respond obligation applies only
// to handler-shaped functions, since a helper may legitimately handle
// half the job.
func HTTPResp() *Analyzer {
	a := &Analyzer{
		Name: "httpresp",
		Doc:  "require handlers to respond on every path, set the status at most once, and not mutate headers after the body starts",
	}
	a.Run = func(pass *Pass) {
		for _, f := range pass.Pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, _ := pass.Pkg.Info.Defs[fd.Name].(*types.Func)
				if fn == nil {
					continue
				}
				node := pass.Facts.NodeOf(fn)
				if node == nil || !node.Summary.HasRW {
					continue
				}
				checkHTTPResp(pass, fd, node)
			}
		}
	}
	return a
}

// respSite is one response-affecting call located in the CFG.
type respSite struct {
	ev    callgraph.RespondEvent
	block *cfg.Block
	idx   int
}

func checkHTTPResp(pass *Pass, fd *ast.FuncDecl, node *callgraph.Node) {
	sig, _ := node.Fn.Type().(*types.Signature)
	graph := cfg.New(fd.Body)
	events := node.RespondEvents()

	// Locate every event in the CFG. Events inside nested literals or
	// goroutines are not nodes of this graph and are skipped, matching
	// the summary's own shallow path analysis.
	var sites []respSite
	for _, blk := range graph.Blocks {
		for i, stmt := range blk.Nodes {
			inspectShallow(stmt, func(m ast.Node) bool {
				if call, ok := m.(*ast.CallExpr); ok {
					if ev, ok := events[call]; ok {
						sites = append(sites, respSite{ev: ev, block: blk, idx: i})
					}
				}
				return true
			})
		}
	}

	// Must-respond, for handler-shaped functions only.
	if callgraph.HandlerShaped(sig) && !node.Summary.RespondsAll {
		pass.Reportf(fd.Name.Pos(),
			"handler %s does not respond on every path: some branch returns without writing a response or delegating to something that does",
			fd.Name.Name)
	}

	// Status at most once per path, and no header mutation after the
	// response has started.
	for _, later := range sites {
		if !later.ev.Status && !later.ev.HeaderMut {
			continue
		}
		for _, earlier := range sites {
			if earlier.ev.Call == later.ev.Call || !earlier.ev.Respond {
				continue
			}
			if !precedes(graph, earlier, later) {
				continue
			}
			if later.ev.Status {
				pass.Reportf(later.ev.Call.Pos(),
					"status written twice on a path: %s follows %s; net/http drops the second status",
					later.ev.What, earlier.ev.What)
			} else {
				pass.Reportf(later.ev.Call.Pos(),
					"header mutated after the response started: %s follows %s and is silently lost",
					later.ev.What, earlier.ev.What)
			}
			break // one witness per offending site
		}
	}
}

// precedes reports whether a can execute before b on some path: same
// CFG node in source order, earlier in the same block, or in a block
// from which b's block is reachable.
func precedes(graph *cfg.Graph, a, b respSite) bool {
	if a.block == b.block {
		if a.idx != b.idx {
			return a.idx < b.idx
		}
		return a.ev.Call.Pos() < b.ev.Call.Pos()
	}
	seen := map[*cfg.Block]bool{}
	var walk func(blk *cfg.Block) bool
	walk = func(blk *cfg.Block) bool {
		if blk == b.block {
			return true
		}
		if seen[blk] {
			return false
		}
		seen[blk] = true
		for _, s := range blk.Succs {
			if walk(s) {
				return true
			}
		}
		return false
	}
	for _, s := range a.block.Succs {
		if walk(s) {
			return true
		}
	}
	// b later in a's own block is covered by the same-block case; a
	// back-edge from a's block to itself would be caught by Succs.
	return false
}
