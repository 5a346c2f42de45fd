package analysis

import (
	"go/ast"
	"go/types"

	"tableseg/internal/analysis/callgraph"
)

// CtxFlow returns the interprocedural context-threading analyzer. It
// is ctxdiscipline's missing half: ctxdiscipline checks signatures (an
// entry point must accept a context) while ctxflow checks that the
// accepted context actually reaches the work — in the serving and
// solver packages, a function holding a context.Context must pass a
// context derived from it into every call whose interprocedural
// summary says the callee may park indefinitely (channel operations,
// WaitGroup joins, solver invocations, transitively through helpers),
// and may not call bare time.Sleep, which no context interrupts.
//
// Only cancellation-relevant parking counts: acquiring a mutex inside
// a short critical-section helper does not require a context. Direct
// channel operations in the function's own body are likewise out of
// scope here — goroleak and chancontract already govern them, and a
// select on ctx.Done is the normal way to thread a context into one.
//
// When the offending callee is itself in a ctxflow-scoped package and
// merely fails to propagate the context onward, the finding is
// reported at the callee's own definition (by its package's run), not
// at every caller.
func CtxFlow() *Analyzer {
	a := &Analyzer{
		Name: "ctxflow",
		Doc:  "require a held context.Context to reach every may-block callee; forbid bare time.Sleep with a context in hand",
	}
	a.Run = func(pass *Pass) {
		if !matchesAny(pass.Pkg.Path, pass.Cfg.CtxFlowPkgs) {
			return
		}
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
				if node == nil {
					continue
				}
				sum := &node.Summary
				if !sum.HasCtx {
					continue
				}
				for _, issue := range sum.CtxIssues {
					reportCtxIssue(pass, fd.Name.Name, issue)
				}
			}
		}
	}
	return a
}

// reportCtxIssue renders one threading failure.
func reportCtxIssue(pass *Pass, fnName string, issue callgraph.CtxIssue) {
	switch issue.Kind {
	case callgraph.CtxSevered:
		pass.Reportf(issue.Site.Pos(),
			"%s holds a context but calls %s, which may block (%s) and accepts no context; cancellation cannot reach it",
			fnName, issue.Callee, issue.What)
	case callgraph.CtxDropped:
		pass.Reportf(issue.Site.Pos(),
			"%s drops its context: the call to %s may block (%s) but receives no context derived from %s's parameter",
			fnName, issue.Callee, issue.What, fnName)
	case callgraph.CtxUnthreaded:
		// In-scope callees report this at their own definition.
		if matchesAny(issue.CalleePath, pass.Cfg.CtxFlowPkgs) {
			return
		}
		pass.Reportf(issue.Site.Pos(),
			"%s passes its context to %s, but the callee does not thread it into its blocking work (%s)",
			fnName, issue.Callee, issue.What)
	case callgraph.CtxSleep:
		pass.Reportf(issue.Site.Pos(),
			"%s holds a context but parks in bare time.Sleep; use a timer select with ctx.Done so cancellation interrupts the wait",
			fnName)
	}
}
