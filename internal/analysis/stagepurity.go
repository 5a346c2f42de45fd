package analysis

import (
	"strconv"
)

// StagePurity returns the analyzer enforcing the stage-graph layering
// introduced with internal/stage: the stage package holds pure stage
// functions over artifact types and must stay algorithm-agnostic (no
// imports of the CSP, PHMM or baseline algorithm packages, nor of the
// solver packages that run them over the stage's Problem), and the
// solver adapter packages must depend only on the artifact types and
// their algorithm packages, never on the orchestration layer (core,
// engine, experiments). The rule keeps the dependency arrows
// one-directional — orchestration → stages ← solvers → algorithms — so
// a new solver can be added, and a stage reused, without linking in
// the rest of the pipeline.
func StagePurity() *Analyzer {
	a := &Analyzer{
		Name: "stagepurity",
		Doc:  "forbid algorithm imports in stage packages and orchestration imports in solver packages",
	}
	a.Run = func(pass *Pass) {
		var banned []string
		var why string
		switch {
		case matchesAny(pass.Pkg.Path, pass.Cfg.StagePkgs):
			banned = append(banned, pass.Cfg.AlgorithmPkgs...)
			banned = append(banned, pass.Cfg.SolverPkgs...)
			banned = append(banned, pass.Cfg.OrchestrationPkgs...)
			why = "stages are algorithm-agnostic; algorithms reach the Segment stage through internal/solvers"
		case matchesAny(pass.Pkg.Path, pass.Cfg.SolverPkgs):
			banned = pass.Cfg.OrchestrationPkgs
			why = "solvers depend only on the artifact types and their algorithm packages, never on orchestration"
		default:
			return
		}
		for _, f := range pass.Pkg.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if matchesAny(path, banned) {
					pass.Reportf(imp.Pos(), "package %s may not import %s: %s", pass.Pkg.Path, path, why)
				}
			}
		}
	}
	return a
}
