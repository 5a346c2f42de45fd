// Package solvers runs the repository's segmentation algorithms over
// the stage graph's Problem: it is the single seam joining the
// algorithm packages (internal/csp, internal/phmm) to the
// algorithm-agnostic stage graph. internal/stage never imports an
// algorithm, and the algorithm packages never import the stages;
// anything that wants a solver by name calls New.
//
// The solvers:
//
//	csp            the §4 constraint-satisfaction method (WSAT(OIP)
//	               local search with the §6.3 relaxation ladder)
//	probabilistic  the §5 factored-HMM method (EM + MAP decode)
//	combined       the §7 combination: CSP where the strict
//	               constraints hold, probabilistic otherwise
//	exact          complete DFS over the strict encoding with lazy
//	               consecutiveness repair (certifies UNSAT)
//	greedy         evidence baseline: first-fit monotone assignment
//	               to each extract's earliest usable candidate
//	uniform        layout baseline: equal consecutive runs, ignoring
//	               detail-page evidence entirely
package solvers

import (
	"context"
	"fmt"
	"sort"

	"tableseg/internal/csp"
	"tableseg/internal/phmm"
	"tableseg/internal/stage"
)

// Solver is the single interface every segmentation algorithm
// implements: given a Problem, produce a Result. Implementations must
// be deterministic for a fixed Problem and configuration (any
// randomness seeded per solve), must honor ctx at their natural
// boundaries (restarts, iterations), and may not mutate the Problem.
type Solver interface {
	// Solve segments the problem. On context cancellation it returns
	// ctx.Err() (possibly wrapped) promptly.
	Solve(ctx context.Context, p *stage.Problem) (*Result, error)
}

// Result is a solver's outcome: the Segment stage's Assignment plus
// the result of each algorithm that ran, nil when it did not run.
type Result struct {
	stage.Assignment
	// CSP is the constraint solve's outcome (csp, exact, combined).
	CSP *csp.SegmentResult
	// PHMM is the probabilistic model's fit and decode (probabilistic,
	// and combined when the strict CSP failed).
	PHMM *phmm.Result
}

// Config parameterizes the solvers New builds.
type Config struct {
	// CSP configures the constraint solvers (csp, combined, exact).
	CSP csp.SolveParams
	// PHMM configures the probabilistic model (probabilistic,
	// combined).
	PHMM phmm.Params
	// CSPColumns enables §6.3's CSP-based column extraction after a
	// successful record segmentation (csp, combined, exact).
	CSPColumns bool
}

// constructors maps each solver name to the function building it.
var constructors = map[string]func(Config) Solver{
	"csp":           func(c Config) Solver { return &CSP{Params: c.CSP, Columns: c.CSPColumns} },
	"probabilistic": func(c Config) Solver { return &PHMM{Params: c.PHMM} },
	"combined":      func(c Config) Solver { return &Combined{CSP: c.CSP, PHMM: c.PHMM, Columns: c.CSPColumns} },
	"exact":         func(c Config) Solver { return &Exact{Params: c.CSP, Columns: c.CSPColumns} },
	"greedy":        func(Config) Solver { return Greedy{} },
	"uniform":       func(Config) Solver { return Uniform{} },
}

// New builds the named solver with the given configuration (the zero
// Config selects each algorithm's defaults).
func New(name string, c Config) (Solver, error) {
	build, ok := constructors[name]
	if !ok {
		return nil, fmt.Errorf("solvers: unknown solver %q (known: %v)", name, Names())
	}
	return build(c), nil
}

// Names lists the solver names New accepts, sorted.
func Names() []string {
	names := make([]string, 0, len(constructors))
	for name := range constructors {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// newResult returns a Result with n slots: records zeroed for the
// solver to fill, columns and confidence at their -1 "unavailable"
// defaults.
func newResult(n int) *Result {
	res := &Result{Assignment: stage.Assignment{
		Records:    make([]int, n),
		Columns:    make([]int, n),
		Confidence: make([]float64, n),
	}}
	for i := 0; i < n; i++ {
		res.Columns[i] = -1
		res.Confidence[i] = -1
	}
	return res
}
