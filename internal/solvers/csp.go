package solvers

import (
	"context"

	"tableseg/internal/csp"
	"tableseg/internal/stage"
)

// CSP is the §4 constraint-satisfaction solver: WSAT(OIP) local search
// over the strict pseudo-boolean encoding, descending the §6.3
// relaxation ladder on failure.
type CSP struct {
	Params csp.SolveParams
	// Columns enables §6.3 CSP column assignment after segmentation.
	Columns bool
}

// Solve implements Solver. A Failed status after the full relaxation
// ladder means no feasible assignment exists at all; the returned
// Result is marked Exhausted and the orchestrator reports the typed
// unsatisfiability error. Under NoRelax or with repair disabled
// (negative MaxCutRounds) a failure is the outcome those ablation
// configurations ask to observe, so the assignment is returned as-is
// with the failure visible in Result.CSP.
func (s *CSP) Solve(ctx context.Context, p *stage.Problem) (*Result, error) {
	res := newResult(len(p.Candidates))
	if err := res.solveCSP(ctx, p, s.Params, csp.SolveSegmentationContext); err != nil {
		return nil, err
	}
	if res.CSP.Status == csp.Failed && !s.Params.NoRelax && s.Params.MaxCutRounds >= 0 {
		res.Exhausted = true
		return res, nil
	}
	copy(res.Records, res.CSP.Records)
	if err := res.assignColumns(ctx, s.Columns, p, s.Params.WSAT); err != nil {
		return nil, err
	}
	return res, nil
}

// solveCSP runs one CSP segmentation solve, keeping its outcome in
// res.CSP and adding its effort to the counters. The record copy is
// the caller's: failure handling differs per solver.
func (res *Result) solveCSP(ctx context.Context, p *stage.Problem, params csp.SolveParams,
	solve func(context.Context, csp.SegmentInput, csp.SolveParams) (*csp.SegmentResult, error)) error {
	sin := csp.SegmentInput{
		NumRecords:     p.NumRecords,
		Candidates:     p.Candidates,
		PositionGroups: p.PositionGroups,
	}
	out, err := solve(ctx, sin, params)
	if err != nil {
		return err
	}
	res.Counters.Add(stage.Counters{
		WSATRestarts: out.Restarts,
		WSATFlips:    out.Flips,
		CutRounds:    out.CutRounds,
	})
	res.CSP = out
	return nil
}

// assignColumns optionally runs §6.3 CSP column assignment over the
// solved records, writing into res.Columns and adding its WSAT effort
// to the counters.
func (res *Result) assignColumns(ctx context.Context, enabled bool, p *stage.Problem, params csp.WSATParams) error {
	if !enabled {
		return nil
	}
	cols, flips, restarts, err := csp.AssignColumns(ctx, res.Records, p.FirstTypes, params)
	if err != nil {
		return err
	}
	res.Counters.Add(stage.Counters{WSATRestarts: restarts, WSATFlips: flips})
	copy(res.Columns, cols)
	return nil
}
