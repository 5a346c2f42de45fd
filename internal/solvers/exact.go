package solvers

import (
	"context"
	"fmt"

	"tableseg/internal/csp"
	"tableseg/internal/stage"
)

// Exact is a complete solver over the strict encoding: depth-first
// search with bounds propagation, plus the same lazy consecutiveness
// repair the local-search pipeline uses. Unlike WSAT it certifies
// unsatisfiability, so a Failed outcome is a proof or exhausted cut
// rounds, not a timeout; it never relaxes. Intended for validating the
// local-search solvers on small instances and for the UNSAT side of
// Table 2's "no solution" rows.
type Exact struct {
	Params csp.SolveParams
	// Columns enables §6.3 CSP column assignment after segmentation.
	Columns bool
}

// Solve implements Solver. It runs csp.SolveSegmentationExact, the
// strict rung of the CSP pipeline with the exact search in place of
// WSAT; a Failed status marks the Result Exhausted.
func (s *Exact) Solve(ctx context.Context, p *stage.Problem) (*Result, error) {
	res := newResult(len(p.Candidates))
	if err := res.solveCSP(ctx, p, s.Params, csp.SolveSegmentationExact); err != nil {
		return nil, fmt.Errorf("solvers: exact segmentation: %w", err)
	}
	if res.CSP.Status == csp.Failed {
		res.Exhausted = true
		return res, nil
	}
	copy(res.Records, res.CSP.Records)
	if err := res.assignColumns(ctx, s.Columns, p, s.Params.WSAT); err != nil {
		return nil, err
	}
	return res, nil
}
