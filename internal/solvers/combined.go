package solvers

import (
	"context"

	"tableseg/internal/csp"
	"tableseg/internal/phmm"
	"tableseg/internal/stage"
)

// Combined is the paper's combination method: trust the CSP only when
// the strict constraints hold; any inconsistency hands the page to the
// probabilistic model. Its Result carries the strict CSP outcome and,
// when the fallback fired, the PHMM's as well.
type Combined struct {
	CSP  csp.SolveParams
	PHMM phmm.Params
	// Columns enables §6.3 CSP column assignment on the CSP path.
	Columns bool
}

// Solve implements Solver.
func (s *Combined) Solve(ctx context.Context, p *stage.Problem) (*Result, error) {
	res := newResult(len(p.Candidates))
	params := s.CSP
	params.NoRelax = true
	if err := res.solveCSP(ctx, p, params, csp.SolveSegmentationContext); err != nil {
		return nil, err
	}
	if res.CSP.Status == csp.Solved {
		copy(res.Records, res.CSP.Records)
		if err := res.assignColumns(ctx, s.Columns, p, s.CSP.WSAT); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := res.solvePHMM(ctx, p, s.PHMM); err != nil {
		return nil, err
	}
	return res, nil
}
