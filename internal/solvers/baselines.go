package solvers

import (
	"context"

	"tableseg/internal/stage"
)

// Greedy is an evidence-only baseline: scan the extracts in stream
// order and assign each to the earliest candidate record that keeps
// the sequence monotone, or leave it unassigned when none remains. It
// honors the detail-page evidence but enforces none of the paper's
// uniqueness or position constraints — the gap between it and the CSP
// measures what the constraints buy.
type Greedy struct{}

// Solve implements Solver.
func (Greedy) Solve(ctx context.Context, p *stage.Problem) (*Result, error) {
	res := newResult(len(p.Candidates))
	cur := 0
	for i, cands := range p.Candidates {
		res.Records[i] = -1
		for _, r := range cands {
			if r >= cur {
				res.Records[i] = r
				cur = r
				break
			}
		}
	}
	return res, nil
}

// Uniform is a layout-only baseline: split the analyzed extracts into
// K equal consecutive runs, ignoring the detail-page evidence
// entirely. It is the "records are about the same size" prior with
// nothing else — the floor any evidence-driven method must beat.
type Uniform struct{}

// Solve implements Solver.
func (Uniform) Solve(ctx context.Context, p *stage.Problem) (*Result, error) {
	n := len(p.Candidates)
	res := newResult(n)
	if p.NumRecords <= 0 {
		for i := range res.Records {
			res.Records[i] = -1
		}
		return res, nil
	}
	per := (n + p.NumRecords - 1) / p.NumRecords // ceil(n/K)
	if per == 0 {
		per = 1
	}
	for i := 0; i < n; i++ {
		r := i / per
		if r >= p.NumRecords {
			r = p.NumRecords - 1
		}
		res.Records[i] = r
	}
	return res, nil
}
