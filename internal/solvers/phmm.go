package solvers

import (
	"context"
	"fmt"

	"tableseg/internal/phmm"
	"tableseg/internal/stage"
)

// PHMM is the §5 probabilistic solver: a factored hidden Markov model
// fit with EM, decoded with Viterbi for the MAP segmentation, column
// labels and per-extract posterior confidence.
type PHMM struct {
	Params phmm.Params
}

// Solve implements Solver.
func (s *PHMM) Solve(ctx context.Context, p *stage.Problem) (*Result, error) {
	res := newResult(len(p.Candidates))
	if err := res.solvePHMM(ctx, p, s.Params); err != nil {
		return nil, err
	}
	return res, nil
}

// solvePHMM runs one PHMM segmentation solve, keeping its outcome in
// res.PHMM and writing the records, columns, confidence and counters.
func (res *Result) solvePHMM(ctx context.Context, p *stage.Problem, params phmm.Params) error {
	inst := phmm.Instance{
		NumRecords: p.NumRecords,
		Candidates: p.Candidates,
		TypeVecs:   p.TypeVecs,
	}
	out, err := phmm.SegmentContext(ctx, inst, params)
	if err != nil {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		return fmt.Errorf("solvers: probabilistic segmentation: %w", err)
	}
	res.Counters.Add(stage.Counters{EMIters: out.Iters})
	res.PHMM = out
	copy(res.Records, out.Records)
	copy(res.Columns, out.Columns)
	copy(res.Confidence, out.Confidence)
	return nil
}
