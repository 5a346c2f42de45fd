package csp

import (
	"context"
	"testing"

	"tableseg/internal/token"
)

// Test shims over the context-first solver entry points: production
// code must thread a caller's context (enforced by tableseglint), but
// table-driven tests have none to thread, and an uncancellable
// background context can never surface an error from the WSAT loop.

func solveWSAT(p *Problem, params WSATParams) *Solution {
	sol, err := SolveWSATContext(context.Background(), p, params)
	if err != nil {
		panic(err)
	}
	return sol
}

func solveSegmentation(in SegmentInput, params SolveParams) *SegmentResult {
	res, err := SolveSegmentationContext(context.Background(), in, params)
	if err != nil {
		panic(err)
	}
	return res
}

func solveExact(p *Problem) ([]bool, bool, error) {
	return SolveExact(context.Background(), p)
}

func assignColumns(t *testing.T, records []int, types []token.Type, params WSATParams) []int {
	t.Helper()
	cols, _, _, err := AssignColumns(context.Background(), records, types, params)
	if err != nil {
		t.Fatal(err)
	}
	return cols
}
