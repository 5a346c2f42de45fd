package csp

import (
	"context"
	"errors"
	"testing"
	"time"
)

// unsatProblem is x >= 1 together with x <= 0: no assignment satisfies
// both hard constraints.
func unsatProblem() *Problem {
	p := NewProblem()
	x := p.AddVar()
	p.AddHard([]Term{{Coef: 1, Var: x}}, GE, 1, "uniq")
	p.AddHard([]Term{{Coef: 1, Var: x}}, LE, 0, "uniq")
	return p
}

// pigeonholeProblem asks for holes+1 pigeons in holes holes, each
// pigeon in exactly one hole and no two in the same: unsatisfiable,
// and bounds propagation cannot see it, so proving it takes the exact
// search far more than certNodes nodes and WSAT burns through every
// restart.
func pigeonholeProblem(holes int) *Problem {
	p := NewProblem()
	pigeons := holes + 1
	x := make([][]int, pigeons)
	for i := range x {
		x[i] = make([]int, holes)
		terms := make([]Term, holes)
		for h := range x[i] {
			x[i][h] = p.AddVar()
			terms[h] = Term{Coef: 1, Var: x[i][h]}
		}
		p.AddHard(terms, EQ, 1, "uniq")
	}
	for h := 0; h < holes; h++ {
		terms := make([]Term, pigeons)
		for i := range x {
			terms[i] = Term{Coef: 1, Var: x[i][h]}
		}
		p.AddHard(terms, LE, 1, "pos")
	}
	return p
}

// TestSolveWSATContextCancelMidSolve proves a hopeless solve aborts
// promptly on cancellation instead of finishing its restart budget.
func TestSolveWSATContextCancelMidSolve(t *testing.T) {
	p := pigeonholeProblem(8)
	params := WSATParams{Restarts: 1 << 30, MaxFlips: 1000, Seed: 1}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	sol, err := SolveWSATContext(ctx, p, params)
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if sol != nil {
		t.Fatalf("expected nil solution on cancellation, got %+v", sol)
	}
	// Generous bound: a restart of 1,000 flips takes about a
	// millisecond, so anything near the 2^30-restart budget would run
	// for days. Seconds of slack absorb race-detector
	// overhead.
	if elapsed > 30*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestSolveWSATContextUncancelled verifies the context path returns the
// same solution as the legacy entry point for a fixed seed.
func TestSolveWSATContextUncancelled(t *testing.T) {
	p := pigeonholeProblem(8)
	if _, _, err := solveExactBelow(context.Background(), p, certNodes, noBound); !errors.Is(err, ErrSearchLimit) {
		t.Fatalf("exact search within the early stop's budget: err = %v, want ErrSearchLimit", err)
	}
	params := WSATParams{Restarts: 3, MaxFlips: 50, Seed: 7}
	want := solveWSAT(p, params)
	got, err := SolveWSATContext(context.Background(), p, params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Feasible != want.Feasible || got.Restarts != want.Restarts {
		t.Errorf("context solve diverged: %+v vs %+v", got, want)
	}
	if want.Restarts != 3 {
		t.Errorf("Restarts = %d, want 3 (unsat problem exhausts the budget)", want.Restarts)
	}
}

// TestSolveWSATStopsOnCertifiedUNSAT checks the early stop: the exact
// search proves unsatProblem unsatisfiable after the first restart, so
// the other seven never run, and the result is still infeasible.
func TestSolveWSATStopsOnCertifiedUNSAT(t *testing.T) {
	sol := solveWSAT(unsatProblem(), WSATParams{Restarts: 8, MaxFlips: 50, Seed: 7})
	if sol.Feasible {
		t.Fatal("claims feasible on contradictory constraints")
	}
	if sol.Restarts != 1 {
		t.Errorf("Restarts = %d, want 1 (UNSAT certified after restart 0)", sol.Restarts)
	}
}

// TestSolveSegmentationContextCancelled verifies the full segmentation
// solve surfaces ctx.Err().
func TestSolveSegmentationContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := SolveSegmentationContext(ctx, SegmentInput{}, SolveParams{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v (res %+v), want context.Canceled", err, res)
	}
}
