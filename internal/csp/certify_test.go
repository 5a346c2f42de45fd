package csp

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
)

// mixedInstance is a planted instance (nVars ≥ 4: plantInstance draws
// up to four distinct variables per constraint) with random weighted soft
// constraints on top. A third of them also get an unplanted hard
// constraint, which may make the instance unsatisfiable.
func mixedInstance(rng *rand.Rand, nVars int) *Problem {
	p, _ := plantInstance(rng, nVars, 2+rng.Intn(nVars))
	if rng.Intn(3) == 0 {
		v, w := rng.Intn(nVars), rng.Intn(nVars)
		p.AddHard([]Term{{1, v}, {1, w}}, Op(rng.Intn(3)), rng.Intn(3), "extra")
	}
	for c := 0; c < 2+rng.Intn(2*nVars); c++ {
		k := 1 + rng.Intn(3)
		terms := make([]Term, 0, k)
		for j := 0; j < k; j++ {
			coef := 1
			if rng.Intn(3) == 0 {
				coef = -1
			}
			terms = append(terms, Term{coef, rng.Intn(nVars)})
		}
		p.AddSoft(terms, Op(rng.Intn(3)), rng.Intn(3)-1, 1+rng.Intn(4), "soft")
	}
	return p
}

// The bounded exact search must agree with brute force: an assignment
// it returns is feasible and below the bound, and it reports "nothing
// below u" only when brute force finds nothing below u either (UNSAT
// being the case u = noBound). A search cut short by its budget must
// say so, never claim a proof.
func TestSolveExactBelowAgreesWithBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	proved, found, limited, unsat := 0, 0, 0, 0
	for trial := 0; trial < 150; trial++ {
		p := mixedInstance(rng, 4+rng.Intn(9))
		opt, count := bruteForceOptimum(p)
		feasible := count > 0
		if !feasible {
			unsat++
		}
		for _, u := range []int{noBound, opt + 1, opt, opt - 1, rng.Intn(8)} {
			for _, budget := range []int{2_000_000, 1 + rng.Intn(20)} {
				assign, ok, err := solveExactBelow(ctx, p, budget, u)
				switch {
				case errors.Is(err, ErrSearchLimit):
					limited++
				case err != nil:
					t.Fatalf("trial %d: %v", trial, err)
				case ok:
					found++
					hv, sp, _ := p.Eval(assign)
					if hv != 0 || sp >= u {
						t.Fatalf("trial %d, bound %d: returned hard %d, soft %d", trial, u, hv, sp)
					}
				default:
					proved++
					if feasible && opt < u {
						t.Fatalf("trial %d: proved nothing below %d, brute force has %d", trial, u, opt)
					}
				}
				if budget == 2_000_000 && err != nil {
					t.Fatalf("trial %d: full budget ran out: %v", trial, err)
				}
			}
		}
	}
	t.Logf("proved %d, found %d, limited %d, unsat instances %d", proved, found, limited, unsat)
	if proved == 0 || found == 0 || limited == 0 || unsat == 0 {
		t.Errorf("weak coverage: proved %d, found %d, limited %d, unsat instances %d", proved, found, limited, unsat)
	}
}

// aboveHardWeightTrap has a single feasible assignment, x = y = 1,
// with soft penalty 4, while the infeasible x = y = 0 scores 2 under
// HardWeight 1. Both one-flip neighbours of x = y = 1 score 5, so a
// one-flip restart that starts there keeps a feasible best above
// HardWeight, which a later restart can still replace.
func aboveHardWeightTrap() *Problem {
	p := NewProblem()
	x, y := p.AddVar(), p.AddVar()
	p.AddHard([]Term{{1, x}, {1, y}}, GE, 2, "h")
	p.AddSoft([]Term{{1, x}, {1, y}}, LE, 0, 2, "none")
	p.AddSoft([]Term{{1, x}, {-1, y}}, EQ, 0, 2, "same")
	return p
}

// The early stop must never change what WSAT returns: with and without
// it, a feasible result has the same Assign, SoftPenalty and Restart,
// an infeasible one stays infeasible, and the early stop never runs
// more restarts. The suite mixes small flip budgets (so restart 0
// often misses the optimum), a low HardWeight (so the optimum can
// exceed it) and aboveHardWeightTrap.
func TestEarlyStopMatchesFullRun(t *testing.T) {
	type instance struct {
		p      *Problem
		params WSATParams
	}
	rng := rand.New(rand.NewSource(23))
	var suite []instance
	for trial := 0; trial < 160; trial++ {
		params := WSATParams{
			Seed:     int64(trial),
			MaxFlips: []int{5, 40, 0}[rng.Intn(3)],
		}
		if trial%4 == 0 {
			params.HardWeight = 1 + rng.Intn(3)
		}
		suite = append(suite, instance{mixedInstance(rng, 4+rng.Intn(16)), params})
	}
	for seed := int64(0); seed < 16; seed++ {
		suite = append(suite, instance{aboveHardWeightTrap(), WSATParams{Seed: seed, MaxFlips: 1, HardWeight: 1}})
	}
	ctx := context.Background()
	stopped, aboveHardWeight, infeasible := 0, 0, 0
	for trial, in := range suite {
		p, params := in.p, in.params
		full, err := runWSAT(ctx, p, params, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		early, err := runWSAT(ctx, p, params, certNodes, 0)
		if err != nil {
			t.Fatal(err)
		}
		if early.Feasible != full.Feasible {
			t.Fatalf("trial %d: feasible %v with early stop, %v without", trial, early.Feasible, full.Feasible)
		}
		if early.Restarts > full.Restarts {
			t.Fatalf("trial %d: %d restarts with early stop, %d without", trial, early.Restarts, full.Restarts)
		}
		if early.Restarts < full.Restarts {
			stopped++
		}
		if !full.Feasible {
			infeasible++
			continue
		}
		if full.SoftPenalty > params.withDefaults(p.NumVars()).HardWeight {
			aboveHardWeight++
		}
		if !reflect.DeepEqual(early.Assign, full.Assign) || early.SoftPenalty != full.SoftPenalty ||
			early.HardViolation != full.HardViolation || early.Restart != full.Restart {
			t.Fatalf("trial %d: early stop changed the result:\n early %+v\n full  %+v", trial, early, full)
		}
	}
	t.Logf("stopped early %d, optimum above HardWeight %d, infeasible %d", stopped, aboveHardWeight, infeasible)
	if stopped == 0 || aboveHardWeight == 0 || infeasible == 0 {
		t.Errorf("weak coverage: stopped early %d, optimum above HardWeight %d, infeasible %d", stopped, aboveHardWeight, infeasible)
	}
}
