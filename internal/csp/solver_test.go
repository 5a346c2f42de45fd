package csp

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// plantInstance builds a random problem guaranteed satisfiable by
// constructing constraints consistent with a hidden planted assignment.
func plantInstance(rng *rand.Rand, nVars, nCons int) (*Problem, []bool) {
	p := NewProblem()
	hidden := make([]bool, nVars)
	for i := 0; i < nVars; i++ {
		p.AddVar("")
		hidden[i] = rng.Intn(2) == 1
	}
	for c := 0; c < nCons; c++ {
		k := rng.Intn(4) + 1
		terms := make([]Term, 0, k)
		lhs := 0
		seen := map[int]bool{}
		for len(terms) < k {
			v := rng.Intn(nVars)
			if seen[v] {
				continue
			}
			seen[v] = true
			coef := rng.Intn(3) - 1
			if coef == 0 {
				coef = 1
			}
			terms = append(terms, Term{coef, v})
			if hidden[v] {
				lhs += coef
			}
		}
		switch rng.Intn(3) {
		case 0:
			p.AddHard(terms, EQ, lhs, "plant")
		case 1:
			p.AddHard(terms, LE, lhs+rng.Intn(2), "plant")
		default:
			p.AddHard(terms, GE, lhs-rng.Intn(2), "plant")
		}
	}
	return p, hidden
}

func TestWSATSolvesPlantedInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 40; trial++ {
		p, _ := plantInstance(rng, 10+rng.Intn(20), 10+rng.Intn(30))
		sol := solveWSAT(p, WSATParams{Seed: int64(trial)})
		if !sol.Feasible {
			t.Errorf("trial %d: WSAT failed a satisfiable instance (hard violation %d)", trial, sol.HardViolation)
		} else if !p.Feasible(sol.Assign) {
			t.Errorf("trial %d: solver claims feasible but assignment violates constraints", trial)
		}
	}
}

func TestWSATDeterministicForSeed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	p, _ := plantInstance(rng, 15, 20)
	a := solveWSAT(p, WSATParams{Seed: 42})
	b := solveWSAT(p, WSATParams{Seed: 42})
	if len(a.Assign) != len(b.Assign) {
		t.Fatal("lengths differ")
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatal("same seed produced different assignments")
		}
	}
}

func TestWSATSoftObjective(t *testing.T) {
	// One hard constraint a+b ≤ 1, soft preferences for both: solver
	// must satisfy the hard one and exactly one soft.
	p := NewProblem()
	a, b := p.AddVar("a"), p.AddVar("b")
	p.AddHard([]Term{{1, a}, {1, b}}, LE, 1, "h")
	p.AddSoft([]Term{{1, a}}, GE, 1, 1, "sa")
	p.AddSoft([]Term{{1, b}}, GE, 1, 1, "sb")
	sol := solveWSAT(p, WSATParams{Seed: 1})
	if !sol.Feasible {
		t.Fatal("infeasible")
	}
	if sol.SoftPenalty != 1 {
		t.Errorf("soft penalty = %d, want 1 (exactly one preference satisfiable)", sol.SoftPenalty)
	}
	if sol.Assign[a] == sol.Assign[b] {
		t.Errorf("want exactly one of a,b true: %v %v", sol.Assign[a], sol.Assign[b])
	}
}

func TestWSATInfeasibleReportsViolation(t *testing.T) {
	p := NewProblem()
	a := p.AddVar("a")
	p.AddHard([]Term{{1, a}}, EQ, 1, "h1")
	p.AddHard([]Term{{1, a}}, EQ, 0, "h2")
	sol := solveWSAT(p, WSATParams{Seed: 1, MaxFlips: 200, Restarts: 2})
	if sol.Feasible {
		t.Error("claims feasible on contradictory constraints")
	}
	if sol.HardViolation < 1 {
		t.Errorf("hard violation = %d", sol.HardViolation)
	}
}

func TestExactSolvesAndCertifiesUNSAT(t *testing.T) {
	// Satisfiable.
	p := NewProblem()
	a, b, c := p.AddVar("a"), p.AddVar("b"), p.AddVar("c")
	p.AddHard([]Term{{1, a}, {1, b}, {1, c}}, EQ, 2, "")
	p.AddHard([]Term{{1, a}, {1, b}}, LE, 1, "")
	assign, sat, err := solveExact(p, ExactParams{})
	if err != nil || !sat {
		t.Fatalf("sat=%v err=%v", sat, err)
	}
	if !p.Feasible(assign) {
		t.Error("exact solution infeasible")
	}
	if !assign[c] {
		t.Error("c must be true (a+b≤1 and sum=2 forces c)")
	}

	// Unsatisfiable.
	q := NewProblem()
	x, y := q.AddVar("x"), q.AddVar("y")
	q.AddHard([]Term{{1, x}, {1, y}}, GE, 2, "")
	q.AddHard([]Term{{1, x}, {1, y}}, LE, 1, "")
	_, sat, err = solveExact(q, ExactParams{})
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Error("UNSAT instance reported satisfiable")
	}
}

// bruteForce enumerates all assignments (n ≤ 16) and reports whether any
// satisfies the hard constraints.
func bruteForce(p *Problem) ([]bool, bool) {
	n := p.NumVars()
	assign := make([]bool, n)
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			assign[i] = mask&(1<<i) != 0
		}
		if p.Feasible(assign) {
			out := make([]bool, n)
			copy(out, assign)
			return out, true
		}
	}
	return nil, false
}

// The exact solver must agree with brute force on random small instances
// (both satisfiable and unsatisfiable ones).
func TestExactAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	satSeen, unsatSeen := 0, 0
	for trial := 0; trial < 120; trial++ {
		nv := 3 + rng.Intn(8)
		p := NewProblem()
		for i := 0; i < nv; i++ {
			p.AddVar("")
		}
		nc := 2 + rng.Intn(10)
		for c := 0; c < nc; c++ {
			k := 1 + rng.Intn(3)
			terms := make([]Term, 0, k)
			for j := 0; j < k; j++ {
				coef := rng.Intn(3) - 1
				if coef == 0 {
					coef = 1
				}
				terms = append(terms, Term{coef, rng.Intn(nv)})
			}
			rhs := rng.Intn(3) - 1
			p.AddHard(terms, Op(rng.Intn(3)), rhs, "")
		}
		_, wantSat := bruteForce(p)
		got, gotSat, err := solveExact(p, ExactParams{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if gotSat != wantSat {
			t.Fatalf("trial %d: exact=%v brute=%v", trial, gotSat, wantSat)
		}
		if gotSat {
			satSeen++
			if !p.Feasible(got) {
				t.Fatalf("trial %d: exact returned infeasible assignment", trial)
			}
		} else {
			unsatSeen++
		}
	}
	if satSeen == 0 || unsatSeen == 0 {
		t.Errorf("weak test coverage: sat=%d unsat=%d", satSeen, unsatSeen)
	}
}

// Property: whenever WSAT reports feasible, the assignment really
// satisfies every hard constraint.
func TestWSATFeasibilityIsSound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, _ := plantInstance(rng, 5+rng.Intn(10), 5+rng.Intn(15))
		sol := solveWSAT(p, WSATParams{Seed: seed, Restarts: 3, MaxFlips: 2000})
		if sol.Feasible {
			return p.Feasible(sol.Assign)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestExactNodeLimit(t *testing.T) {
	// A hard pigeonhole-style instance with a 1-node budget must report
	// the limit error rather than a wrong answer.
	p := NewProblem()
	var vars []int
	for i := 0; i < 12; i++ {
		vars = append(vars, p.AddVar(""))
	}
	terms := make([]Term, len(vars))
	for i, v := range vars {
		terms[i] = Term{1, v}
	}
	p.AddHard(terms, EQ, 6, "")
	_, _, err := solveExact(p, ExactParams{MaxNodes: 1})
	if err != ErrSearchLimit {
		t.Errorf("err = %v, want ErrSearchLimit", err)
	}
}

// bruteForceOptimum finds the minimum weighted soft penalty among
// hard-feasible assignments (n <= 16).
func bruteForceOptimum(p *Problem) (int, bool) {
	n := p.NumVars()
	assign := make([]bool, n)
	best, found := 1<<30, false
	for mask := 0; mask < 1<<n; mask++ {
		for i := 0; i < n; i++ {
			assign[i] = mask&(1<<i) != 0
		}
		hv, sp, _ := p.Eval(assign)
		if hv != 0 {
			continue
		}
		found = true
		if sp < best {
			best = sp
		}
	}
	return best, found
}

// WSAT must reach the brute-force-optimal soft penalty on small
// weighted instances (it is an optimizer, not just a satisfier).
func TestWSATReachesSoftOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 40; trial++ {
		nv := 3 + rng.Intn(7)
		p := NewProblem()
		for i := 0; i < nv; i++ {
			p.AddVar("")
		}
		// A few hard constraints from a planted assignment keep the
		// instance feasible.
		hidden := make([]bool, nv)
		for i := range hidden {
			hidden[i] = rng.Intn(2) == 1
		}
		for c := 0; c < 2+rng.Intn(3); c++ {
			k := 1 + rng.Intn(3)
			terms := make([]Term, 0, k)
			lhs := 0
			for j := 0; j < k; j++ {
				v := rng.Intn(nv)
				terms = append(terms, Term{1, v})
				if hidden[v] {
					lhs++
				}
			}
			p.AddHard(terms, LE, lhs+rng.Intn(2), "")
		}
		// Random soft constraints with varying weights.
		for c := 0; c < 3+rng.Intn(5); c++ {
			k := 1 + rng.Intn(3)
			terms := make([]Term, 0, k)
			for j := 0; j < k; j++ {
				coef := 1
				if rng.Intn(3) == 0 {
					coef = -1
				}
				terms = append(terms, Term{coef, rng.Intn(nv)})
			}
			p.AddSoft(terms, Op(rng.Intn(3)), rng.Intn(3)-1, 1+rng.Intn(4), "")
		}
		wantOpt, feasible := bruteForceOptimum(p)
		if !feasible {
			continue
		}
		sol := solveWSAT(p, WSATParams{Seed: int64(trial), Restarts: 12, MaxFlips: 6000})
		if !sol.Feasible {
			t.Fatalf("trial %d: feasible instance unsolved", trial)
		}
		if sol.SoftPenalty != wantOpt {
			t.Errorf("trial %d: soft penalty %d, optimum %d", trial, sol.SoftPenalty, wantOpt)
		}
	}
}

// High noise degrades efficiency, not soundness.
func TestWSATHighNoiseStillSolves(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	p, _ := plantInstance(rng, 8, 10)
	sol := solveWSAT(p, WSATParams{Seed: 2, Noise: 0.9, Restarts: 20, MaxFlips: 20000})
	if !sol.Feasible {
		t.Error("high-noise search failed a small satisfiable instance")
	}
}

// A long tabu tenure must not wedge the search (aspiration allows
// improving flips through the tabu list).
func TestWSATLongTabu(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	p, _ := plantInstance(rng, 10, 12)
	sol := solveWSAT(p, WSATParams{Seed: 3, TabuTenure: 50, Restarts: 10, MaxFlips: 10000})
	if !sol.Feasible {
		t.Error("long-tabu search failed a small satisfiable instance")
	}
}

// Dynamic weights must preserve soundness and optimality on the same
// weighted suite as the static search.
func TestWSATDynamicWeightsSound(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 25; trial++ {
		p, _ := plantInstance(rng, 10+rng.Intn(10), 10+rng.Intn(20))
		sol := solveWSAT(p, WSATParams{Seed: int64(trial), DynamicWeights: true})
		if !sol.Feasible {
			t.Errorf("trial %d: dynamic-weight search failed a satisfiable instance", trial)
		} else if !p.Feasible(sol.Assign) {
			t.Errorf("trial %d: claimed-feasible assignment violates constraints", trial)
		}
	}
}

// The reported solution quality must be the true objective, never the
// reshaped score (dynamic weights inflate the internal score only).
func TestWSATDynamicWeightsReportTrueScore(t *testing.T) {
	p := NewProblem()
	a, b := p.AddVar("a"), p.AddVar("b")
	p.AddHard([]Term{{1, a}, {1, b}}, LE, 1, "h")
	p.AddSoft([]Term{{1, a}}, GE, 1, 2, "sa")
	p.AddSoft([]Term{{1, b}}, GE, 1, 2, "sb")
	sol := solveWSAT(p, WSATParams{Seed: 9, DynamicWeights: true, StagnationWindow: 4})
	if !sol.Feasible || sol.SoftPenalty != 2 {
		t.Errorf("feasible=%v soft=%d, want feasible with soft 2", sol.Feasible, sol.SoftPenalty)
	}
	hv, sp, _ := p.Eval(sol.Assign)
	if hv != 0 || sp != sol.SoftPenalty {
		t.Errorf("reported (0,%d) but re-eval gives (%d,%d)", sol.SoftPenalty, hv, sp)
	}
}

// Flips counts the flips performed, not the flip budget: a one-variable
// instance needs at most one flip from either start, and a planted
// instance solved in its first restart stops short of MaxFlips.
func TestWSATFlipsCountsPerformedFlips(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x")
	p.AddHard([]Term{{1, x}}, GE, 1, "h")
	flipped := 0
	for seed := int64(0); seed < 8; seed++ {
		sol := solveWSAT(p, WSATParams{Seed: seed})
		if !sol.Feasible || sol.Restarts != 1 {
			t.Fatalf("seed %d: feasible %v after %d restarts", seed, sol.Feasible, sol.Restarts)
		}
		if sol.Flips > 1 {
			t.Errorf("seed %d: Flips = %d, want at most 1", seed, sol.Flips)
		}
		flipped += sol.Flips
	}
	if flipped == 0 {
		t.Error("every seed started at x = 1, so no flip was counted")
	}

	rng := rand.New(rand.NewSource(3))
	planted, _ := plantInstance(rng, 20, 30)
	params := WSATParams{Seed: 1, MaxFlips: 6000}
	sol := solveWSAT(planted, params)
	if !sol.Feasible || sol.Restarts != 1 {
		t.Fatalf("planted instance: feasible %v after %d restarts", sol.Feasible, sol.Restarts)
	}
	if sol.Flips == 0 || sol.Flips >= params.MaxFlips {
		t.Errorf("planted instance: Flips = %d, want between 1 and %d", sol.Flips, params.MaxFlips-1)
	}
}
