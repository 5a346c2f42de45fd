package csp

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// The reference below is the rung search this package had before each
// rung was settled by an exact search first: WSAT with its proof after
// the first restart, and only when WSAT found nothing on a small
// enough problem, SolveExact. searchWSAT must agree with it on
// Feasible, and on Assign, SoftPenalty and Restart when feasible, with
// never more flips or restarts; the ladder run through either must give
// the same records, status, relaxation and cut rounds.

// refSearchWSAT is the local-search rung: WSAT, and when it finds
// nothing on a small enough problem, the exact solver decides.
func refSearchWSAT(ctx context.Context, p *Problem, params SolveParams) (*Solution, error) {
	sol, err := SolveWSATContext(ctx, p, params.WSAT)
	if err != nil || sol.Feasible || p.NumVars() > exactVarLimit {
		return sol, err
	}
	exact, sat, err := SolveExact(ctx, p)
	switch {
	case err == nil && sat:
		return &Solution{Assign: exact, Feasible: true, Flips: sol.Flips, Restarts: sol.Restarts}, nil
	case err != nil && !errors.Is(err, ErrSearchLimit):
		return nil, err // context cancellation
	}
	return sol, nil // certified UNSAT, or the search gave up
}

// rungPaths counts which way searchWSAT settled the rungs it was
// compared on.
type rungPaths struct {
	unsat, floor, aboveHardWeight, limited, standIn, solveExact int
}

// checkRungSearch runs searchWSAT and refSearchWSAT on p and fails
// unless they agree, and returns the reference's solution.
func checkRungSearch(t testing.TB, name string, p *Problem, params SolveParams, paths *rungPaths) *Solution {
	t.Helper()
	ctx := context.Background()
	got, err := searchWSAT(ctx, p, params)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refSearchWSAT(ctx, p, params)
	if err != nil {
		t.Fatal(err)
	}
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: feasible %v, reference %v", name, got.Feasible, want.Feasible)
	}
	if got.Flips > want.Flips || got.Restarts > want.Restarts {
		t.Fatalf("%s: %d flips over %d restarts, reference %d over %d", name, got.Flips, got.Restarts, want.Flips, want.Restarts)
	}
	if got.Feasible && (!reflect.DeepEqual(got.Assign, want.Assign) || got.SoftPenalty != want.SoftPenalty ||
		got.HardViolation != 0 || got.Restart != want.Restart) {
		t.Fatalf("%s: the search changed the result:\n got       %+v\n reference %+v", name, got, want)
	}
	if got.Feasible && !p.Feasible(got.Assign) {
		t.Fatalf("%s: infeasible assignment reported feasible", name)
	}
	first, opt, err := exactOptimum(ctx, p, certNodes)
	wsat := SolveWSATContext
	switch {
	case err != nil:
		paths.limited++
	case first == nil:
		paths.unsat++
		return want
	case opt > params.WSAT.withDefaults(p.NumVars()).HardWeight:
		paths.aboveHardWeight++
	default:
		paths.floor++
		wsat = func(ctx context.Context, p *Problem, params WSATParams) (*Solution, error) {
			return runWSAT(ctx, p, params, 0, opt)
		}
	}
	if sol, err := wsat(ctx, p, params.WSAT); err != nil {
		t.Fatal(err)
	} else if got.Feasible && !sol.Feasible {
		if first != nil {
			paths.standIn++
		} else {
			paths.solveExact++
		}
	}
	return want
}

// trapdoorProblem is satisfiable, but only with z = 0. z occurs in the
// most hard constraints, so the exact search branches on it first and
// tries z = 1, which turns the rest into pigeonholeProblem(holes): the
// search runs out of certNodes nodes before its first assignment.
func trapdoorProblem(holes int) *Problem {
	p := NewProblem()
	z := p.AddVar()
	pigeons := holes + 1
	x := make([][]int, pigeons)
	for i := range x {
		x[i] = make([]int, holes)
		terms := []Term{{Coef: -1, Var: z}}
		for h := range x[i] {
			x[i][h] = p.AddVar()
			terms = append(terms, Term{Coef: 1, Var: x[i][h]})
		}
		p.AddHard(terms, EQ, 0, "uniq")
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

// Settling a rung by exact search first must not change what the rung
// search returns. The suite mixes small flip budgets (so WSAT often
// finds nothing and the exact search stands in), a low HardWeight (so
// the optimum can exceed it), aboveHardWeightTrap, problems whose
// settling search runs out of nodes, and every search of every rung
// and cut round of the ladder on the 24 Table 4 pages at generator
// seeds 42–45.
func TestRungSearchMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	var paths rungPaths
	for trial := 0; trial < 200; trial++ {
		params := WSATParams{
			Seed:     int64(trial),
			MaxFlips: []int{1, 5, 40, 0}[rng.Intn(4)],
		}
		if trial%4 == 0 {
			params.HardWeight = 1 + rng.Intn(3)
		}
		checkRungSearch(t, fmt.Sprintf("trial %d", trial), mixedInstance(rng, 4+rng.Intn(16)), SolveParams{WSAT: params}, &paths)
	}
	for seed := int64(0); seed < 16; seed++ {
		params := SolveParams{WSAT: WSATParams{Seed: seed, MaxFlips: 1, HardWeight: 1}}
		checkRungSearch(t, fmt.Sprintf("trap seed %d", seed), aboveHardWeightTrap(), params, &paths)
		params = SolveParams{WSAT: WSATParams{Seed: seed, MaxFlips: 1 + int(seed), Restarts: 2}}
		checkRungSearch(t, fmt.Sprintf("pigeonhole seed %d", seed), pigeonholeProblem(6), params, &paths)
		checkRungSearch(t, fmt.Sprintf("trapdoor seed %d", seed), trapdoorProblem(6), params, &paths)
	}
	ctx := context.Background()
	for _, seed := range []int64{42, 43, 44, 45} {
		for _, in := range table4SegmentInputs(t, seed) {
			round := 0
			compare := func(_ context.Context, p *Problem, params SolveParams) (*Solution, error) {
				round++
				return checkRungSearch(t, fmt.Sprintf("%s, search %d", in.name, round), p, params, &paths), nil
			}
			if _, err := solveLadder(ctx, in.SegmentInput, SolveParams{}.withDefaults(), compare); err != nil {
				t.Fatal(err)
			}
		}
	}
	t.Logf("%+v", paths)
	if paths.unsat == 0 || paths.floor == 0 || paths.aboveHardWeight == 0 || paths.limited == 0 ||
		paths.standIn == 0 || paths.solveExact == 0 {
		t.Errorf("weak coverage: %+v", paths)
	}
}

// fuzzSegmentInput decodes data into a segmentation instance of up to
// 4 records and 10 extracts: data[0] picks the number of records, and
// each further byte is one extract, its low 4 bits the candidate
// records and its high 4 bits a position group: bits 4–5 the detail
// page, bits 6–7 the group on that page (0 for none).
func fuzzSegmentInput(data []byte) SegmentInput {
	if len(data) == 0 {
		return SegmentInput{}
	}
	k := 1 + int(data[0]%4)
	data = data[1:]
	if len(data) > 10 {
		data = data[:10]
	}
	in := SegmentInput{NumRecords: k, Candidates: make([][]int, len(data)), PositionGroups: map[int][][]int{}}
	groups := map[[2]int]int{} // (page, group) -> index in PositionGroups[page]
	for i, b := range data {
		for j := 0; j < k; j++ {
			if b&(1<<j) != 0 {
				in.Candidates[i] = append(in.Candidates[i], j)
			}
		}
		page, g := int(b>>4&3)%k, int(b>>6)
		if g == 0 {
			continue
		}
		at, ok := groups[[2]int{page, g}]
		if !ok {
			at = len(in.PositionGroups[page])
			groups[[2]int{page, g}] = at
			in.PositionGroups[page] = append(in.PositionGroups[page], nil)
		}
		in.PositionGroups[page][at] = append(in.PositionGroups[page][at], i)
	}
	return in
}

// FuzzSolveSegmentation runs the ladder on a decoded instance (see
// fuzzSegmentInput) through searchWSAT and through refSearchWSAT:
// knobs%4 picks WSAT's MaxFlips (small budgets make the exact search
// stand in) and knobs/4%3 its HardWeight (0 is the default). The
// records, status, relaxation and cut rounds must agree, with never
// more flips.
func FuzzSolveSegmentation(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{2, 0x01, 0x01, 0x02, 0x06, 0x04, 0x04})
	f.Add(int64(2), uint8(1), []byte{3, 0x41, 0x43, 0x52, 0x92, 0x0c, 0x08, 0x98, 0x48})
	f.Add(int64(3), uint8(6), []byte{1, 0x41, 0x43, 0x03, 0x42, 0x02, 0x06, 0x4f, 0x0a, 0x0c, 0x08})
	f.Fuzz(func(t *testing.T, seed int64, knobs uint8, data []byte) {
		in := fuzzSegmentInput(data)
		params := SolveParams{WSAT: WSATParams{
			Seed:       seed,
			MaxFlips:   []int{0, 1, 5, 40}[knobs%4],
			HardWeight: int(knobs / 4 % 3),
		}}.withDefaults()
		ctx := context.Background()
		got, err := solveLadder(ctx, in, params, searchWSAT)
		if err != nil {
			t.Fatal(err)
		}
		want, err := solveLadder(ctx, in, params, refSearchWSAT)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Records, want.Records) || got.Status != want.Status ||
			got.Relaxed != want.Relaxed || got.CutRounds != want.CutRounds {
			t.Fatalf("instance %+v:\n got       %+v\n reference %+v", in, got, want)
		}
		if got.Flips > want.Flips {
			t.Fatalf("instance %+v: %d flips, reference %d", in, got.Flips, want.Flips)
		}
	})
}
