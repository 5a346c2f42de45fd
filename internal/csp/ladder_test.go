package csp

import (
	"context"
	"math/rand"
	"sort"
	"testing"
)

// randomLadderInput draws a segmentation instance of up to 4 records
// and 10 extracts around a planted segmentation (records in order,
// each a run of extracts): an extract's candidates mostly hold its
// planted record, plus others at random. Each position group is either
// planted (one extract of its page's record among others) or random.
func randomLadderInput(rng *rand.Rand) SegmentInput {
	k, n := 1+rng.Intn(4), 1+rng.Intn(10)
	truth := make([]int, n)
	for i, r := 0, 0; i < n; i++ {
		if i > 0 && r < k-1 && rng.Intn(3) == 0 {
			r++
		}
		truth[i] = r
	}
	in := SegmentInput{NumRecords: k, Candidates: make([][]int, n), PositionGroups: map[int][][]int{}}
	for i := range in.Candidates {
		for j := 0; j < k; j++ {
			if j == truth[i] && rng.Intn(8) != 0 || rng.Intn(4) == 0 {
				in.Candidates[i] = append(in.Candidates[i], j)
			}
		}
	}
	for g := rng.Intn(4); g > 0; g-- {
		j := rng.Intn(k)
		var own, other []int
		for i, r := range truth {
			if r == j {
				own = append(own, i)
			} else {
				other = append(other, i)
			}
		}
		group := rng.Perm(n)[:min(n, 2+rng.Intn(2))]
		if len(own) > 0 && len(other) > 0 && rng.Intn(2) == 0 {
			rng.Shuffle(len(other), func(a, b int) { other[a], other[b] = other[b], other[a] })
			group = append(other[:min(len(other), 1+rng.Intn(2))], own[rng.Intn(len(own))])
		}
		sort.Ints(group)
		in.PositionGroups[j] = append(in.PositionGroups[j], group)
	}
	return in
}

// ladderOracle is what brute force over every record assignment says
// about an instance under the constraints the encoding states.
type ladderOracle struct {
	strict        bool // a strict solution exists
	minUnassigned int  // least unassigned candidate-holding extracts of a relaxed solution
}

// bruteForceLadder enumerates every assignment of each extract to one
// of its candidate records or to none (-1) in which each record's
// extracts are consecutive, and checks the position groups on each.
func bruteForceLadder(in SegmentInput) ladderOracle {
	n := len(in.Candidates)
	records := make([]int, n)
	last := make([]int, in.NumRecords) // last extract assigned to each record, -1 for none
	for j := range last {
		last[j] = -1
	}
	oracle := ladderOracle{minUnassigned: n + 1}
	var walk func(i int)
	walk = func(i int) {
		if i == n {
			if strict, relaxed := positionsHold(in, records); relaxed {
				unassigned := countUnassigned(in, records)
				oracle.minUnassigned = min(oracle.minUnassigned, unassigned)
				oracle.strict = oracle.strict || strict && unassigned == 0
			}
			return
		}
		records[i] = -1
		walk(i + 1)
		for _, j := range in.Candidates[i] {
			if last[j] >= 0 && last[j] != i-1 {
				continue // record j's extracts would not be consecutive
			}
			prev := last[j]
			records[i], last[j] = j, i
			walk(i + 1)
			last[j] = prev
		}
	}
	walk(0)
	return oracle
}

// positionsHold checks records against every position group of at
// least two extracts holding the group's page as a candidate: strict
// when exactly one of them belongs to that record, relaxed when at
// most one does.
func positionsHold(in SegmentInput, records []int) (strict, relaxed bool) {
	strict, relaxed = true, true
	for j, groups := range in.PositionGroups {
		for _, group := range groups {
			terms, hits := 0, 0
			for _, i := range group {
				if containsInt(in.Candidates[i], j) {
					terms++
					if records[i] == j {
						hits++
					}
				}
			}
			if terms < 2 {
				continue
			}
			strict = strict && hits == 1
			relaxed = relaxed && hits <= 1
		}
	}
	return strict, relaxed
}

// countUnassigned counts the extracts with candidates left unassigned.
func countUnassigned(in SegmentInput, records []int) int {
	n := 0
	for i, r := range records {
		if r < 0 && len(in.Candidates[i]) > 0 {
			n++
		}
	}
	return n
}

// isSolution reports whether records assign every extract a candidate
// record or none, each record's extracts consecutive, and satisfy the
// position groups: strictly, with every candidate-holding extract
// assigned, or relaxed.
func isSolution(in SegmentInput, records []int, level RelaxLevel) bool {
	first, last := map[int]int{}, map[int]int{}
	for i, r := range records {
		if r < 0 {
			continue
		}
		if !containsInt(in.Candidates[i], r) {
			return false
		}
		if _, ok := first[r]; !ok {
			first[r] = i
		}
		last[r] = i
	}
	for r, lo := range first {
		for i := lo; i <= last[r]; i++ {
			if records[i] != r {
				return false
			}
		}
	}
	strict, relaxed := positionsHold(in, records)
	if level == Strict {
		return strict && countUnassigned(in, records) == 0
	}
	return relaxed
}

// The ladder must agree with brute force over every record
// assignment: a Solved result is a strict solution, an instance with
// no strict solution is never Solved, and one with a strict solution
// fails the strict rung only by using up its cut rounds (logged, as is
// a relaxed result leaving more extracts unassigned than it must). The relaxed
// encoding (block consecutiveness only, before any cut) is a
// relaxation, so its proven optimum never exceeds the least number of
// unassigned extracts of a relaxed solution.
func TestLadderAgreesWithBruteForce(t *testing.T) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(31))
	var strictSAT, strictUNSAT, relaxed, aboveMin, optLimited int
	cutsUsedUp := map[int]int{} // by MaxCutRounds
	for trial := 0; trial < 4000; trial++ {
		in := randomLadderInput(rng)
		oracle := bruteForceLadder(in)
		// A few solves with little or no consecutiveness repair, so the
		// strict rung does run out of cut rounds.
		params := SolveParams{WSAT: WSATParams{Seed: int64(trial)}, MaxCutRounds: []int{-1, 1, 0, 0, 0, 0}[trial%6]}.withDefaults()
		res, err := solveLadder(ctx, in, params, searchWSAT)
		if err != nil {
			t.Fatal(err)
		}
		if res.Status == Solved && !isSolution(in, res.Records, Strict) {
			t.Fatalf("trial %d: Solved with records %v, not a strict solution of %+v", trial, res.Records, in)
		}
		if !oracle.strict {
			strictUNSAT++
			if res.Status == Solved {
				t.Fatalf("trial %d: Solved, but brute force finds no strict solution of %+v", trial, in)
			}
		} else {
			strictSAT++
			if res.Status != Solved {
				// The strict rung must have run out of cut rounds: its
				// last search found a solution, and that still had holes.
				searches, lastFeasible := 0, false
				count := func(ctx context.Context, p *Problem, params SolveParams) (*Solution, error) {
					sol, err := searchWSAT(ctx, p, params)
					searches++
					lastFeasible = err == nil && sol.Feasible
					return sol, err
				}
				if _, ok, err := trySolve(ctx, in, Strict, params, count); err != nil || ok ||
					searches != max(params.MaxCutRounds, 0)+1 || !lastFeasible {
					t.Fatalf("trial %d: status %v with a strict solution, after %d searches (last feasible %v) of %+v",
						trial, res.Status, searches, lastFeasible, in)
				}
				cutsUsedUp[params.MaxCutRounds]++
			}
		}
		if res.Status == SolvedRelaxed {
			relaxed++
			if !isSolution(in, res.Records, Relaxed) {
				t.Fatalf("trial %d: relaxed records %v are not a relaxed solution of %+v", trial, res.Records, in)
			}
			if countUnassigned(in, res.Records) > oracle.minUnassigned {
				aboveMin++
			}
		}
		first, opt, err := exactOptimum(ctx, Encode(in, Relaxed).Problem, exactMaxNodes)
		switch {
		case err != nil:
			optLimited++
		case first == nil:
			t.Fatalf("trial %d: relaxed encoding proven UNSAT", trial)
		case opt > oracle.minUnassigned:
			t.Fatalf("trial %d: relaxed optimum %d above brute force's %d for %+v", trial, opt, oracle.minUnassigned, in)
		}
	}
	t.Logf("strict SAT %d (cut rounds used up, by MaxCutRounds: %v), strict UNSAT %d; relaxed results %d, above the least unassigned %d; relaxed optimum past the budget %d",
		strictSAT, cutsUsedUp, strictUNSAT, relaxed, aboveMin, optLimited)
	if strictSAT == 0 || strictUNSAT == 0 || relaxed == 0 {
		t.Errorf("weak coverage: strict SAT %d, strict UNSAT %d, relaxed results %d", strictSAT, strictUNSAT, relaxed)
	}
}
