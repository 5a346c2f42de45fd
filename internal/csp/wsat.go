package csp

import (
	"context"
	"math/rand"
)

// WSATParams tunes the local-search solver. Zero values select sensible
// defaults via (*WSATParams).withDefaults.
type WSATParams struct {
	// MaxFlips bounds the number of variable flips per restart.
	MaxFlips int
	// Restarts is the number of independent restarts.
	Restarts int
	// Noise is the probability of a random walk move instead of a
	// greedy one, in [0,1]. Walser recommends small non-zero noise.
	Noise float64
	// TabuTenure is the number of flips during which a just-flipped
	// variable may not be flipped back (0 disables tabu).
	TabuTenure int
	// HardWeight is the penalty multiplier for hard-constraint
	// violations relative to soft weights.
	HardWeight int
	// Seed seeds the solver's private RNG; runs are deterministic for
	// a fixed seed.
	Seed int64
}

func (p WSATParams) withDefaults(problemSize int) WSATParams {
	if p.MaxFlips == 0 {
		p.MaxFlips = 2000 + 200*problemSize
	}
	if p.Restarts == 0 {
		p.Restarts = 8
	}
	if p.Noise <= 0 {
		p.Noise = 0.1
	}
	if p.TabuTenure == 0 {
		p.TabuTenure = 2
	}
	if p.HardWeight == 0 {
		p.HardWeight = 100
	}
	return p
}

// Solution is the outcome of a solver run.
type Solution struct {
	// Assign is the best assignment found. When Feasible is false it
	// is only a witness of failure: after an early stop on a proof
	// (see SolveWSATContext) it is the best of the first restart, not
	// the lowest-scoring assignment a full run would have reached, so
	// callers should read nothing but Feasible from it. A stop on a
	// proven floor (see runWSAT) returns what a full run returns.
	Assign []bool
	// Feasible is true when Assign satisfies every hard constraint.
	Feasible bool
	// HardViolation and SoftPenalty describe Assign's quality.
	HardViolation int
	SoftPenalty   int
	// Flips counts the flips actually performed across restarts.
	Flips int
	// Restart records which restart produced the best assignment.
	Restart int
	// Restarts counts the restarts actually executed (the loop exits
	// early once the best reaches its stopping floor, a perfect
	// assignment unless the caller proved a higher one, or once no
	// later restart can replace the best).
	Restarts int
}

// Score is the combined objective the search minimizes.
func (s *Solution) score(hardWeight int) int {
	return s.HardViolation*hardWeight + s.SoftPenalty
}

// certNodes is the node budget of the exact search that may end
// SolveWSATContext's restarts early. Proofs on the segmentation and
// column encodings mostly need a few hundred nodes; the budget caps
// the rare instance whose proof would take millions.
const certNodes = 1000

// SolveWSATContext runs a WSAT(OIP)-style local search: repeatedly
// pick an unsatisfied constraint and flip one of its variables,
// choosing the flip that most reduces the combined (hard-weighted)
// violation score, with probabilistic noise moves and a short tabu
// list, restarting from fresh random assignments. It returns the best
// assignment found; the caller decides what to do with an infeasible
// best (relax constraints, per §6.3).
//
// The search stops at the first flip that reaches a perfect
// assignment (feasible, soft penalty 0). When the first restart ends
// short of one, an exact search of at most certNodes nodes looks for a
// hard-feasible assignment whose soft penalty is below the best's
// combined score. If it proves there is none, the remaining restarts
// are skipped: a feasible best with SoftPenalty ≤ HardWeight can then
// never be replaced (ties never replace a best), so the result is the
// one a full run returns with fewer Flips and Restarts; an infeasible
// best stays infeasible, as in a full run, though its Assign may
// differ. A budget overrun or a better assignment runs every restart.
//
// Cancellation is checked only at restart boundaries: an uncancelled
// run performs exactly the same flip sequence regardless of deadline
// (results stay deterministic for a fixed seed), while a cancelled one
// returns ctx.Err() within one restart's worth of flips.
func SolveWSATContext(ctx context.Context, p *Problem, params WSATParams) (*Solution, error) {
	return runWSAT(ctx, p, params, certNodes, 0)
}

// runWSAT is SolveWSATContext with the early stop's node budget and
// the stopping floor as parameters. A certBudget of 0 turns the proof
// after the first restart off. floor must be a proven lower bound on
// the combined score of every assignment, feasible or not: the search
// ends at the first flip whose best reaches it. No later flip could
// then replace that best (ties never do), so the result is the one a
// full run returns, with fewer Flips and Restarts. Floor 0 is always
// such a bound, and reaching it means a perfect assignment.
func runWSAT(ctx context.Context, p *Problem, params WSATParams, certBudget, floor int) (*Solution, error) {
	params = params.withDefaults(p.NumVars())
	rng := rand.New(rand.NewSource(params.Seed))
	st := newSearchState(p, params)

	best := &Solution{Assign: make([]bool, p.NumVars()), HardViolation: 1 << 30, SoftPenalty: 1 << 30}
	totalFlips := 0 // the tabu clock: every restart advances it by MaxFlips
	for restart := 0; restart < params.Restarts; restart++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if restart == 1 && certBudget > 0 && cannotImprove(ctx, p, best, params.HardWeight, certBudget) {
			break
		}
		best.Restarts = restart + 1
		st.randomize(rng)
		st.recordBest(best, restart)
		if best.score(params.HardWeight) <= floor {
			break
		}
		for flip := 0; flip < params.MaxFlips; flip++ {
			ci := st.pickViolated(rng)
			if ci < 0 { // all satisfied
				break
			}
			v := st.pickVar(ci, rng, totalFlips+flip)
			if v < 0 {
				continue
			}
			st.flip(v, totalFlips+flip)
			best.Flips++
			if st.score() <= best.score(params.HardWeight) {
				st.recordBest(best, restart)
				if best.score(params.HardWeight) <= floor {
					break
				}
			}
		}
		totalFlips += params.MaxFlips
		if best.score(params.HardWeight) <= floor {
			break
		}
	}
	return best, nil
}

// cannotImprove reports whether an exact search within budget nodes
// proves that no later restart can change the outcome, by ruling out
// every hard-feasible assignment with a soft penalty below best's
// score. For a feasible best with SoftPenalty ≤ hardWeight that is
// enough: every infeasible assignment scores at least hardWeight, so
// best is never replaced. An infeasible best may still give way to a
// less infeasible one, but never to a feasible one. Above hardWeight a
// feasible best could lose to an infeasible assignment, so no proof is
// tried.
func cannotImprove(ctx context.Context, p *Problem, best *Solution, hardWeight, budget int) bool {
	if best.Feasible && best.SoftPenalty > hardWeight {
		return false
	}
	_, found, err := solveExactBelow(ctx, p, budget, best.score(hardWeight))
	return err == nil && !found
}

// searchState holds the incremental data structures of the local search:
// current assignment, per-constraint LHS values, violation totals, and
// the variable→constraint incidence index.
type searchState struct {
	p       *Problem
	params  WSATParams
	assign  []bool
	lhs     []int
	viol    []int // violation per constraint
	occ     [][]occurrence
	violSet []int // indices of currently violated constraints (lazy, compacted on pick)
	inSet   []bool
	tabu    []int // last flip time per var

	hardViolation int
	softPenalty   int
}

// occurrence is one constraint a variable appears in, with the
// variable's summed coefficient there (duplicate terms add up).
type occurrence struct {
	ci, coef int
}

func newSearchState(p *Problem, params WSATParams) *searchState {
	st := &searchState{
		p:       p,
		params:  params,
		assign:  make([]bool, p.NumVars()),
		lhs:     make([]int, len(p.Constraints)),
		viol:    make([]int, len(p.Constraints)),
		occ:     make([][]occurrence, p.NumVars()),
		violSet: make([]int, 0, len(p.Constraints)),
		inSet:   make([]bool, len(p.Constraints)),
		tabu:    make([]int, p.NumVars()),
	}
	for ci := range p.Constraints {
		for _, t := range p.Constraints[ci].Terms {
			// Constraints are visited in order, so a variable already
			// seen in ci is the last entry of its list.
			o := st.occ[t.Var]
			if n := len(o); n > 0 && o[n-1].ci == ci {
				o[n-1].coef += t.Coef
				continue
			}
			st.occ[t.Var] = append(o, occurrence{ci: ci, coef: t.Coef})
		}
	}
	return st
}

// score is the objective used for best-solution tracking. (Move
// selection never consults a global score: flipDelta evaluates the
// same objective incrementally.)
func (st *searchState) score() int {
	return st.hardViolation*st.params.HardWeight + st.softPenalty
}

func (st *searchState) randomize(rng *rand.Rand) {
	for i := range st.assign {
		st.assign[i] = rng.Intn(2) == 1
		st.tabu[i] = -1 << 30
	}
	st.recompute()
}

func (st *searchState) recompute() {
	st.hardViolation, st.softPenalty = 0, 0
	st.violSet = st.violSet[:0]
	for ci := range st.p.Constraints {
		c := &st.p.Constraints[ci]
		st.lhs[ci] = c.LHS(st.assign)
		st.viol[ci] = c.violationOf(st.lhs[ci])
		st.inSet[ci] = false
		if st.viol[ci] > 0 {
			if c.Hard() {
				st.hardViolation += st.viol[ci]
			} else {
				st.softPenalty += st.viol[ci] * c.Weight
			}
			st.violSet = append(st.violSet, ci)
			st.inSet[ci] = true
		}
	}
}

// pickViolated returns a random violated constraint index, or -1 when
// everything is satisfied. Hard violations are preferred over soft ones.
func (st *searchState) pickViolated(rng *rand.Rand) int {
	// Compact the lazy violated set.
	w := 0
	for _, ci := range st.violSet {
		if st.viol[ci] > 0 {
			st.violSet[w] = ci
			w++
		} else {
			st.inSet[ci] = false
		}
	}
	st.violSet = st.violSet[:w]
	if w == 0 {
		return -1
	}
	// Prefer a violated hard constraint with probability proportional
	// to their share, but always pick hard when any exists and a fair
	// coin lands hard-side: this keeps pressure on feasibility.
	nHard := 0
	for _, ci := range st.violSet {
		if st.p.Constraints[ci].Hard() {
			nHard++
		}
	}
	if nHard > 0 && (nHard == w || rng.Float64() < 0.8) {
		k := rng.Intn(nHard)
		for _, ci := range st.violSet {
			if st.p.Constraints[ci].Hard() {
				if k == 0 {
					return ci
				}
				k--
			}
		}
	}
	return st.violSet[rng.Intn(w)]
}

// pickVar chooses which variable of constraint ci to flip: a noise move
// picks uniformly; otherwise the flip with the best score delta wins,
// subject to tabu (tabu is overridden when the flip would reach a new
// strictly better score — standard aspiration).
func (st *searchState) pickVar(ci int, rng *rand.Rand, now int) int {
	c := &st.p.Constraints[ci]
	if len(c.Terms) == 0 {
		return -1
	}
	if rng.Float64() < st.params.Noise {
		return c.Terms[rng.Intn(len(c.Terms))].Var
	}
	bestVar, bestDelta := -1, 1<<30
	for _, t := range c.Terms {
		d := st.flipDelta(t.Var)
		if now-st.tabu[t.Var] < st.params.TabuTenure && d >= 0 {
			continue // tabu without aspiration
		}
		if d < bestDelta || (d == bestDelta && bestVar >= 0 && rng.Intn(2) == 0) {
			bestDelta, bestVar = d, t.Var
		}
	}
	if bestVar < 0 { // everything tabu: random walk
		return c.Terms[rng.Intn(len(c.Terms))].Var
	}
	return bestVar
}

// flipDelta computes the score change if variable v were flipped.
func (st *searchState) flipDelta(v int) int {
	delta := 0
	dir := 1
	if st.assign[v] {
		dir = -1
	}
	for _, o := range st.occ[v] {
		c := &st.p.Constraints[o.ci]
		d := c.violationOf(st.lhs[o.ci]+dir*o.coef) - st.viol[o.ci]
		if c.Hard() {
			delta += d * st.params.HardWeight
		} else {
			delta += d * c.Weight
		}
	}
	return delta
}

// flip applies the flip of variable v and updates incremental state.
func (st *searchState) flip(v, now int) {
	dir := 1
	if st.assign[v] {
		dir = -1
	}
	st.assign[v] = !st.assign[v]
	st.tabu[v] = now
	for _, o := range st.occ[v] {
		ci := o.ci
		c := &st.p.Constraints[ci]
		st.lhs[ci] += dir * o.coef
		newViol := c.violationOf(st.lhs[ci])
		d := newViol - st.viol[ci]
		if d != 0 {
			if c.Hard() {
				st.hardViolation += d
			} else {
				st.softPenalty += d * c.Weight
			}
		}
		st.viol[ci] = newViol
		if newViol > 0 && !st.inSet[ci] {
			st.violSet = append(st.violSet, ci)
			st.inSet[ci] = true
		}
	}
}

// recordBest keeps the first assignment reaching each score (ties
// never replace an earlier best, so the result is stable against
// trajectory perturbations).
func (st *searchState) recordBest(best *Solution, restart int) {
	if st.score() < best.score(st.params.HardWeight) {
		copy(best.Assign, st.assign)
		best.HardViolation = st.hardViolation
		best.SoftPenalty = st.softPenalty
		best.Feasible = st.hardViolation == 0
		best.Restart = restart
	}
}
