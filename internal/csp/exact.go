package csp

import (
	"context"
	"errors"
	"math"
)

// ErrSearchLimit is returned by SolveExact when the node budget is
// exhausted before the search space is covered; satisfiability is then
// unknown.
var ErrSearchLimit = errors.New("csp: exact search node limit exceeded")

// exactMaxNodes bounds the search nodes SolveExact explores.
const exactMaxNodes = 2_000_000

// SolveExact performs a complete depth-first search with bounds
// propagation over the hard constraints. It returns (assignment, true,
// nil) for a satisfying assignment of the hard constraints, (nil, false,
// nil) when provably unsatisfiable, or an ErrSearchLimit error when its
// budget of 2,000,000 search nodes ran out. The assignment is the first
// feasible one the search reaches, not one of least soft penalty:
// SolveExact sets no bound on the soft penalty, so soft constraints
// never prune its search (SolveWSATContext runs the same search with a
// bound to end its restarts early, and each segmentation rung runs it
// as a branch and bound first). Cancellation is polled every few
// thousand search nodes and surfaces as ctx.Err(); an uncancelled run
// explores exactly the same node sequence regardless of deadline.
func SolveExact(ctx context.Context, p *Problem) ([]bool, bool, error) {
	return solveExactBelow(ctx, p, exactMaxNodes, noBound)
}

// solveExactBelow searches within maxNodes nodes for an assignment
// that satisfies every hard constraint and has a weighted soft penalty
// below bound. Besides the hard constraints' bounds, it prunes a
// partial assignment once the least soft penalty its LHS intervals
// allow reaches bound. It returns (assignment, true, nil) on success,
// (nil, false, nil) when no such assignment exists, and ErrSearchLimit
// or ctx.Err() when the search stopped early.
func solveExactBelow(ctx context.Context, p *Problem, maxNodes, bound int) ([]bool, bool, error) {
	s := newExactSearch(ctx, p, maxNodes, bound, false)
	s.dfs()
	if err := s.err(); err != nil {
		return nil, false, err
	}
	return s.first, s.first != nil, nil
}

// exactOptimum runs one branch and bound of at most maxNodes nodes
// over p. Up to its first hard-feasible assignment it is SolveExact's
// search, node for node, and it returns that assignment as first; from
// there it only looks for assignments whose soft penalty is below the
// least found so far. A nil error means the search covered the space:
// first is then nil when the hard constraints are unsatisfiable, and
// otherwise opt is the least soft penalty of any hard-feasible
// assignment. When the budget runs out it returns ErrSearchLimit, with
// first set if the search reached one before; a cancelled search
// returns ctx.Err().
func exactOptimum(ctx context.Context, p *Problem, maxNodes int) (first []bool, opt int, err error) {
	s := newExactSearch(ctx, p, maxNodes, noBound, true)
	s.dfs()
	return s.first, s.bound, s.err()
}

// noBound is the soft-penalty bound that never prunes.
const noBound = math.MaxInt

const unset int8 = 2

type exactSearch struct {
	p      *Problem
	hard   []int
	soft   []int
	degree []int // per variable, its terms in hard constraints
	value  []int8
	// trail lists the variables propagation fixed, in order; each
	// node undoes its own suffix of it on the way back.
	trail []int
	bound int // exclusive upper bound on the soft penalty
	// optimize lowers bound to each hard-feasible assignment's soft
	// penalty and searches on, instead of stopping at the first.
	optimize  bool
	first     []bool // the first hard-feasible assignment reached
	nodes     int
	maxNodes  int
	limited   bool
	ctx       context.Context
	cancelled error
}

func newExactSearch(ctx context.Context, p *Problem, maxNodes, bound int, optimize bool) *exactSearch {
	n := p.NumVars()
	s := &exactSearch{
		p:        p,
		degree:   make([]int, n),
		value:    make([]int8, n),
		trail:    make([]int, 0, n),
		bound:    bound,
		optimize: optimize,
		maxNodes: maxNodes,
		ctx:      ctx,
	}
	for i := range s.value {
		s.value[i] = unset
	}
	// Split hard from soft constraints, in one backing array, and count
	// each variable's hard terms (branching picks the most constrained
	// variable).
	order := make([]int, 0, len(p.Constraints))
	for ci := range p.Constraints {
		if c := &p.Constraints[ci]; c.Hard() {
			order = append(order, ci)
			for _, t := range c.Terms {
				s.degree[t.Var]++
			}
		}
	}
	s.hard = order
	for ci := range p.Constraints {
		if !p.Constraints[ci].Hard() {
			order = append(order, ci)
		}
	}
	s.soft = order[len(s.hard):]
	return s
}

// err is the reason the search stopped short of covering the space,
// or nil when it did not.
func (s *exactSearch) err() error {
	switch {
	case s.cancelled != nil:
		return s.cancelled
	case s.limited:
		return ErrSearchLimit
	}
	return nil
}

// feasibleBounds checks every hard constraint against the interval of
// achievable LHS values given the current partial assignment.
func (s *exactSearch) feasibleBounds() bool {
	for _, ci := range s.hard {
		if !s.constraintFeasible(ci) {
			return false
		}
	}
	return true
}

func (s *exactSearch) constraintFeasible(ci int) bool {
	c := &s.p.Constraints[ci]
	lo, hi := s.lhsRange(c)
	switch c.Op {
	case LE:
		return lo <= c.RHS
	case GE:
		return hi >= c.RHS
	case EQ:
		return lo <= c.RHS && hi >= c.RHS
	}
	return true
}

// lhsRange is the interval of LHS values c can still take under the
// current partial assignment.
func (s *exactSearch) lhsRange(c *Constraint) (lo, hi int) {
	for _, t := range c.Terms {
		switch s.value[t.Var] {
		case 1:
			lo += t.Coef
			hi += t.Coef
		case unset:
			if t.Coef > 0 {
				hi += t.Coef
			} else {
				lo += t.Coef
			}
		}
	}
	return lo, hi
}

// softLowerBound bounds from below the weighted soft penalty of every
// completion of the partial assignment: each soft constraint
// contributes the violation of the LHS value in its interval nearest
// to satisfaction. On a full assignment it is the exact soft penalty.
func (s *exactSearch) softLowerBound() int {
	total := 0
	for _, ci := range s.soft {
		c := &s.p.Constraints[ci]
		lo, hi := s.lhsRange(c)
		least := 0
		if c.Op != GE && lo > c.RHS {
			least = lo - c.RHS
		}
		if c.Op != LE && hi < c.RHS {
			least = c.RHS - hi
		}
		total += least * c.Weight
	}
	return total
}

// propagate fixes forced variables: if setting a variable to one value
// makes some hard constraint infeasible by bounds, the other value is
// forced. Fixed variables go on the trail (for undo); it returns false
// when a contradiction was reached.
func (s *exactSearch) propagate() bool {
	changed := true
	for changed {
		changed = false
		for _, ci := range s.hard {
			c := &s.p.Constraints[ci]
			if !s.constraintFeasible(ci) {
				return false
			}
			for _, t := range c.Terms {
				if s.value[t.Var] != unset {
					continue
				}
				forced := int8(unset)
				s.value[t.Var] = 0
				ok0 := s.constraintFeasible(ci)
				s.value[t.Var] = 1
				ok1 := s.constraintFeasible(ci)
				s.value[t.Var] = unset
				switch {
				case !ok0 && !ok1:
					return false
				case !ok0:
					forced = 1
				case !ok1:
					forced = 0
				}
				if forced != unset {
					s.value[t.Var] = forced
					s.trail = append(s.trail, t.Var)
					changed = true
				}
			}
		}
	}
	return true
}

// pickVar chooses the unset variable occurring in the most hard
// constraints (most-constrained-first).
func (s *exactSearch) pickVar() int {
	best, bestOcc := -1, -1
	for v := range s.value {
		if s.value[v] != unset {
			continue
		}
		if s.degree[v] > bestOcc {
			best, bestOcc = v, s.degree[v]
		}
	}
	return best
}

// dfs searches below the current partial assignment and reports
// whether the search is over: a leaf ended it (see leaf), or the node
// budget ran out or the context was cancelled (see err).
func (s *exactSearch) dfs() bool {
	s.nodes++
	if s.nodes > s.maxNodes {
		s.limited = true
		return true
	}
	if s.nodes&0xfff == 0 {
		if err := s.ctx.Err(); err != nil {
			s.cancelled = err
			return true
		}
	}
	mark := len(s.trail)
	if !s.propagate() || s.bound != noBound && s.softLowerBound() >= s.bound {
		s.undo(mark)
		return false
	}
	v := s.pickVar()
	if v < 0 {
		// Fully assigned; bounds feasibility on full assignment is
		// exact satisfaction.
		if s.feasibleBounds() && s.leaf() {
			return true
		}
		s.undo(mark)
		return false
	}
	for _, val := range [2]int8{1, 0} {
		s.value[v] = val
		if s.feasibleBounds() && s.dfs() {
			return true
		}
	}
	s.value[v] = unset
	s.undo(mark)
	return false
}

// leaf takes the full hard-feasible assignment in value, whose soft
// penalty is below bound, and reports whether the search is over: at
// the first leaf, unless the search optimizes; then once the penalty
// reaches 0, below which nothing lies.
func (s *exactSearch) leaf() bool {
	if s.first == nil {
		s.first = make([]bool, len(s.value))
		for i, v := range s.value {
			s.first[i] = v == 1
		}
	}
	if !s.optimize {
		return true
	}
	s.bound = s.softLowerBound() // exact on a full assignment
	return s.bound == 0
}

// undo unsets the variables propagation fixed since the trail held
// mark entries.
func (s *exactSearch) undo(mark int) {
	for _, v := range s.trail[mark:] {
		s.value[v] = unset
	}
	s.trail = s.trail[:mark]
}
