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

// ExactParams tunes the exact solver.
type ExactParams struct {
	// MaxNodes bounds the number of search nodes explored; 0 selects a
	// default of 2,000,000.
	MaxNodes int
}

// SolveExact performs a complete depth-first search with bounds
// propagation over the hard constraints. It returns (assignment, true,
// nil) for a satisfying assignment of the hard constraints, (nil, false,
// nil) when provably unsatisfiable, or an ErrSearchLimit error when the
// node budget ran out. The assignment is the first feasible one the
// search reaches, not one of least soft penalty: SolveExact sets no
// bound on the soft penalty, so soft constraints never prune its
// search (SolveWSATContext runs the same search with a bound to end
// its restarts early). Cancellation is polled every few thousand
// search nodes and surfaces as ctx.Err(); an uncancelled run explores
// exactly the same node sequence regardless of deadline.
func SolveExact(ctx context.Context, p *Problem, params ExactParams) ([]bool, bool, error) {
	if params.MaxNodes == 0 {
		params.MaxNodes = 2_000_000
	}
	return solveExactBelow(ctx, p, params.MaxNodes, noBound)
}

// solveExactBelow searches within maxNodes nodes for an assignment
// that satisfies every hard constraint and has a weighted soft penalty
// below bound. Besides the hard constraints' bounds, it prunes a
// partial assignment once the least soft penalty its LHS intervals
// allow reaches bound. It returns (assignment, true, nil) on success,
// (nil, false, nil) when no such assignment exists, and ErrSearchLimit
// or ctx.Err() when the search stopped early.
func solveExactBelow(ctx context.Context, p *Problem, maxNodes, bound int) ([]bool, bool, error) {
	s := &exactSearch{p: p, maxNodes: maxNodes, bound: bound, ctx: ctx}
	s.value = make([]int8, p.NumVars())
	for i := range s.value {
		s.value[i] = unset
	}
	// Split hard from soft constraints and index the hard ones by
	// variable (branching picks the most constrained variable).
	for ci := range p.Constraints {
		if p.Constraints[ci].Hard() {
			s.hard = append(s.hard, ci)
		} else {
			s.soft = append(s.soft, ci)
		}
	}
	s.occ = make([][]int, p.NumVars())
	for _, ci := range s.hard {
		for _, t := range p.Constraints[ci].Terms {
			s.occ[t.Var] = append(s.occ[t.Var], ci)
		}
	}
	ok := s.dfs()
	if s.cancelled != nil {
		return nil, false, s.cancelled
	}
	if s.limited {
		return nil, false, ErrSearchLimit
	}
	if !ok {
		return nil, false, nil
	}
	out := make([]bool, p.NumVars())
	for i, v := range s.value {
		out[i] = v == 1
	}
	return out, true, nil
}

// noBound is the soft-penalty bound that never prunes.
const noBound = math.MaxInt

const unset int8 = 2

type exactSearch struct {
	p         *Problem
	hard      []int
	soft      []int
	occ       [][]int
	value     []int8
	bound     int // exclusive upper bound on the soft penalty
	nodes     int
	maxNodes  int
	limited   bool
	ctx       context.Context
	cancelled error
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
// forced. Returns the list of fixed vars (for undo) and whether a
// contradiction was reached.
func (s *exactSearch) propagate(trail *[]int) bool {
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
					*trail = append(*trail, t.Var)
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
		if len(s.occ[v]) > bestOcc {
			best, bestOcc = v, len(s.occ[v])
		}
	}
	return best
}

func (s *exactSearch) dfs() bool {
	s.nodes++
	if s.nodes > s.maxNodes {
		s.limited = true
		return false
	}
	if s.nodes&0xfff == 0 {
		if err := s.ctx.Err(); err != nil {
			s.cancelled = err
			s.limited = true // reuse the abort plumbing of the node budget
			return false
		}
	}
	var trail []int
	if !s.propagate(&trail) || s.softLowerBound() >= s.bound {
		s.undo(trail)
		return false
	}
	v := s.pickVar()
	if v < 0 {
		// Fully assigned; bounds feasibility on full assignment is
		// exact satisfaction.
		if s.feasibleBounds() {
			return true
		}
		s.undo(trail)
		return false
	}
	for _, val := range [2]int8{1, 0} {
		s.value[v] = val
		if s.feasibleBounds() && s.dfs() {
			return true
		}
		if s.limited {
			s.value[v] = unset
			s.undo(trail)
			return false
		}
	}
	s.value[v] = unset
	s.undo(trail)
	return false
}

func (s *exactSearch) undo(trail []int) {
	for _, v := range trail {
		s.value[v] = unset
	}
}
