// Package phmm implements the probabilistic record-segmentation model of
// §5: a factored hidden Markov model over hidden record numbers R_i,
// column labels C_i and record-start flags S_i, with observed syntactic
// token-type vectors T_i and detail-page sets D_i. Parameters are learned
// unsupervised with EM (a structured forward–backward variant), using
// the detail-page observations to bootstrap the record posteriors and an
// explicit record-period model π (Figure 3) to structure the inference.
// Segmentation is the MAP assignment of (R, C) computed by Viterbi
// decoding.
package phmm

import (
	"errors"
	"fmt"

	"tableseg/internal/token"
)

// Instance is one record-segmentation problem: the analyzed extracts of
// a list page in stream order, each with its 8-bit syntactic type vector
// T_i and its detail-page candidate set D_i.
type Instance struct {
	// NumRecords is K, the number of detail pages.
	NumRecords int
	// TypeVecs[i] is T_i.
	TypeVecs [][token.NumTypes]bool
	// Candidates[i] is D_i (sorted 0-based record indices). An empty
	// set means the extract carries no detail-page evidence; such
	// extracts should normally be filtered out before building the
	// instance, but the model tolerates them (uniform R evidence).
	Candidates [][]int
}

// Params configures learning and inference.
type Params struct {
	// MaxColumns bounds the column label set L_1..L_k; 0 derives the
	// bound from the data (the paper: "the largest number of extracts
	// found on a detail page").
	MaxColumns int
	// Epsilon is the soft-evidence weight for assigning an extract to
	// a record outside its D_i; the small default tolerates the data
	// inconsistencies of §6.3. Zero, or any value ≤ 0, selects the
	// default 1e-3, and values above 1 are clamped to 1. Near-hard
	// evidence, close to the CSP's semantics (and its brittleness), is
	// a tiny positive value such as the ablation's 1e-12.
	Epsilon float64
	// SkipPenalty is the geometric penalty for records with no
	// analyzed extracts (record numbers may skip). Default 0.05.
	SkipPenalty float64
	// MaxIter bounds EM iterations. Default 30.
	MaxIter int
	// Tol is the relative log-likelihood convergence tolerance.
	// Default 1e-6.
	Tol float64
	// PeriodModel enables the record-period model π of Figure 3; when
	// false the model falls back to a flat hazard (Figure 2).
	PeriodModel bool
	// Seed controls the deterministic symmetry-breaking jitter applied
	// to the initial emission parameters.
	Seed int64
}

func (p Params) withDefaults() Params {
	if p.Epsilon <= 0 {
		p.Epsilon = 1e-3
	}
	if p.Epsilon > 1 {
		p.Epsilon = 1
	}
	if p.SkipPenalty <= 0 {
		p.SkipPenalty = 0.05
	}
	if p.SkipPenalty > 0.95 {
		p.SkipPenalty = 0.95
	}
	if p.MaxIter <= 0 {
		p.MaxIter = 30
	}
	if p.Tol <= 0 {
		p.Tol = 1e-6
	}
	if p.MaxColumns < 0 {
		p.MaxColumns = 0
	}
	return p
}

// DefaultParams returns the configuration used throughout the paper
// reproduction (period model on, soft evidence).
func DefaultParams() Params {
	return Params{PeriodModel: true}.withDefaults()
}

// Model holds the learned parameters.
type Model struct {
	K int // records
	C int // columns

	// Theta[c][j] = P(T_j = true | C = c): independent Bernoulli per
	// syntactic type bit (the factored observation model).
	Theta [][]float64
	// Trans[c][c'] = P(C_{i} = c' | C_{i-1} = c, same record), c' > c.
	Trans [][]float64
	// Pi[c] = P(record's last column = c): the period model π in
	// last-column form. Hazard h(c) = Pi[c] / Σ_{c'≥c} Pi[c'].
	Pi []float64

	params Params
}

// NewModel initializes a model per §5.2.1: uniform type probabilities
// (with deterministic jitter to break EM symmetry), a forward-biased
// column-transition matrix, and a uniform (or flat-hazard) period model.
func NewModel(k, c int, params Params) *Model {
	m := &Model{K: k, C: c, params: params}
	m.Theta = make([][]float64, c)
	jitter := params.Seed
	for ci := 0; ci < c; ci++ {
		m.Theta[ci] = make([]float64, token.NumTypes)
		for j := 0; j < token.NumTypes; j++ {
			// The paper initializes P(T_j|C) = 1/8; a tiny column-
			// dependent perturbation lets EM specialize columns.
			jitter = jitter*6364136223846793005 + 1442695040888963407
			delta := float64((jitter>>33)%7-3) * 0.004
			m.Theta[ci][j] = 1.0/float64(token.NumTypes) + delta
			if m.Theta[ci][j] < 0.01 {
				m.Theta[ci][j] = 0.01
			}
		}
	}
	m.Trans = make([][]float64, c)
	for ci := 0; ci < c; ci++ {
		m.Trans[ci] = make([]float64, c)
		// Geometric preference for the immediate next column; skips
		// (missing fields) decay.
		total := 0.0
		for cj := ci + 1; cj < c; cj++ {
			w := 1.0
			for s := ci + 2; s <= cj; s++ {
				w *= 0.3
			}
			m.Trans[ci][cj] = w
			total += w
		}
		for cj := ci + 1; cj < c; cj++ {
			m.Trans[ci][cj] /= maxf(total, 1e-12)
		}
	}
	m.Pi = make([]float64, c)
	for ci := range m.Pi {
		m.Pi[ci] = 1.0 / float64(c)
	}
	return m
}

// hazard returns P(record ends | current column c).
func (m *Model) hazard(c int) float64 {
	// Figure 2 variant: a flat, structure-free continuation model.
	h := 1.0 / float64(m.C)
	if m.params.PeriodModel {
		num := m.Pi[c]
		den := 0.0
		for ci := c; ci < m.C; ci++ {
			den += m.Pi[ci]
		}
		if den < 1e-12 {
			return 1.0
		}
		h = num / den
	}
	// Keep the chain mixing: never fully absorb or fully forbid. (The
	// flat hazard of a single column is 1, which would forbid every
	// record longer than one extract.)
	if h < 1e-4 {
		h = 1e-4
	}
	if h > 1-1e-4 {
		h = 1 - 1e-4
	}
	return h
}

// emitType returns P(T_i | C = c) under the factored Bernoulli model.
func (m *Model) emitType(tv [token.NumTypes]bool, c int) float64 {
	p := 1.0
	for j := 0; j < token.NumTypes; j++ {
		th := m.Theta[c][j]
		if tv[j] {
			p *= th
		} else {
			p *= 1 - th
		}
	}
	return p
}

// evidence returns the detail-page factor w_i(r): 1 when r ∈ D_i,
// Epsilon otherwise (§5.2.1's bootstrap, softened for robustness). An
// empty D_i gives uniform evidence.
func evidence(cands []int, r int, eps float64) float64 {
	if len(cands) == 0 {
		return 1.0
	}
	for _, d := range cands {
		if d == r {
			return 1.0
		}
		if d > r {
			break
		}
	}
	return eps
}

// forcedStarts computes the bootstrap start flags of §5.2.1: S_i is
// certainly true when D_{i-1} ∩ D_i = ∅ (both non-empty).
func forcedStarts(cands [][]int) []bool {
	out := make([]bool, len(cands))
	for i := 1; i < len(cands); i++ {
		a, b := cands[i-1], cands[i]
		if len(a) == 0 || len(b) == 0 {
			continue
		}
		out[i] = !intersects(a, b)
	}
	return out
}

func intersects(a, b []int) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// deriveColumns implements the paper's bound on the column label count:
// the largest number of analyzed extracts observed on any single detail
// page, clamped to a practical range.
func deriveColumns(inst Instance) int {
	perPage := make([]int, inst.NumRecords)
	for _, cands := range inst.Candidates {
		for _, r := range cands {
			if r >= 0 && r < inst.NumRecords {
				perPage[r]++
			}
		}
	}
	best := 0
	for _, n := range perPage {
		if n > best {
			best = n
		}
	}
	if best < 2 {
		best = 2
	}
	if best > 12 {
		best = 12
	}
	return best
}

// validate sanity-checks an instance.
func validate(inst Instance) error {
	if inst.NumRecords <= 0 {
		return errors.New("phmm: instance has no records")
	}
	if len(inst.TypeVecs) != len(inst.Candidates) {
		return fmt.Errorf("phmm: %d type vectors but %d candidate sets", len(inst.TypeVecs), len(inst.Candidates))
	}
	for i, cands := range inst.Candidates {
		for k, r := range cands {
			if r < 0 || r >= inst.NumRecords {
				return fmt.Errorf("phmm: extract %d references record %d of %d", i, r, inst.NumRecords)
			}
			if k > 0 && cands[k-1] >= r {
				return fmt.Errorf("phmm: extract %d candidate set not sorted: %v", i, cands)
			}
		}
	}
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
