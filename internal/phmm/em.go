package phmm

import (
	"context"
	"math"

	"tableseg/internal/token"
)

// emStats holds the expected sufficient statistics of one E-step.
type emStats struct {
	// typeTrue[c][j] / colMass[c]: Bernoulli counts for Theta.
	typeTrue [][]float64
	colMass  []float64
	xiCont   [][]float64
	endC     []float64
}

// estep runs forward–backward and converts posteriors into sufficient
// statistics. The statistics live in the lattice's workspace, so the
// next estep on it overwrites them.
func (m *Model) estep(lt *lattice) (*emStats, float64) {
	ll := lt.forwardBackward()
	return m.posteriorStats(lt), ll
}

// posteriorStats completes the statistics of the forward–backward pass
// last run on lt: to its xiCont and endC it adds typeTrue and colMass,
// summed from the posteriors.
func (m *Model) posteriorStats(lt *lattice) *emStats {
	st := &lt.emStats
	clear(st.colMass)
	for _, row := range st.typeTrue {
		clear(row)
	}
	for i, g := range lt.gamma {
		tv := lt.inst.TypeVecs[i]
		for r := 0; r < m.K; r++ {
			for c := 0; c < m.C; c++ {
				w := g[r*m.C+c]
				if zeroProb(w) {
					continue
				}
				st.colMass[c] += w
				for j := 0; j < token.NumTypes; j++ {
					if tv[j] {
						st.typeTrue[c][j] += w
					}
				}
			}
		}
	}
	return st
}

// mstep re-estimates the parameters from the statistics (§5.2.3 steps
// 1–5: period, column transitions, emissions).
func (m *Model) mstep(st *emStats) {
	const (
		thetaPrior = 0.5  // Beta(½,½)-style smoothing on each type bit
		transPrior = 0.05 // Dirichlet smoothing on column advances
		piPrior    = 0.1  // Dirichlet smoothing on the period model
	)
	for c := 0; c < m.C; c++ {
		den := st.colMass[c] + 2*thetaPrior
		if zeroProb(den) {
			continue // unreachable while thetaPrior > 0; guards the division
		}
		for j := 0; j < token.NumTypes; j++ {
			m.Theta[c][j] = (st.typeTrue[c][j] + thetaPrior) / den
		}
	}
	for c := 0; c < m.C; c++ {
		total := 0.0
		for c2 := c + 1; c2 < m.C; c2++ {
			total += st.xiCont[c][c2] + transPrior
		}
		if total <= 0 {
			continue
		}
		for c2 := c + 1; c2 < m.C; c2++ {
			m.Trans[c][c2] = (st.xiCont[c][c2] + transPrior) / total
		}
	}
	if m.params.PeriodModel {
		total := 0.0
		for c := 0; c < m.C; c++ {
			total += st.endC[c] + piPrior
		}
		if zeroProb(total) {
			return // C == 0; nothing to normalize, and the division would be 0/0
		}
		for c := 0; c < m.C; c++ {
			m.Pi[c] = (st.endC[c] + piPrior) / total
		}
	}
}

// FitContext runs EM to convergence (or MaxIter) and returns the
// final log-likelihood and the iteration count. It builds one lattice
// workspace for the instance, which every iteration reuses, so no
// iteration allocates. Cancellation is checked once per EM iteration,
// so an uncancelled run performs a deterministic iteration sequence
// while a cancelled one returns ctx.Err() within one iteration. Like
// SegmentContext, it rejects a malformed instance, and an instance with
// no extracts has nothing to fit: it returns (0, 0, nil).
func (m *Model) FitContext(ctx context.Context, inst Instance) (loglik float64, iters int, err error) {
	if err := validate(inst); err != nil {
		return 0, 0, err
	}
	if len(inst.TypeVecs) == 0 {
		return 0, 0, nil
	}
	return m.fit(ctx, newLattice(m, inst))
}

// fit runs FitContext's EM loop on lt and leaves its emissions
// refreshed for the final parameters.
func (m *Model) fit(ctx context.Context, lt *lattice) (loglik float64, iters int, err error) {
	prev := math.Inf(-1)
	for iters = 1; iters <= m.params.MaxIter; iters++ {
		if err := ctx.Err(); err != nil {
			return loglik, iters - 1, err
		}
		st, ll := m.estep(lt)
		m.mstep(st)
		lt.refresh()
		loglik = ll
		if !math.IsInf(prev, -1) {
			denom := math.Abs(prev)
			if denom < 1 {
				denom = 1
			}
			if math.Abs(ll-prev)/denom < m.params.Tol {
				break
			}
		}
		prev = ll
	}
	if iters > m.params.MaxIter {
		iters = m.params.MaxIter // loop exhausted the bound without converging
	}
	return loglik, iters, nil
}

// Result is the output of Segment: the MAP record segmentation and the
// column extraction of §3.4.
type Result struct {
	// Records[i] is the MAP record number R_i (0-based) of analyzed
	// extract i.
	Records []int
	// Columns[i] is the MAP column label C_i (0-based, L_1 = 0).
	Columns []int
	// LogLik is the training log-likelihood at convergence.
	LogLik float64
	// MAPLogProb is the Viterbi path score.
	MAPLogProb float64
	// Confidence[i] is the posterior probability P(R_i, C_i | T, D) of
	// extract i's MAP assignment — a calibrated per-extract confidence
	// in [0,1].
	Confidence []float64
	// Iters is the number of EM iterations performed.
	Iters int
	// Model exposes the learned parameters (period distribution,
	// emission and transition tables) for inspection.
	Model *Model
}

// SegmentContext learns a model for the instance with EM and returns
// the MAP segmentation — the probabilistic pipeline of §5 end to end.
// EM and the final decode share one lattice workspace: Viterbi and the
// confidence pass run on the fitted lattice, whose emissions EM left
// refreshed for the learned parameters. Cancellation aborts the EM loop
// at an iteration boundary and is re-checked before the final decode,
// returning ctx.Err(). A model that gives every segmentation zero
// probability is an error.
func SegmentContext(ctx context.Context, inst Instance, params Params) (*Result, error) {
	if err := validate(inst); err != nil {
		return nil, err
	}
	params = params.withDefaults()
	if len(inst.TypeVecs) == 0 {
		return &Result{Model: NewModel(inst.NumRecords, 2, params)}, nil
	}
	cols := params.MaxColumns
	if cols == 0 {
		cols = deriveColumns(inst)
	}
	m := NewModel(inst.NumRecords, cols, params)
	lt := newLattice(m, inst)
	ll, iters, err := m.fit(ctx, lt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	records, columns, mapLP, err := lt.viterbi()
	if err != nil {
		return nil, err
	}
	lt.forwardBackward()
	confidence := make([]float64, len(records))
	for i := range records {
		confidence[i] = lt.gamma[i][records[i]*m.C+columns[i]]
	}
	return &Result{
		Records:    records,
		Columns:    columns,
		LogLik:     ll,
		MAPLogProb: mapLP,
		Confidence: confidence,
		Iters:      iters,
		Model:      m,
	}, nil
}
