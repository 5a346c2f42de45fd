package phmm

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"
)

// The reference below is forwardBackward as it was before its first
// attempt zeroed the cells below pruneFloor: the passes with no cell
// zeroed and no certificate. Under it, EM, the decode and the
// confidence pass must give every segmentation forwardBackward gives,
// bit for bit: records, columns, iterations, log-likelihood, MAP score,
// confidences and the learned Theta, Trans and Pi.

// refForwardBackward is the structured forward–backward pass of §5.2.3
// with no pruning.
func (lt *lattice) refForwardBackward() (loglik float64) {
	m, n, K, C := lt.m, lt.n, lt.m.K, lt.m.C
	S := K * C
	skip := m.params.SkipPenalty
	alpha, beta, emis, scale, haz := lt.alpha, lt.beta, lt.emis, lt.scale, lt.haz
	E, M, B := lt.E, lt.M, lt.B

	for c := 0; c < C; c++ {
		haz[c] = m.hazard(c)
	}

	// Forward.
	for i := 0; i < n; i++ {
		cur := alpha[i]
		clear(cur)
		if i == 0 {
			for r := 0; r < K; r++ {
				cur[r*C] = lt.startWeight(r) * emis[0][r*C]
			}
		} else {
			prev := alpha[i-1]
			// Record-end mass per record at i-1.
			clear(E)
			for r := 0; r < K; r++ {
				for c := 0; c < C; c++ {
					E[r] += prev[r*C+c] * haz[c]
				}
			}
			// Aggregate new-record mass M(r) = Σ_{r0<r} E(r0)·skipW(r−r0−1).
			M[0] = 0
			for r := 1; r < K; r++ {
				M[r] = skip*M[r-1] + (1-skip)*E[r-1]
			}
			pen := lt.contPenalty[i]
			for r := 0; r < K; r++ {
				a, e, ap := cur[r*C:(r+1)*C], emis[i][r*C:(r+1)*C], prev[r*C:(r+1)*C]
				// New record lands in column 0.
				a[0] = M[r] * e[0]
				// Within-record column advances (penalized when the
				// bootstrap demands a record start here).
				for cPrev, p := range ap {
					if zeroProb(p) {
						continue
					}
					stay := p * (1 - haz[cPrev]) * pen
					a[cPrev] += stay * stallWeight * e[cPrev]
					trans := m.Trans[cPrev]
					for c := cPrev + 1; c < C; c++ {
						tr := trans[c]
						if zeroProb(tr) {
							continue
						}
						a[c] += stay * tr * e[c]
					}
				}
			}
		}
		s := 0.0
		for _, v := range cur {
			s += v
		}
		if s <= 0 || math.IsNaN(s) {
			// Degenerate row: no mass, or NaN from overflowed
			// messages. Inject uniform mass so the pass runs to its
			// end; the row's log(1e-300) marks the loglik as
			// degenerate, and a decode that then finds no finite-score
			// path reports errNoPath.
			for k := range cur {
				cur[k] = 1.0 / float64(S)
			}
			s = 1e-300
		}
		scale[i] = s
		inv := 1.0 / s
		for k := range cur {
			cur[k] *= inv
		}
	}

	// Backward, with the final-record closing factor h(c) at i = n−1.
	for r := 0; r < K; r++ {
		copy(beta[n-1][r*C:(r+1)*C], haz)
	}
	B[K-1] = 0
	for i := n - 2; i >= 0; i-- {
		next := i + 1
		en, bn := emis[next], beta[next]
		// eb(r) = emis_{next}(r,0)·beta_{next}(r,0); suffix recurrence
		// B(r) = Σ_{r'>r} skipW(r'−r−1)·eb(r').
		for r := K - 2; r >= 0; r-- {
			eb := en[(r+1)*C] * bn[(r+1)*C]
			B[r] = skip*B[r+1] + (1-skip)*eb
		}
		inv := 1.0 / scale[next]
		pen := lt.contPenalty[next]
		cur := beta[i]
		for r := 0; r < K; r++ {
			e, b := en[r*C:(r+1)*C], bn[r*C:(r+1)*C]
			for c := 0; c < C; c++ {
				v := haz[c] * B[r]
				cont := stallWeight * e[c] * b[c]
				trans := m.Trans[c]
				for c2 := c + 1; c2 < C; c2++ {
					tr := trans[c2]
					if zeroProb(tr) {
						continue
					}
					cont += tr * e[c2] * b[c2]
				}
				v += (1 - haz[c]) * pen * cont
				cur[r*C+c] = v * inv
			}
		}
	}

	for i := 0; i < n; i++ {
		loglik += math.Log(scale[i])
		g, a, b := lt.gamma[i], alpha[i], beta[i]
		z := 0.0
		for k := range g {
			g[k] = a[k] * b[k]
			z += g[k]
		}
		if z > 0 {
			inv := 1.0 / z
			for k := range g {
				g[k] *= inv
			}
		}
	}
	// Closing mass contributes to the likelihood.
	closing := 0.0
	for k := 0; k < S; k++ {
		closing += alpha[n-1][k] * beta[n-1][k]
	}
	if closing > 0 {
		loglik += math.Log(closing)
	}

	// Transition posteriors (column advances and record ends).
	xiCont, endC, endMass := lt.xiCont, lt.endC, lt.endMass
	for _, row := range xiCont {
		clear(row)
	}
	clear(endC)
	for i := 0; i < n-1; i++ {
		next := i + 1
		en, bn := emis[next], beta[next]
		for r := K - 2; r >= 0; r-- {
			eb := en[(r+1)*C] * bn[(r+1)*C]
			B[r] = skip*B[r+1] + (1-skip)*eb
		}
		// Per-position normalizer: total transition mass.
		cells := lt.contCells[:0]
		clear(endMass)
		z := 0.0
		pen := lt.contPenalty[next]
		for r := 0; r < K; r++ {
			a, e, b := alpha[i][r*C:(r+1)*C], en[r*C:(r+1)*C], bn[r*C:(r+1)*C]
			for c, p := range a {
				if zeroProb(p) {
					continue
				}
				mass := p * haz[c] * B[r] / scale[next]
				endMass[c] += mass
				z += mass
				stay := p * (1 - haz[c]) * pen / scale[next]
				trans := m.Trans[c]
				for c2 := c + 1; c2 < C; c2++ {
					tr := trans[c2]
					if zeroProb(tr) {
						continue
					}
					v := stay * tr * e[c2] * b[c2]
					if v > 0 {
						cells = append(cells, contCell{c, c2, v})
						z += v
					}
				}
			}
		}
		if z <= 0 {
			continue
		}
		inv := 1.0 / z
		for _, cc := range cells {
			xiCont[cc.c1][cc.c2] += cc.v * inv
		}
		for c := 0; c < C; c++ {
			endC[c] += endMass[c] * inv
		}
	}
	// Final records end where the chain closes.
	for r := 0; r < K; r++ {
		for c := 0; c < C; c++ {
			endC[c] += lt.gamma[n-1][r*C+c]
		}
	}
	return loglik
}

// segmentReference is SegmentContext with refForwardBackward standing
// in for forwardBackward.
func segmentReference(inst Instance, params Params) (*Result, error) {
	return segmentWith(inst, params, false, (*lattice).refForwardBackward)
}

// segmentWith is SegmentContext, run with pass standing in for
// forwardBackward in every EM iteration and in the confidence pass.
// With fresh set, every pass and the decode run on a new lattice, so
// every buffer starts zeroed.
func segmentWith(inst Instance, params Params, fresh bool, pass func(*lattice) float64) (*Result, error) {
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
	res := &Result{Model: m}
	lt := newLattice(m, inst)
	renew := func() {
		if fresh {
			lt = newLattice(m, inst)
		}
	}
	prev := math.Inf(-1)
	for res.Iters = 1; res.Iters <= params.MaxIter; res.Iters++ {
		renew()
		ll := pass(lt)
		m.mstep(m.posteriorStats(lt))
		lt.refresh()
		res.LogLik = ll
		if !math.IsInf(prev, -1) && math.Abs(ll-prev)/math.Max(math.Abs(prev), 1) < params.Tol {
			break
		}
		prev = ll
	}
	res.Iters = min(res.Iters, params.MaxIter)
	renew()
	var err error
	res.Records, res.Columns, res.MAPLogProb, err = lt.viterbi()
	if err != nil {
		return nil, err
	}
	renew()
	pass(lt)
	for i, r := range res.Records {
		res.Confidence = append(res.Confidence, lt.gamma[i][r*m.C+res.Columns[i]])
	}
	return res, nil
}

// sameSegmentation compares the results of segmenting one instance
// twice: both errNoPath, or the same records, columns and iterations
// and bit-identical log-likelihood, MAP score, confidences and learned
// Theta, Trans and Pi. It returns the first difference, or "".
func sameSegmentation(got *Result, err error, want *Result, werr error) string {
	if errors.Is(err, errNoPath) && errors.Is(werr, errNoPath) {
		return ""
	}
	if err != nil || werr != nil {
		return fmt.Sprintf("errors %v, reference %v", err, werr)
	}
	if got.Iters != want.Iters ||
		!sameBits([]float64{got.LogLik, got.MAPLogProb}, []float64{want.LogLik, want.MAPLogProb}) {
		return fmt.Sprintf("iters %d loglik %v map %v, reference %d %v %v",
			got.Iters, got.LogLik, got.MAPLogProb, want.Iters, want.LogLik, want.MAPLogProb)
	}
	if !slices.Equal(got.Records, want.Records) || !slices.Equal(got.Columns, want.Columns) ||
		!sameBits(got.Confidence, want.Confidence) {
		return "decode differs from the reference"
	}
	gm, wm := got.Model, want.Model
	for c := 0; c < gm.C; c++ {
		if !sameBits(gm.Theta[c], wm.Theta[c]) || !sameBits(gm.Trans[c], wm.Trans[c]) {
			return fmt.Sprintf("column %d parameters differ from the reference", c)
		}
	}
	if !sameBits(gm.Pi, wm.Pi) {
		return fmt.Sprintf("Pi %v, reference %v", gm.Pi, wm.Pi)
	}
	return ""
}

// TestPrunedPassMatchesReference segments random instances at MaxIter
// 8 and the PHMM instances of the 24 Table 4 pages at generator seeds
// 42–45 with forwardBackward and with the reference pass: the results
// must agree bit for bit, or both be errNoPath.
func TestPrunedPassMatchesReference(t *testing.T) {
	rng := testRNG(29)
	for trial := 0; trial < 200; trial++ {
		inst, p := randomInstance(rng)
		p.MaxIter = 8
		got, err := segment(inst, p)
		want, werr := segmentReference(inst, p)
		if diff := sameSegmentation(got, err, want, werr); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
	for seed := int64(42); seed <= 45; seed++ {
		for _, tc := range table4Instances(t, seed) {
			got, err := segment(tc.inst, DefaultParams())
			want, werr := segmentReference(tc.inst, DefaultParams())
			if diff := sameSegmentation(got, err, want, werr); diff != "" {
				t.Fatalf("%s: %s", tc.name, diff)
			}
		}
	}
}
