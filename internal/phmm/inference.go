package phmm

import (
	"errors"
	"math"

	"tableseg/internal/token"
)

// stallWeight is a tiny probability of remaining in the same column for
// one step. The paper's model advances columns strictly, but degenerate
// inputs (whole-page fallback with very long runs) can otherwise exhaust
// the column set and disconnect the lattice; the stall keeps every
// position reachable at negligible probability.
const stallWeight = 1e-6

// pruneFloor is the scaled mass below which forwardBackward's first
// attempt zeroes a forward or backward cell. Mass that the evidence
// has left behind, or not yet reached, shrinks by ε and a stall or
// column advance at every position and falls through the subnormal
// doubles on its way to 0; on x86 every multiplication with a
// subnormal operand or result costs tens of normal ones. 2^-500 is the
// largest power of two whose square is still a normal double, so the
// product α·β of two kept cells is never subnormal.
const pruneFloor = 0x1p-500

// certSpan is the pruned attempt's certificate: every posterior and
// transition normalizer is at least 1/certSpan, and every state whose
// forward cell is zero has β at most certSpan times its position's
// posterior normalizer. A zeroed cell then carries less than
// pruneFloor·certSpan = 2^-100 of any normalizer it enters, 47 binary
// orders below the last bit of a double.
const certSpan = 0x1p400

// errNoPath reports a decode in which every (R, C) path scores −Inf:
// the model gives the whole instance zero probability.
var errNoPath = errors.New("phmm: no segmentation path has nonzero probability")

// lattice is the workspace of one instance under one model. newLattice
// allocates every table and buffer of forwardBackward and the E-step
// once; refresh and the passes then overwrite them in place, so an EM
// iteration allocates nothing, the rerun of a pass whose pruned
// attempt failed its certificate included. viterbi allocates its own
// score tables, once per decode.
type lattice struct {
	m    *Model
	inst Instance
	n    int
	// contPenalty[i] multiplies within-record continuation into
	// position i: 1 normally, a small factor when the bootstrap says
	// S_i = true (D_{i-1} ∩ D_i = ∅). Softness keeps dirty data (whose
	// spurious disjointness can demand more record starts than records
	// exist) from making the whole lattice unreachable.
	contPenalty []float64
	// evid[i][r] = w_i(r), the detail-page evidence; fixed for the
	// instance.
	evid [][]float64
	// emis[i][r*C+c] = w_i(r) · P(T_i | C=c), recomputed by refresh
	// whenever Theta changes.
	emis [][]float64
	// typeP[c] = P(T_i | C=c) for the row refresh is filling.
	typeP []float64

	// The forward and backward messages and the posteriors
	// gamma[i][r*C+c] = P(R_i=r, C_i=c | observations), as rows of
	// width K·C; forwardBackward overwrites them. After a certified
	// pruned attempt, alpha and beta hold 0 in every cell that fell
	// below pruneFloor, and gamma 0 where either did.
	alpha, beta, gamma [][]float64
	// Per-pass scratch of forwardBackward: the per-position scaling,
	// the hazard h(c), the record-end (E), new-record (M) and suffix
	// (B) aggregates over records, and one position's transition mass.
	scale, haz, E, M, B, endMass []float64
	contCells                    []contCell
	// The sufficient statistics: forwardBackward fills xiCont and
	// endC, estep typeTrue and colMass.
	emStats
}

// contCell is one within-record column advance c1→c2 at a position,
// with its unnormalized posterior mass.
type contCell struct {
	c1, c2 int
	v      float64
}

// rows returns n rows of width w cut from one contiguous allocation.
func rows(n, w int) [][]float64 {
	buf := make([]float64, n*w)
	out := make([][]float64, n)
	for i := range out {
		out[i] = buf[i*w : (i+1)*w : (i+1)*w]
	}
	return out
}

func newLattice(m *Model, inst Instance) *lattice {
	n, K, C := len(inst.TypeVecs), m.K, m.C
	S := K * C
	lt := &lattice{
		m: m, inst: inst, n: n,
		contPenalty: make([]float64, n),
		evid:        rows(n, K),
		emis:        rows(n, S),
		typeP:       make([]float64, C),
		alpha:       rows(n, S),
		beta:        rows(n, S),
		gamma:       rows(n, S),
		scale:       make([]float64, n),
		haz:         make([]float64, C),
		E:           make([]float64, K),
		M:           make([]float64, K),
		B:           make([]float64, K),
		endMass:     make([]float64, C),
		// At most one cell per record and column pair c1 < c2.
		contCells: make([]contCell, 0, K*C*(C-1)/2),
		emStats: emStats{
			typeTrue: rows(C, token.NumTypes),
			colMass:  make([]float64, C),
			xiCont:   rows(C, C),
			endC:     make([]float64, C),
		},
	}
	soft := m.params.Epsilon
	if soft < 1e-12 {
		soft = 1e-12
	}
	forced := forcedStarts(inst.Candidates)
	for i := range lt.contPenalty {
		if forced[i] {
			lt.contPenalty[i] = soft
		} else {
			lt.contPenalty[i] = 1
		}
	}
	for i, w := range lt.evid {
		for r := range w {
			w[r] = evidence(inst.Candidates[i], r, m.params.Epsilon)
		}
	}
	lt.refresh()
	return lt
}

// refresh recomputes the emission rows from the model's current Theta.
func (lt *lattice) refresh() {
	m, C := lt.m, lt.m.C
	for i, row := range lt.emis {
		for c := 0; c < C; c++ {
			lt.typeP[c] = m.emitType(lt.inst.TypeVecs[i], c)
		}
		for r, w := range lt.evid[i] {
			for c, p := range lt.typeP {
				row[r*C+c] = w * p
			}
		}
	}
}

// startWeight is the prior for the first observed record being r:
// geometric in the number of skipped leading records.
func (lt *lattice) startWeight(r int) float64 {
	skip := lt.m.params.SkipPenalty
	w := 1 - skip
	for k := 0; k < r; k++ {
		w *= skip
	}
	return w
}

// forwardBackward runs the structured forward–backward pass of §5.2.3
// over the current emissions and returns the scaled-forward
// log-likelihood. It leaves the posteriors in gamma, the expected count
// of within-record column transitions c→c' in xiCont[c][c'] and the
// expected count of records ending at column c in endC[c], overwriting
// the previous pass's; it allocates nothing. The record-skip
// transitions are aggregated with prefix/suffix recurrences so the pass
// costs O(n·K·C²) rather than O(n·(K·C)²).
//
// The first attempt zeroes every scaled cell below pruneFloor, which
// spares the subnormal arithmetic of decayed mass, and is kept when
// its certificate (certSpan) holds. Otherwise the passes run again
// unpruned, operand for operand the arithmetic of a pass that never
// prunes. The certificate bounds what pruning drops far below the last
// bit of every output; TestPrunedPassMatchesReference and
// TestPHMMSegmentationsDigest check that no bit moves.
func (lt *lattice) forwardBackward() (loglik float64) {
	if ll, ok := lt.passes(pruneFloor); ok {
		return ll
	}
	ll, _ := lt.passes(0)
	return ll
}

// passes runs forwardBackward's passes with every scaled forward and
// backward cell below floor zeroed. With floor > 0 it checks the
// certificate in the posterior and transition loops and returns false
// at its first failure, a NaN or a row left with no mass included;
// with floor 0 it zeroes nothing, checks nothing and returns true.
// Every kept cell keeps its operands and their order.
func (lt *lattice) passes(floor float64) (loglik float64, certified bool) {
	m, n, K, C := lt.m, lt.n, lt.m.K, lt.m.C
	certify := floor > 0
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
			if certify {
				return 0, false
			}
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
			if cur[k] < floor {
				cur[k] = 0
			}
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
				if v *= inv; v < floor {
					v = 0
				}
				cur[r*C+c] = v
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
		if certify {
			if !(z >= 1/certSpan) {
				return 0, false
			}
			bound := z * certSpan
			for k, p := range a {
				if zeroProb(p) && !(b[k] <= bound) {
					return 0, false
				}
			}
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
		if certify && !(z >= 1/certSpan) {
			return 0, false
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
	return loglik, true
}

// viterbi computes the MAP (R, C) assignment (arg max P(R,C|T,D)) over
// the current emissions. It returns errNoPath when every path scores
// −Inf.
func (lt *lattice) viterbi() (records, columns []int, logProb float64, err error) {
	m, n, K, C := lt.m, lt.n, lt.m.K, lt.m.C
	S := K * C
	skip := m.params.SkipPenalty
	logv := func(x float64) float64 {
		if x <= 0 {
			return math.Inf(-1)
		}
		return math.Log(x)
	}
	// The logs of the position-independent potentials, taken once. A
	// zero transition's log is −Inf, which never wins a max.
	logHaz, logCont := make([]float64, C), make([]float64, C)
	logTrans := make([]float64, C*C)
	for c := 0; c < C; c++ {
		h := m.hazard(c)
		logHaz[c], logCont[c] = logv(h), logv(1-h)
		for c2 := c + 1; c2 < C; c2++ {
			logTrans[c*C+c2] = logv(m.Trans[c][c2])
		}
	}
	logSkip, logStay, logStall := logv(skip), logv(1-skip), logv(stallWeight)

	// delta[i*S+k] is the best score of a path ending in state k at
	// position i, back[i*S+k] its predecessor state (−1 at i = 0).
	delta := make([]float64, n*S)
	back := make([]int, n*S)
	for k := 0; k < S; k++ {
		delta[k], back[k] = math.Inf(-1), -1
	}
	for r := 0; r < K; r++ {
		delta[r*C] = logv(lt.startWeight(r)) + logv(lt.emis[0][r*C])
	}
	// endBest/endFrom: per record, the best record-closing score at the
	// previous position; M/MFrom: the max-plus prefix aggregation of
	// "start a new record at r" (mirrors the forward pass's linear-time
	// skip recurrence, keeping Viterbi O(n·K·C²)).
	endBest := make([]float64, K)
	endFrom := make([]int, K)
	M := make([]float64, K)
	MFrom := make([]int, K)
	for i := 1; i < n; i++ {
		prev, cur, bk := delta[(i-1)*S:i*S], delta[i*S:(i+1)*S], back[i*S:(i+1)*S]
		for r0 := 0; r0 < K; r0++ {
			endBest[r0], endFrom[r0] = math.Inf(-1), -1
			for c0 := 0; c0 < C; c0++ {
				if v := prev[r0*C+c0] + logHaz[c0]; v > endBest[r0] {
					endBest[r0], endFrom[r0] = v, r0*C+c0
				}
			}
		}
		M[0], MFrom[0] = math.Inf(-1), -1
		for r := 1; r < K; r++ {
			M[r], MFrom[r] = M[r-1]+logSkip, MFrom[r-1]
			if v := endBest[r-1] + logStay; v > M[r] {
				M[r], MFrom[r] = v, endFrom[r-1]
			}
		}
		penLog := logv(lt.contPenalty[i])
		emis := lt.emis[i]
		for r := 0; r < K; r++ {
			for c := 0; c < C; c++ {
				emisLog := logv(emis[r*C+c])
				bestV, bestFrom := math.Inf(-1), -1
				// New record from any earlier record's end.
				if c == 0 && MFrom[r] >= 0 {
					bestV, bestFrom = M[r]+emisLog, MFrom[r]
				}
				// Within-record stall (same column, tiny weight) or
				// advance, penalized at bootstrap-forced starts.
				if v := prev[r*C+c] + logCont[c] + logStall + penLog + emisLog; v > bestV {
					bestV, bestFrom = v, r*C+c
				}
				for c0 := 0; c0 < c; c0++ {
					v := prev[r*C+c0] + logCont[c0] + logTrans[c0*C+c] + penLog + emisLog
					if v > bestV {
						bestV, bestFrom = v, r*C+c0
					}
				}
				cur[r*C+c], bk[r*C+c] = bestV, bestFrom
			}
		}
	}
	// Close the final record.
	bestEnd, bestK := math.Inf(-1), -1
	last := delta[(n-1)*S:]
	for r := 0; r < K; r++ {
		for c := 0; c < C; c++ {
			if v := last[r*C+c] + logHaz[c]; v > bestEnd {
				bestEnd, bestK = v, r*C+c
			}
		}
	}
	if bestK < 0 {
		return nil, nil, bestEnd, errNoPath
	}
	// A finite score was reached from a finite predecessor at every
	// position, so the back pointers along the path are all set.
	records = make([]int, n)
	columns = make([]int, n)
	k := bestK
	for i := n - 1; i >= 0; i-- {
		records[i] = k / C
		columns[i] = k % C
		k = back[i*S+k]
	}
	return records, columns, bestEnd, nil
}
