package phmm

import (
	"math"
	"math/rand"
	"testing"

	"tableseg/internal/token"
)

// bruteForce enumerates every valid (R, C) path of the lattice and
// computes the exact total likelihood, per-position posteriors and the
// best path, using the same potentials as the production code but via
// independent, direct enumeration. It is the ground truth for
// forwardBackward and viterbi on tiny instances.
type bfResult struct {
	total   float64
	gamma   [][]float64 // [i][r*C+c]
	bestLP  float64
	bestRec []int
	bestCol []int
}

func bruteForce(lt *lattice) *bfResult {
	m, n, K, C := lt.m, lt.n, lt.m.K, lt.m.C
	skip := m.params.SkipPenalty
	haz := make([]float64, C)
	for c := 0; c < C; c++ {
		haz[c] = m.hazard(c)
	}

	res := &bfResult{
		gamma:  make([][]float64, n),
		bestLP: math.Inf(-1),
	}
	for i := range res.gamma {
		res.gamma[i] = make([]float64, K*C)
	}

	recs := make([]int, n)
	cols := make([]int, n)
	var walk func(i int, w float64)
	walk = func(i int, w float64) {
		if w == 0 {
			return
		}
		if i == n {
			// Close the final record.
			w *= haz[cols[n-1]]
			if w == 0 {
				return
			}
			res.total += w
			for k := 0; k < n; k++ {
				res.gamma[k][recs[k]*C+cols[k]] += w
			}
			if lp := math.Log(w); lp > res.bestLP {
				res.bestLP = lp
				res.bestRec = append(res.bestRec[:0], recs...)
				res.bestCol = append(res.bestCol[:0], cols...)
			}
			return
		}
		if i == 0 {
			for r := 0; r < K; r++ {
				recs[0], cols[0] = r, 0
				walk(1, w*lt.startWeight(r)*lt.emis[0][r*C])
			}
			return
		}
		rPrev, cPrev := recs[i-1], cols[i-1]
		pen := lt.contPenalty[i]
		// Continue the record: stall or advance.
		stay := w * (1 - haz[cPrev]) * pen
		recs[i] = rPrev
		cols[i] = cPrev
		walk(i+1, stay*stallWeight*lt.emis[i][rPrev*C+cPrev])
		for c := cPrev + 1; c < C; c++ {
			cols[i] = c
			walk(i+1, stay*m.Trans[cPrev][c]*lt.emis[i][rPrev*C+c])
		}
		// Start a new record (skipping empty records geometrically).
		for r := rPrev + 1; r < K; r++ {
			skipW := 1 - skip
			for k := 0; k < r-rPrev-1; k++ {
				skipW *= skip
			}
			recs[i], cols[i] = r, 0
			walk(i+1, w*haz[cPrev]*skipW*lt.emis[i][r*C])
		}
	}
	walk(0, 1)

	if res.total > 0 {
		for i := range res.gamma {
			for k := range res.gamma[i] {
				res.gamma[i][k] /= res.total
			}
		}
	}
	return res
}

// tinyInstance builds a random small instance for enumeration.
func tinyInstance(rng *rand.Rand) Instance {
	n := 3 + rng.Intn(3) // 3..5 extracts
	k := 2 + rng.Intn(2) // 2..3 records
	var inst Instance
	inst.NumRecords = k
	pool := []token.Type{
		token.TypeOf("Name"),
		token.TypeOf("123"),
		token.TypeOf("lower"),
		token.TypeOf("CAPS"),
	}
	for i := 0; i < n; i++ {
		inst.TypeVecs = append(inst.TypeVecs, pool[rng.Intn(len(pool))].Vector())
		// Random candidate subsets (possibly empty).
		var cands []int
		for r := 0; r < k; r++ {
			if rng.Intn(2) == 0 {
				cands = append(cands, r)
			}
		}
		inst.Candidates = append(inst.Candidates, cands)
	}
	return inst
}

// TestForwardBackwardMatchesEnumeration verifies that the structured
// forward–backward pass computes exactly the posteriors of the
// enumerated path distribution.
func TestForwardBackwardMatchesEnumeration(t *testing.T) {
	rng := testRNG(17)
	for trial := 0; trial < 30; trial++ {
		inst := tinyInstance(rng)
		p := DefaultParams()
		p.Seed = int64(trial)
		cols := deriveColumns(inst)
		m := NewModel(inst.NumRecords, cols, p)
		lt := newLattice(m, inst)

		bf := bruteForce(lt)
		if bf.total == 0 {
			continue // fully blocked lattice; nothing to compare
		}
		ll := lt.forwardBackward()

		if wantLL := math.Log(bf.total); math.Abs(ll-wantLL) > 1e-6*math.Abs(wantLL)+1e-9 {
			t.Fatalf("trial %d: loglik %.12f, enumeration %.12f", trial, ll, wantLL)
		}
		for i := range bf.gamma {
			for k := range bf.gamma[i] {
				if math.Abs(lt.gamma[i][k]-bf.gamma[i][k]) > 1e-8 {
					t.Fatalf("trial %d: gamma[%d][%d] = %.12f, enumeration %.12f",
						trial, i, k, lt.gamma[i][k], bf.gamma[i][k])
				}
			}
		}
	}
}

// TestViterbiMatchesEnumeration verifies that Viterbi finds the exact
// maximum-probability path.
func TestViterbiMatchesEnumeration(t *testing.T) {
	rng := testRNG(23)
	for trial := 0; trial < 30; trial++ {
		inst := tinyInstance(rng)
		p := DefaultParams()
		p.Seed = int64(trial)
		cols := deriveColumns(inst)
		m := NewModel(inst.NumRecords, cols, p)
		lt := newLattice(m, inst)

		bf := bruteForce(lt)
		if math.IsInf(bf.bestLP, -1) {
			continue
		}
		recs, colsGot, lp, err := lt.viterbi()
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if math.Abs(lp-bf.bestLP) > 1e-6*math.Abs(bf.bestLP)+1e-9 {
			t.Fatalf("trial %d: viterbi score %.12f, enumeration %.12f\n viterbi %v/%v\n brute   %v/%v",
				trial, lp, bf.bestLP, recs, colsGot, bf.bestRec, bf.bestCol)
		}
		// The decoded path must score what viterbi claims (path
		// identity can differ only under exact ties).
		if pathScore(lt, recs, colsGot)-lp > 1e-9 || lp-pathScore(lt, recs, colsGot) > 1e-6*math.Abs(lp)+1e-9 {
			t.Fatalf("trial %d: decoded path scores %.12f, viterbi claims %.12f", trial, pathScore(lt, recs, colsGot), lp)
		}
	}
}

// pathScore recomputes the log-probability of a concrete (R, C) path.
func pathScore(lt *lattice, recs, cols []int) float64 {
	m := lt.m
	C := m.C
	skip := m.params.SkipPenalty
	haz := func(c int) float64 { return m.hazard(c) }
	logv := func(x float64) float64 {
		if x <= 0 {
			return math.Inf(-1)
		}
		return math.Log(x)
	}
	lp := logv(lt.startWeight(recs[0])) + logv(lt.emis[0][recs[0]*C+cols[0]])
	if cols[0] != 0 {
		return math.Inf(-1)
	}
	for i := 1; i < len(recs); i++ {
		rp, cp, r, c := recs[i-1], cols[i-1], recs[i], cols[i]
		switch {
		case r == rp && c == cp:
			lp += logv(1-haz(cp)) + logv(lt.contPenalty[i]) + logv(stallWeight)
		case r == rp && c > cp:
			lp += logv(1-haz(cp)) + logv(lt.contPenalty[i]) + logv(m.Trans[cp][c])
		case r > rp && c == 0:
			w := 1 - skip
			for k := 0; k < r-rp-1; k++ {
				w *= skip
			}
			lp += logv(haz(cp)) + logv(w)
		default:
			return math.Inf(-1)
		}
		lp += logv(lt.emis[i][r*C+c])
	}
	lp += logv(haz(cols[len(cols)-1]))
	return lp
}
