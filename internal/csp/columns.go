package csp

import (
	"context"
	"fmt"
	"slices"

	"tableseg/internal/token"
)

// AssignColumns implements the §6.3 suggestion that column (attribute)
// assignment is obtainable in the CSP framework too, "by using the
// observation that different values of the same attribute should be
// similar in content, e.g., start with the same token type", expressed
// as constraints:
//
//   - each record-assigned extract takes exactly one column label;
//   - the first extract of a record takes column L1 (the paper's
//     first-column-never-missing assumption);
//   - columns increase strictly within a record (hard);
//   - extracts of neighboring records whose first word has the same
//     syntactic type prefer the same column (soft).
//
// records[i] is the record assignment of analyzed extract i (-1 =
// unassigned); firstTypes[i] is the syntactic type of the extract's
// first word. The result assigns a 0-based column to every
// record-assigned extract and -1 to the rest; flips and restarts count
// the WSAT work of the solve (0 when no solve was needed).
//
// The soft constraints join only consecutive records, so a dynamic
// program along the records computes the lowest soft penalty exactly
// (see columnEncoding.optimum). WSAT runs as SolveWSATContext does,
// but stops at the first flip whose best reaches that optimum: the
// columns are the ones a full run returns, WSAT's pick among tied
// optima included. When the program would be too large, or its
// optimum exceeds HardWeight (an infeasible assignment could then
// score lower), the solve is SolveWSATContext's. Cancellation follows
// SolveWSATContext's restart-boundary polling and returns ctx.Err().
func AssignColumns(ctx context.Context, records []int, firstTypes []token.Type, params WSATParams) (cols []int, flips, restarts int, err error) {
	e := encodeColumns(records, firstTypes)
	if e.p == nil {
		return e.trivial(), 0, 0, nil
	}
	certBudget, floor := certNodes, 0
	if opt, ok := e.optimum(); ok && opt <= params.withDefaults(e.p.NumVars()).HardWeight {
		certBudget, floor = 0, opt
	}
	sol, err := runWSAT(ctx, e.p, params, certBudget, floor)
	if err != nil {
		return nil, 0, 0, err
	}
	return e.decode(sol), sol.Flips, sol.Restarts, nil
}

// columnDPWork caps the work of columnEncoding.optimum, counted as the
// columns of the states it enumerates plus, per pair of consecutive
// records, state pairs times same-type extract pairs. On the Table 4
// corpus at generator seeds 1–45 the largest program does 1,555.
const columnDPWork = 1 << 16

// columnEncoding is the column CSP of one segmentation. The
// record-assigned extracts are grouped by record, records in the order
// their first extracts appear and extracts in stream order within a
// record: record r holds ext[start[r]:start[r+1]]. The extract at
// ext[q], the k-th of its m-extract record, may take the columns of its
// window (see window) through the variables y[ext[q], c] =
// yFirst[q]+c-k.
type columnEncoding struct {
	p       *Problem // nil when no solve is needed
	n       int      // number of analyzed extracts
	numCols int
	ext     []int
	start   []int
	yFirst  []int
	types   []token.Type
}

// window returns the columns the k-th extract of an m-extract record
// may take: the first extract always takes column 0, and the others
// leave room for their neighbors in the record.
func (e *columnEncoding) window(k, m int) (lo, hi int) {
	if k == 0 {
		return 0, 0
	}
	return k, e.numCols - (m - k)
}

// encodeColumns builds the column CSP that AssignColumns solves.
// Variables and constraints are added in a fixed order: the local
// search depends on it.
func encodeColumns(records []int, firstTypes []token.Type) *columnEncoding {
	if len(records) != len(firstTypes) {
		panic(fmt.Sprintf("csp: %d record assignments but %d types", len(records), len(firstTypes)))
	}
	e := &columnEncoding{n: len(records), types: firstTypes}

	// Group the assigned extracts by record, in stream order.
	pos := map[int]int{} // record → its position in stream order
	var count []int
	for _, r := range records {
		if r < 0 {
			continue
		}
		at, ok := pos[r]
		if !ok {
			at = len(count)
			pos[r] = at
			count = append(count, 0)
		}
		count[at]++
	}
	e.start = make([]int, len(count)+1)
	for at, c := range count {
		e.start[at+1] = e.start[at] + c
		e.numCols = max(e.numCols, c)
	}
	e.ext = make([]int, e.start[len(count)])
	for i, r := range records {
		if r < 0 {
			continue
		}
		at := pos[r]
		e.ext[e.start[at+1]-count[at]] = i
		count[at]--
	}
	if e.numCols <= 1 {
		return e
	}

	p := NewProblem()
	e.p = p
	e.yFirst = make([]int, len(e.ext))
	for r := 0; r+1 < len(e.start); r++ {
		m := e.start[r+1] - e.start[r]
		for k := 0; k < m; k++ {
			q := e.start[r] + k
			lo, hi := e.window(k, m)
			terms := make([]Term, 0, hi-lo+1)
			for c := lo; c <= hi; c++ {
				v := p.AddVar()
				if c == lo {
					e.yFirst[q] = v
				}
				terms = append(terms, Term{1, v})
			}
			p.AddHard(terms, EQ, 1, "col-uniq")
		}
		// Strict increase between consecutive extracts of the record.
		// (Iterate columns in numeric order: constraint order must be
		// deterministic or the local search becomes run-dependent.)
		for k := 1; k < m; k++ {
			q := e.start[r] + k
			loPrev, hiPrev := e.window(k-1, m)
			lo, hi := e.window(k, m)
			for cPrev := loPrev; cPrev <= hiPrev; cPrev++ {
				for cCur := lo; cCur <= min(cPrev, hi); cCur++ {
					p.AddHard([]Term{{1, e.yFirst[q-1] + cPrev - (k - 1)}, {1, e.yFirst[q] + cCur - k}}, LE, 1, "col-order")
				}
			}
		}
	}

	// Soft alignment between neighboring records: same first token type
	// wants the same column.
	for r := 1; r+1 < len(e.start); r++ {
		mPrev, m := e.start[r]-e.start[r-1], e.start[r+1]-e.start[r]
		for kPrev := 0; kPrev < mPrev; kPrev++ {
			qPrev := e.start[r-1] + kPrev
			loPrev, hiPrev := e.window(kPrev, mPrev)
			for k := 0; k < m; k++ {
				q := e.start[r] + k
				if firstTypes[e.ext[qPrev]] != firstTypes[e.ext[q]] {
					continue
				}
				lo, hi := e.window(k, m)
				for c := max(lo, loPrev); c <= min(hi, hiPrev); c++ {
					// |y_ic − y_jc| = 0 preferred.
					p.AddSoft([]Term{{1, e.yFirst[qPrev] + c - kPrev}, {-1, e.yFirst[q] + c - k}}, EQ, 0, 1, "col-align")
				}
			}
		}
	}
	return e
}

// trivial is the result when no solve is needed: every record has at
// most one extract, which takes column 0.
func (e *columnEncoding) trivial() []int {
	out := e.unassigned()
	for _, i := range e.ext {
		out[i] = 0
	}
	return out
}

func (e *columnEncoding) unassigned() []int {
	out := make([]int, e.n)
	for i := range out {
		out[i] = -1
	}
	return out
}

// decode reads the columns off a solution.
func (e *columnEncoding) decode(sol *Solution) []int {
	out := e.unassigned()
	for r := 0; r+1 < len(e.start); r++ {
		m := e.start[r+1] - e.start[r]
		for k := 0; k < m; k++ {
			q := e.start[r] + k
			if !sol.Feasible {
				// The hard constraints are always satisfiable (k-th
				// extract → column k is a witness); an infeasible
				// local-search outcome just means the search budget ran
				// dry, so fall back to that witness assignment.
				out[e.ext[q]] = k
				continue
			}
			lo, hi := e.window(k, m)
			for c := lo; c <= hi; c++ {
				if sol.Assign[e.yFirst[q]+c-k] {
					out[e.ext[q]] = c
					break
				}
			}
		}
	}
	return out
}

// optimum returns the lowest soft penalty of a hard-feasible
// assignment, or ok false when computing it would take more than
// columnDPWork.
//
// The hard-feasible assignments give each record one state: the
// strictly increasing column sequence of its extracts, starting at
// column 0. The col-align constraints join only consecutive records,
// so a dynamic program along the records is exact: the cheapest
// sequence of states ending in state s of record r costs the cheapest
// one ending in a state s' of record r-1 plus the penalty between s'
// and s. That penalty sums over each pair (i, j) of a same-type
// extract of r-1 and one of r: 0 when i and j take the same column,
// else [col(i) in j's window] + [col(j) in i's window].
func (e *columnEncoding) optimum() (opt int, ok bool) {
	nrec := len(e.start) - 1
	work, nStates, nCols, prevStates := 0, 0, 0, 0
	for r := 0; r < nrec; r++ {
		m := e.start[r+1] - e.start[r]
		s := binomial(e.numCols-1, m-1, columnDPWork)
		work += s * m
		nCols += s * m
		if r > 0 {
			if prevStates*s > columnDPWork {
				return 0, false
			}
			work += prevStates * s * max(1, e.sameTypePairs(r))
		}
		if work > columnDPWork {
			return 0, false
		}
		nStates += s
		prevStates = s
	}

	// The states of every record, flat: record r's are firstState[r]
	// .. firstState[r+1]-1, and the k-th column of its i-th state is
	// cols[firstCol[r]+i*m+k]. cost[s] is the cheapest sequence of
	// states ending in state s.
	firstState := make([]int, nrec+1)
	firstCol := make([]int, nrec)
	cols := make([]int, 0, nCols)
	cost := make([]int, nStates)
	var pairs []columnPair
	for r := 0; r < nrec; r++ {
		m := e.start[r+1] - e.start[r]
		firstCol[r] = len(cols)
		cols = e.appendStates(cols, m)
		firstState[r+1] = firstState[r] + (len(cols)-firstCol[r])/m
		if r == 0 {
			continue
		}
		mPrev := e.start[r] - e.start[r-1]
		pairs = pairs[:0]
		for kPrev := 0; kPrev < mPrev; kPrev++ {
			for k := 0; k < m; k++ {
				if e.types[e.ext[e.start[r-1]+kPrev]] == e.types[e.ext[e.start[r]+k]] {
					pr := columnPair{kPrev: kPrev, k: k}
					pr.loPrev, pr.hiPrev = e.window(kPrev, mPrev)
					pr.lo, pr.hi = e.window(k, m)
					pairs = append(pairs, pr)
				}
			}
		}
		for s := firstState[r]; s < firstState[r+1]; s++ {
			at := firstCol[r] + (s-firstState[r])*m
			seq := cols[at : at+m]
			best := -1
			for sPrev := firstState[r-1]; sPrev < firstState[r]; sPrev++ {
				at := firstCol[r-1] + (sPrev-firstState[r-1])*mPrev
				prev := cols[at : at+mPrev]
				c := cost[sPrev]
				for _, pr := range pairs {
					ci, cj := prev[pr.kPrev], seq[pr.k]
					if ci == cj {
						continue
					}
					if pr.lo <= ci && ci <= pr.hi {
						c++
					}
					if pr.loPrev <= cj && cj <= pr.hiPrev {
						c++
					}
				}
				if best < 0 || c < best {
					best = c
				}
			}
			cost[s] = best
		}
	}
	return slices.Min(cost[firstState[nrec-1]:]), true
}

// columnPair is a same-type pair of extracts of consecutive records:
// the kPrev-th of the earlier record and the k-th of the later, with
// their column windows.
type columnPair struct {
	kPrev, k, loPrev, hiPrev, lo, hi int
}

// appendStates appends the states of an m-extract record to cols, m
// columns each, in lexicographic order: 0, 1, ..., m-1 first, then
// each state's successor, up to the last that fits in numCols.
func (e *columnEncoding) appendStates(cols []int, m int) []int {
	first := len(cols)
	for k := 0; k < m; k++ {
		cols = append(cols, k)
	}
	for {
		// The successor bumps the last column that can still grow
		// (the first never can) and packs the rest after it.
		k := m - 1
		for k > 0 && cols[first+k] == e.numCols-m+k {
			k--
		}
		if k == 0 {
			return cols
		}
		next := len(cols)
		cols = append(cols, cols[first:first+m]...)
		cols[next+k]++
		for j := k + 1; j < m; j++ {
			cols[next+j] = cols[next+j-1] + 1
		}
		first = next
	}
}

// sameTypePairs counts the same-type extract pairs between records r-1
// and r.
func (e *columnEncoding) sameTypePairs(r int) int {
	n := 0
	for _, i := range e.ext[e.start[r-1]:e.start[r]] {
		for _, j := range e.ext[e.start[r]:e.start[r+1]] {
			if e.types[i] == e.types[j] {
				n++
			}
		}
	}
	return n
}

// binomial returns n choose k (0 ≤ k ≤ n), or limit+1 when that
// exceeds limit.
func binomial(n, k, limit int) int {
	k = min(k, n-k)
	c := 1
	for i := 1; i <= k; i++ {
		c = c * (n - k + i) / i
		if c > limit {
			return limit + 1
		}
	}
	return c
}
