package phmm

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"tableseg/internal/token"
)

// randomInstance draws an instance of up to 25 records and 120
// extracts, laid out in record order with noisy candidate sets (empty,
// random, or the true record plus an occasional stray), and parameters
// with the period model on or off and the column count set or derived.
func randomInstance(rng *rand.Rand) (Instance, Params) {
	k := 1 + rng.Intn(25)
	n := 1 + rng.Intn(120)
	pool := []token.Type{
		token.TypeOf("Name"), token.TypeOf("123"), token.TypeOf("lower"),
		token.TypeOf("CAPS"), token.TypeOf("(740)") | token.TypeOf("335-5555"),
		token.TypeOf("John") | token.TypeOf("Smith"),
	}
	inst := Instance{NumRecords: k}
	for i := 0; i < n; i++ {
		inst.TypeVecs = append(inst.TypeVecs, pool[rng.Intn(len(pool))].Vector())
		in := make([]bool, k)
		switch rng.Intn(6) {
		case 0: // no evidence
		case 1:
			for j := 0; j <= rng.Intn(3); j++ {
				in[rng.Intn(k)] = true
			}
		default:
			in[i*k/n] = true
			if rng.Intn(3) == 0 {
				in[rng.Intn(k)] = true
			}
		}
		var cands []int
		for r, ok := range in {
			if ok {
				cands = append(cands, r)
			}
		}
		inst.Candidates = append(inst.Candidates, cands)
	}
	p := DefaultParams()
	p.PeriodModel = rng.Intn(2) == 0
	if rng.Intn(2) == 0 {
		p.MaxColumns = 2 + rng.Intn(6)
	}
	p.Seed = rng.Int63()
	return inst, p
}

// segmentFresh is the reference for the reused workspace: SegmentContext
// with a new lattice for every EM iteration, for the decode and for the
// confidence pass, so every buffer starts zeroed.
func segmentFresh(inst Instance, params Params) (*Result, error) {
	return segmentWith(inst, params, true, (*lattice).forwardBackward)
}

// sameBits reports whether a and b hold bit-identical floats.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestReusedLatticeMatchesFreshLattices fits and decodes each random
// instance on one reused lattice and on fresh ones: any buffer a pass
// leaves dirty for the next shows up as a differing bit.
func TestReusedLatticeMatchesFreshLattices(t *testing.T) {
	rng := testRNG(31)
	for trial := 0; trial < 200; trial++ {
		inst, p := randomInstance(rng)
		p.MaxIter = 8 // a dirty buffer shows from the second iteration on
		got, err := segment(inst, p)
		want, werr := segmentFresh(inst, p)
		if diff := sameSegmentation(got, err, want, werr); diff != "" {
			t.Fatalf("trial %d: %s", trial, diff)
		}
	}
}

// flat copies rows into one slice.
func flat(rows [][]float64) []float64 {
	var out []float64
	for _, row := range rows {
		out = append(out, row...)
	}
	return out
}

// TestForwardBackwardRepeatable runs the pass twice on one lattice: the
// second must reproduce the first's posteriors exactly.
func TestForwardBackwardRepeatable(t *testing.T) {
	inst := superpagesInstance()
	m := NewModel(inst.NumRecords, deriveColumns(inst), DefaultParams())
	lt := newLattice(m, inst)
	ll := lt.forwardBackward()
	gamma, xi, endC := flat(lt.gamma), flat(lt.xiCont), append([]float64(nil), lt.endC...)
	ll2 := lt.forwardBackward()
	if !sameBits([]float64{ll}, []float64{ll2}) || !sameBits(gamma, flat(lt.gamma)) ||
		!sameBits(xi, flat(lt.xiCont)) || !sameBits(endC, lt.endC) {
		t.Fatal("a second pass on the same lattice changed the posteriors")
	}
}

// TestEMIterationAllocatesNothing: once the workspace exists, an EM
// iteration (refresh, E-step, M-step) allocates nothing.
func TestEMIterationAllocatesNothing(t *testing.T) {
	inst := superpagesInstance()
	m := NewModel(inst.NumRecords, deriveColumns(inst), DefaultParams())
	lt := newLattice(m, inst)
	allocs := testing.AllocsPerRun(10, func() {
		lt.refresh()
		st, _ := m.estep(lt)
		m.mstep(st)
	})
	if allocs != 0 {
		t.Fatalf("one EM iteration allocates %v times", allocs)
	}
}

// TestSegmentOverflowedMessagesIsAnError: on one record of 80 identical
// extracts in two columns, the backward messages overflow during EM and
// NaN reaches the parameters. The decode must report that no path
// survives rather than backtrack through an unset pointer.
func TestSegmentOverflowedMessagesIsAnError(t *testing.T) {
	var inst Instance
	inst.NumRecords = 1
	for i := 0; i < 80; i++ {
		inst.TypeVecs = append(inst.TypeVecs, typeVec(token.TypeOf("Solo")))
		inst.Candidates = append(inst.Candidates, []int{0})
	}
	p := DefaultParams()
	p.MaxColumns = 2
	if res, err := segment(inst, p); !errors.Is(err, errNoPath) {
		t.Fatalf("got %+v, %v; want errNoPath", res, err)
	}
}
