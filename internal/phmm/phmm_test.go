package phmm

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"tableseg/internal/token"
)

// typeVec builds a T_i vector from a token type.
func typeVec(ty token.Type) [token.NumTypes]bool { return ty.Vector() }

// superpagesInstance mirrors the paper's Table 1 example: 11 extracts,
// 3 records, with name and phone values shared between records 1 and 2.
func superpagesInstance() Instance {
	name := typeVec(token.TypeOf("John") | token.TypeOf("Smith"))
	addr := typeVec(token.TypeOf("221") | token.TypeOf("Washington"))
	city := typeVec(token.TypeOf("New") | token.TypeOf("Holland"))
	phone := typeVec(token.TypeOf("(740)") | token.TypeOf("335-5555"))
	return Instance{
		NumRecords: 3,
		TypeVecs: [][token.NumTypes]bool{
			name, addr, city, phone,
			name, addr, city, phone,
			name, city, phone,
		},
		Candidates: [][]int{
			{0, 1}, {0}, {0}, {0, 1},
			{0, 1}, {1}, {1}, {0, 1},
			{2}, {2}, {2},
		},
	}
}

var wantSuperpages = []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2}

func TestSegmentSuperpages(t *testing.T) {
	res, err := segment(superpagesInstance(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wantSuperpages {
		if res.Records[i] != want {
			t.Fatalf("E%d → r%d, want r%d (full: %v)", i+1, res.Records[i]+1, want+1, res.Records)
		}
	}
	// Record starts get column 0 (first column never missing, §5.1).
	for _, start := range []int{0, 4, 8} {
		if res.Columns[start] != 0 {
			t.Errorf("extract %d column = %d, want 0", start, res.Columns[start])
		}
	}
	// Columns strictly increase within a record.
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i] == res.Records[i-1] && res.Columns[i] <= res.Columns[i-1] {
			t.Errorf("columns not increasing within record at %d: %v / %v", i, res.Records, res.Columns)
		}
	}
}

func TestSegmentRecordsMonotone(t *testing.T) {
	res, err := segment(superpagesInstance(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Records); i++ {
		if res.Records[i] < res.Records[i-1] {
			t.Fatalf("record numbers decreased at %d: %v", i, res.Records)
		}
	}
}

func TestSegmentToleratesDirtyData(t *testing.T) {
	// The Michigan scenario that breaks the CSP: one extract's D points
	// at an unrelated record. The soft model must still produce the
	// contextually correct segmentation.
	inst := superpagesInstance()
	inst.Candidates[9] = []int{0} // "Findlay, OH" polluted: seen only on r1's page
	res, err := segment(inst, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	// The surrounding context (E9 and E11 pin r3, consecutive) should
	// pull E10 into record 3 despite the bad evidence.
	if res.Records[8] != 2 || res.Records[10] != 2 {
		t.Fatalf("anchor extracts moved: %v", res.Records)
	}
	if res.Records[9] != 2 {
		t.Errorf("polluted extract → r%d, want r3 (soft evidence should tolerate): %v", res.Records[9]+1, res.Records)
	}
}

func TestEpsilonGovernsDirtyDataCost(t *testing.T) {
	// Even with near-hard evidence the sequential structure recovers
	// the right segmentation here (the polluted extract cannot jump
	// backward past monotone record numbers) — but the model must pay
	// for the inconsistency: the data likelihood under near-hard
	// evidence is far lower than under the soft default. This is the
	// quantitative face of the robustness the paper credits the
	// probabilistic approach with (§6.3).
	inst := superpagesInstance()
	inst.Candidates[9] = []int{0}

	soft, err := segment(inst, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	p := DefaultParams()
	p.Epsilon = 1e-12
	hard, err := segment(inst, p)
	if err != nil {
		t.Fatal(err)
	}
	if hard.Records[9] != 2 || soft.Records[9] != 2 {
		t.Fatalf("both variants should still recover E10→r3: soft %v hard %v", soft.Records, hard.Records)
	}
	if hard.LogLik >= soft.LogLik {
		t.Errorf("near-hard evidence loglik %.3f not below soft %.3f", hard.LogLik, soft.LogLik)
	}
}

func TestForcedStarts(t *testing.T) {
	cands := [][]int{{0}, {0, 1}, {1}, {2}, nil, {2}}
	got := forcedStarts(cands)
	want := []bool{false, false, false, true, false, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("forcedStarts[%d] = %v, want %v (cands=%v)", i, got[i], want[i], cands)
		}
	}
}

func TestIntersects(t *testing.T) {
	cases := []struct {
		a, b []int
		want bool
	}{
		{[]int{1, 3}, []int{3, 5}, true},
		{[]int{1, 3}, []int{2, 4}, false},
		{nil, []int{1}, false},
		{[]int{0}, []int{0}, true},
	}
	for _, c := range cases {
		if got := intersects(c.a, c.b); got != c.want {
			t.Errorf("intersects(%v,%v) = %v", c.a, c.b, got)
		}
	}
}

func TestEvidence(t *testing.T) {
	if evidence([]int{1, 3}, 3, 0.01) != 1.0 {
		t.Error("member should get weight 1")
	}
	if evidence([]int{1, 3}, 2, 0.01) != 0.01 {
		t.Error("non-member should get epsilon")
	}
	if evidence(nil, 5, 0.01) != 1.0 {
		t.Error("empty D is uniform")
	}
}

func TestGammaNormalized(t *testing.T) {
	inst := superpagesInstance()
	p := DefaultParams()
	m := NewModel(inst.NumRecords, deriveColumns(inst), p)
	lt := newLattice(m, inst)
	ll := lt.forwardBackward()
	for i, g := range lt.gamma {
		s := 0.0
		for _, v := range g {
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Errorf("gamma[%d] sums to %g", i, s)
		}
	}
	if math.IsNaN(ll) || math.IsInf(ll, 1) {
		t.Errorf("loglik = %v", ll)
	}
}

func TestEMLikelihoodNondecreasing(t *testing.T) {
	inst := superpagesInstance()
	p := DefaultParams()
	m := NewModel(inst.NumRecords, deriveColumns(inst), p)
	prev := math.Inf(-1)
	for iter := 0; iter < 10; iter++ {
		lt := newLattice(m, inst)
		st, ll := m.estep(lt)
		if ll < prev-1e-6 {
			t.Fatalf("iteration %d: loglik decreased %.9f → %.9f", iter, prev, ll)
		}
		prev = ll
		m.mstep(st)
	}
}

func TestMStepDistributionsValid(t *testing.T) {
	inst := superpagesInstance()
	p := DefaultParams()
	m := NewModel(inst.NumRecords, deriveColumns(inst), p)
	lt := newLattice(m, inst)
	st, _ := m.estep(lt)
	m.mstep(st)
	for c := 0; c < m.C; c++ {
		for j := 0; j < token.NumTypes; j++ {
			if m.Theta[c][j] <= 0 || m.Theta[c][j] >= 1 {
				t.Errorf("Theta[%d][%d] = %g out of (0,1)", c, j, m.Theta[c][j])
			}
		}
		if c+1 < m.C {
			s := 0.0
			for c2 := c + 1; c2 < m.C; c2++ {
				s += m.Trans[c][c2]
				if m.Trans[c][c2] < 0 {
					t.Errorf("Trans[%d][%d] negative", c, c2)
				}
			}
			if math.Abs(s-1) > 1e-9 {
				t.Errorf("Trans[%d] sums to %g", c, s)
			}
		}
	}
	s := 0.0
	for _, v := range m.Pi {
		s += v
		if v < 0 {
			t.Error("negative Pi entry")
		}
	}
	if math.Abs(s-1) > 1e-9 {
		t.Errorf("Pi sums to %g", s)
	}
}

func TestPeriodModelLearnsLength(t *testing.T) {
	// 5 clean records of exactly 4 fields each: π must concentrate on
	// ending at column 3 (0-based).
	var inst Instance
	inst.NumRecords = 5
	fieldTypes := [][token.NumTypes]bool{
		typeVec(token.TypeOf("Name") | token.TypeOf("Here")),
		typeVec(token.TypeOf("123")),
		typeVec(token.TypeOf("City")),
		typeVec(token.TypeOf("555-1212")),
	}
	for r := 0; r < 5; r++ {
		for f := 0; f < 4; f++ {
			inst.TypeVecs = append(inst.TypeVecs, fieldTypes[f])
			inst.Candidates = append(inst.Candidates, []int{r})
		}
	}
	res, err := segment(inst, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	pi := res.Model.Pi
	best := 0
	for c := range pi {
		if pi[c] > pi[best] {
			best = c
		}
	}
	if best != 3 {
		t.Errorf("period mode at column %d, want 3 (π = %v)", best, pi)
	}
	for i := range inst.TypeVecs {
		if res.Records[i] != i/4 {
			t.Errorf("extract %d → record %d, want %d", i, res.Records[i], i/4)
		}
	}
}

func TestFigure2VariantStillSegments(t *testing.T) {
	p := DefaultParams()
	p.PeriodModel = false
	res, err := segment(superpagesInstance(), p)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wantSuperpages {
		if res.Records[i] != want {
			t.Fatalf("figure-2 variant: E%d → r%d, want r%d", i+1, res.Records[i]+1, want+1)
		}
	}
}

func TestValidate(t *testing.T) {
	if err := validate(Instance{NumRecords: 0}); err == nil {
		t.Error("zero records must fail")
	}
	if err := validate(Instance{NumRecords: 1, TypeVecs: make([][token.NumTypes]bool, 2), Candidates: make([][]int, 1)}); err == nil {
		t.Error("length mismatch must fail")
	}
	if err := validate(Instance{NumRecords: 1, TypeVecs: make([][token.NumTypes]bool, 1), Candidates: [][]int{{5}}}); err == nil {
		t.Error("out-of-range record must fail")
	}
	if err := validate(Instance{NumRecords: 3, TypeVecs: make([][token.NumTypes]bool, 1), Candidates: [][]int{{2, 1}}}); err == nil {
		t.Error("unsorted candidates must fail")
	}
	if err := validate(superpagesInstance()); err != nil {
		t.Errorf("valid instance rejected: %v", err)
	}
}

func TestSegmentEmptyInstance(t *testing.T) {
	res, err := segment(Instance{NumRecords: 2}, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Records) != 0 {
		t.Errorf("empty instance: %v", res.Records)
	}
}

// TestFitContextEmptyInstance: FitContext validates its instance as
// SegmentContext does, and an instance with no extracts fits nothing
// instead of indexing an empty lattice.
func TestFitContextEmptyInstance(t *testing.T) {
	m := NewModel(2, 2, DefaultParams())
	ll, iters, err := m.FitContext(context.Background(), Instance{NumRecords: 2})
	if err != nil || math.Abs(ll) > 0 || iters != 0 {
		t.Errorf("FitContext(no extracts) = (%v, %d, %v), want (0, 0, nil)", ll, iters, err)
	}
	if _, _, err := m.FitContext(context.Background(), Instance{}); err == nil {
		t.Error("FitContext accepted an instance with no records")
	}
}

func TestDeriveColumns(t *testing.T) {
	inst := superpagesInstance()
	if got := deriveColumns(inst); got != 6 {
		// Records 0 and 1 each observe 6 analyzed extracts.
		t.Errorf("deriveColumns = %d, want 6", got)
	}
	if got := deriveColumns(Instance{NumRecords: 1, Candidates: [][]int{{0}}}); got != 2 {
		t.Errorf("minimum clamp: %d", got)
	}
}

// Property: on randomly generated clean instances, the MAP segmentation
// recovers the true record boundaries.
func TestSegmentCleanRandomInstances(t *testing.T) {
	rng := testRNG(9)
	for trial := 0; trial < 15; trial++ {
		numRecords := 2 + rng.Intn(5)
		fields := 2 + rng.Intn(3)
		var inst Instance
		inst.NumRecords = numRecords
		var want []int
		baseTypes := []token.Type{
			token.TypeOf("Alpha") | token.TypeOf("Beta"),
			token.TypeOf("123"),
			token.TypeOf("lower"),
			token.TypeOf("CAPS"),
			token.TypeOf("Mixed1x"),
		}
		for r := 0; r < numRecords; r++ {
			for f := 0; f < fields; f++ {
				inst.TypeVecs = append(inst.TypeVecs, baseTypes[f%len(baseTypes)].Vector())
				inst.Candidates = append(inst.Candidates, []int{r})
				want = append(want, r)
			}
		}
		res, err := segment(inst, DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if res.Records[i] != want[i] {
				t.Errorf("trial %d (K=%d F=%d): extract %d → %d, want %d", trial, numRecords, fields, i, res.Records[i], want[i])
				break
			}
		}
	}
}

// Property: the Viterbi path never violates structural invariants
// (monotone records, increasing columns, column 0 at starts) for any
// epsilon and skip penalty.
func TestViterbiStructuralInvariants(t *testing.T) {
	f := func(seedRaw int64) bool {
		rng := testRNG(seedRaw)
		inst := superpagesInstance()
		p := DefaultParams()
		p.Epsilon = 1e-4 + rng.Float64()*0.1
		p.SkipPenalty = 0.01 + rng.Float64()*0.3
		p.Seed = seedRaw
		res, err := segment(inst, p)
		if err != nil {
			return false
		}
		for i := 1; i < len(res.Records); i++ {
			if res.Records[i] < res.Records[i-1] {
				return false
			}
			if res.Records[i] == res.Records[i-1] && res.Columns[i] <= res.Columns[i-1] {
				return false
			}
			if res.Records[i] > res.Records[i-1] && res.Columns[i] != 0 {
				return false
			}
		}
		return res.Columns[0] == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestConfidenceCalibration(t *testing.T) {
	res, err := segment(superpagesInstance(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Confidence) != 11 {
		t.Fatalf("%d confidences", len(res.Confidence))
	}
	for i, c := range res.Confidence {
		if c < 0 || c > 1+1e-9 {
			t.Errorf("confidence[%d] = %f out of [0,1]", i, c)
		}
	}
	// Unambiguous extracts (single-candidate D) should be held with
	// high confidence.
	for _, i := range []int{1, 2, 8, 9, 10} { // E2, E3, E9, E10, E11
		if res.Confidence[i] < 0.8 {
			t.Errorf("unambiguous extract %d confidence %f", i, res.Confidence[i])
		}
	}
}

func TestConfidenceIsMAPPosterior(t *testing.T) {
	// Confidence must be exactly the fitted model's posterior mass at
	// the decoded MAP state. (Note: EM sharpens posteriors toward its
	// own fixed point, so even structurally ambiguous extracts end up
	// confident after fitting — the confidence is honest about the
	// fitted model, not about pre-fit ambiguity.)
	inst := superpagesInstance()
	params := DefaultParams()
	res, err := segment(inst, params)
	if err != nil {
		t.Fatal(err)
	}
	// Recompute posteriors under the returned model.
	lt := newLattice(res.Model, inst)
	lt.forwardBackward()
	for i := range res.Records {
		want := lt.gamma[i][res.Records[i]*res.Model.C+res.Columns[i]]
		if math.Abs(res.Confidence[i]-want) > 1e-12 {
			t.Errorf("confidence[%d] = %.15f, posterior %.15f", i, res.Confidence[i], want)
		}
	}
}

func TestParamsClamping(t *testing.T) {
	p := Params{Epsilon: -5, SkipPenalty: 3, MaxIter: -1, Tol: -1, MaxColumns: -2}.withDefaults()
	if p.Epsilon != 1e-3 || p.SkipPenalty != 0.95 || p.MaxIter != 30 || p.Tol != 1e-6 || p.MaxColumns != 0 {
		t.Errorf("clamped params: %+v", p)
	}
	big := Params{Epsilon: 7}.withDefaults()
	if big.Epsilon != 1 {
		t.Errorf("epsilon > 1 not clamped: %f", big.Epsilon)
	}
	// Zero selects the soft default, not hard evidence.
	if zero := (Params{Epsilon: 0}).withDefaults(); zero.Epsilon != 1e-3 {
		t.Errorf("epsilon 0 became %g, want the default 1e-3", zero.Epsilon)
	}
	// Degenerate params must not crash inference.
	res, err := segment(superpagesInstance(), Params{Epsilon: -1, SkipPenalty: 99})
	if err != nil || len(res.Records) != 11 {
		t.Errorf("degenerate params: %v, %v", res, err)
	}
}

func TestSegmentDegenerateShapes(t *testing.T) {
	one := typeVec(token.TypeOf("Solo"))
	// Single extract, single record.
	res, err := segment(Instance{
		NumRecords: 1,
		TypeVecs:   [][token.NumTypes]bool{one},
		Candidates: [][]int{{0}},
	}, DefaultParams())
	if err != nil || len(res.Records) != 1 || res.Records[0] != 0 || res.Columns[0] != 0 {
		t.Errorf("single extract: %+v, %v", res, err)
	}
	// One record, many extracts (longer than the column cap): the
	// stall transition must keep the lattice connected.
	var long Instance
	long.NumRecords = 1
	for i := 0; i < 20; i++ {
		long.TypeVecs = append(long.TypeVecs, one)
		long.Candidates = append(long.Candidates, []int{0})
	}
	res, err = segment(long, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res.Records {
		if r != 0 {
			t.Fatalf("extract %d → record %d on a 1-record instance", i, r)
		}
	}
	// Many records, one extract each, all with empty evidence.
	var blind Instance
	blind.NumRecords = 3
	for i := 0; i < 3; i++ {
		blind.TypeVecs = append(blind.TypeVecs, one)
		blind.Candidates = append(blind.Candidates, nil)
	}
	if _, err := segment(blind, DefaultParams()); err != nil {
		t.Errorf("evidence-free instance: %v", err)
	}
}
