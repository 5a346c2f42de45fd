package csp

import (
	"math/rand"
	"testing"
)

// superpagesInput reproduces the paper's Table 1 observation matrix:
// 11 extracts, 3 records. Record indices are 0-based here (r1→0).
func superpagesInput() SegmentInput {
	return SegmentInput{
		NumRecords: 3,
		Candidates: [][]int{
			{0, 1}, // E1  John Smith
			{0},    // E2  221 Washington
			{0},    // E3  New Holland
			{0, 1}, // E4  (740) 335-5555
			{0, 1}, // E5  John Smith
			{1},    // E6  221R Washington
			{1},    // E7  Washington
			{0, 1}, // E8  (740) 335-5555
			{2},    // E9  George W. Smith
			{2},    // E10 Findlay, OH
			{2},    // E11 (419) 423-1212
		},
		// Table 3: on page r1, E1/E5 share position 730 and E4/E8 share
		// position 846; on page r2, E1/E5 share 536 and E4/E8 share 578.
		PositionGroups: map[int][][]int{
			0: {{0, 4}, {3, 7}},
			1: {{0, 4}, {3, 7}},
		},
	}
}

// wantSuperpages is the paper's Table 2 assignment.
var wantSuperpages = []int{0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2}

func TestEncodeSuperpagesStructure(t *testing.T) {
	in := superpagesInput()
	enc := Encode(in, Strict)
	if got := enc.NumAssignVars(); got != 15 {
		t.Errorf("assignment vars = %d, want 15 (11 extracts, 4 with |D|=2)", got)
	}
	// Records 0 and 1 both have split candidate runs? Record 0's
	// candidates are E1..E5,E8 (gap at E6,E7): two blocks. Record 1's
	// candidates are E1,E4,E5..E8 (gap at E2,E3): two blocks.
	if enc.NumBlockVars() != 4 {
		t.Errorf("block vars = %d, want 4 (two blocks for r1, two for r2)", enc.NumBlockVars())
	}
	tags := map[string]int{}
	for _, c := range enc.Problem.Constraints {
		tags[c.Tag]++
	}
	if tags["uniq"] != 11 {
		t.Errorf("uniqueness constraints = %d, want 11", tags["uniq"])
	}
	if tags["pos"] != 4 {
		t.Errorf("position constraints = %d, want 4", tags["pos"])
	}
	if tags["consec"] == 0 {
		t.Error("no consecutiveness constraints")
	}
}

func TestSolveSuperpagesReproducesTable2(t *testing.T) {
	in := superpagesInput()
	for seed := int64(0); seed < 3; seed++ {
		res := solveSegmentation(in, SolveParams{WSAT: WSATParams{Seed: seed}, ExactCheck: true})
		if res.Status != Solved {
			t.Fatalf("seed %d: status %v", seed, res.Status)
		}
		for i, want := range wantSuperpages {
			if res.Records[i] != want {
				t.Errorf("seed %d: E%d → r%d, want r%d (full: %v)", seed, i+1, res.Records[i]+1, want+1, res.Records)
				break
			}
		}
	}
}

func TestSolveWithoutPositionConstraints(t *testing.T) {
	// Even without Table 3, consecutiveness + uniqueness forces the
	// Table 2 segmentation (the paper argues this in §3.3).
	in := superpagesInput()
	in.PositionGroups = nil
	res := solveSegmentation(in, SolveParams{WSAT: WSATParams{Seed: 5}, ExactCheck: true})
	if res.Status != Solved {
		t.Fatalf("status %v", res.Status)
	}
	for i, want := range wantSuperpages {
		if res.Records[i] != want {
			t.Fatalf("E%d → r%d, want r%d (full: %v)", i+1, res.Records[i]+1, want+1, res.Records)
		}
	}
}

func TestSolveDirtyDataRelaxes(t *testing.T) {
	// Michigan-style inconsistency: an extract (say the status of
	// record 2) was only observed on an unrelated detail page r0,
	// while its neighbors pin the segment to r2 — strict constraints
	// become unsatisfiable, the ladder must produce a partial
	// assignment instead of failing.
	in := SegmentInput{
		NumRecords: 3,
		Candidates: [][]int{
			{0}, {0}, // record 0's fields
			{1}, {1}, // record 1's fields
			{2}, {0}, {2}, // record 2: middle field polluted → claims r0
		},
	}
	res := solveSegmentation(in, SolveParams{WSAT: WSATParams{Seed: 1}, ExactCheck: true})
	if res.Status != SolvedRelaxed {
		t.Fatalf("status = %v, want SolvedRelaxed", res.Status)
	}
	if !res.Relaxed {
		t.Error("Relaxed flag not set")
	}
	// Without the ladder the same instance fails, and the relaxed rung
	// never ran.
	if res := solveSegmentation(in, SolveParams{WSAT: WSATParams{Seed: 1}, ExactCheck: true, NoRelax: true}); res.Status != Failed || res.Relaxed {
		t.Errorf("NoRelax: status = %v, relaxed = %v, want failed, false", res.Status, res.Relaxed)
	}
	// The polluted extract must be left unassigned; the clean ones
	// keep their records.
	if res.Records[5] != -1 {
		t.Errorf("polluted extract assigned to %d, want unassigned", res.Records[5])
	}
	for i, want := range []int{0, 0, 1, 1} {
		if res.Records[i] != want {
			t.Errorf("extract %d → %d, want %d", i, res.Records[i], want)
		}
	}
	// Extracts 4 and 6 straddle the polluted extract 5: under the
	// paper's consecutiveness definition only one of them can join r2
	// (the other stays unassigned in the partial solution).
	assigned := 0
	for _, i := range []int{4, 6} {
		switch res.Records[i] {
		case 2:
			assigned++
		case -1:
		default:
			t.Errorf("extract %d → %d, want 2 or unassigned", i, res.Records[i])
		}
	}
	if assigned != 1 {
		t.Errorf("extracts {4,6}: %d assigned to r2, want exactly 1 (consecutiveness)", assigned)
	}
}

func TestSolveUniquenessInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 25; trial++ {
		in := randomCleanInstance(rng)
		res := solveSegmentation(in, SolveParams{WSAT: WSATParams{Seed: int64(trial)}, ExactCheck: true})
		if res.Status == Failed {
			t.Fatalf("trial %d: failed on clean instance", trial)
		}
		checkSegmentInvariants(t, in, res)
	}
}

// randomCleanInstance generates a noiseless segmentation instance:
// records laid out in order, each extract observed on its own record's
// page, with some extracts shared across a random subset of records.
func randomCleanInstance(rng *rand.Rand) SegmentInput {
	numRecords := 2 + rng.Intn(6)
	var cands [][]int
	for r := 0; r < numRecords; r++ {
		fields := 2 + rng.Intn(4)
		for f := 0; f < fields; f++ {
			d := []int{r}
			// A shared value (same name/phone) may also occur on a
			// later record's page.
			if rng.Intn(4) == 0 && r+1 < numRecords {
				d = append(d, r+1)
			}
			cands = append(cands, d)
		}
	}
	return SegmentInput{NumRecords: numRecords, Candidates: cands}
}

// checkSegmentInvariants verifies the §4.1 constraints on a result.
func checkSegmentInvariants(t *testing.T, in SegmentInput, res *SegmentResult) {
	t.Helper()
	// Uniqueness: each extract at most one record, and the record must
	// be a candidate.
	for i, r := range res.Records {
		if r < 0 {
			continue
		}
		if !containsInt(in.Candidates[i], r) {
			t.Errorf("extract %d assigned to non-candidate record %d (D=%v)", i, r, in.Candidates[i])
		}
	}
	// Consecutiveness: assigned extracts of each record form a
	// contiguous run among assigned positions.
	byRecord := map[int][]int{}
	for i, r := range res.Records {
		if r >= 0 {
			byRecord[r] = append(byRecord[r], i)
		}
	}
	for r, idxs := range byRecord {
		for k := 1; k < len(idxs); k++ {
			for n := idxs[k-1] + 1; n < idxs[k]; n++ {
				if res.Records[n] != -1 && res.Records[n] != r {
					t.Errorf("record %d not consecutive: extract %d (→%d) sits between %d and %d", r, n, res.Records[n], idxs[k-1], idxs[k])
				}
			}
		}
	}
}

func TestCandidateBlocks(t *testing.T) {
	cands := [][]int{{0}, {0, 1}, {2}, {0}, {0}}
	blocks := candidateBlocks(cands, 0)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %v", blocks)
	}
	if len(blocks[0]) != 2 || blocks[0][0] != 0 || blocks[0][1] != 1 {
		t.Errorf("block 0 = %v", blocks[0])
	}
	if len(blocks[1]) != 2 || blocks[1][0] != 3 {
		t.Errorf("block 1 = %v", blocks[1])
	}
	if got := candidateBlocks(cands, 9); got != nil {
		t.Errorf("no-candidate record: %v", got)
	}
}

func TestConsecutivenessCutsDetectHoles(t *testing.T) {
	in := SegmentInput{
		NumRecords: 1,
		Candidates: [][]int{{0}, {0}, {0}},
	}
	enc := Encode(in, Relaxed)
	// Simulate a holey assignment: extracts 0 and 2 in record 0,
	// extract 1 unassigned.
	cuts := enc.ConsecutivenessCuts([]int{0, -1, 0})
	if len(cuts) != 1 {
		t.Fatalf("cuts = %v", cuts)
	}
	if cuts[0].Op != LE || cuts[0].RHS != 1 || len(cuts[0].Terms) != 3 {
		t.Errorf("cut shape: %v", cuts[0])
	}
	if got := enc.ConsecutivenessCuts([]int{0, 0, 0}); len(got) != 0 {
		t.Errorf("contiguous assignment produced cuts: %v", got)
	}
}

func TestDecodeUnassigned(t *testing.T) {
	in := SegmentInput{NumRecords: 2, Candidates: [][]int{{0}, {1}}}
	enc := Encode(in, Relaxed)
	assign := make([]bool, enc.Problem.NumVars())
	recs := enc.Decode(assign)
	if recs[0] != -1 || recs[1] != -1 {
		t.Errorf("all-false assignment decoded to %v", recs)
	}
}

func TestStatusAndLevelStrings(t *testing.T) {
	if Solved.String() != "solved" || SolvedRelaxed.String() != "solved-relaxed" || Failed.String() != "failed" {
		t.Error("status strings")
	}
	if Strict.String() != "strict" || Relaxed.String() != "relaxed" {
		t.Error("level strings")
	}
}

func TestSolveEmptyInstance(t *testing.T) {
	res := solveSegmentation(SegmentInput{NumRecords: 0}, SolveParams{})
	if res.Status != Solved || len(res.Records) != 0 {
		t.Errorf("empty instance: %+v", res)
	}
}

// Property: Encode's structure is sound for arbitrary instances — every
// assignment variable appears in exactly one uniqueness constraint, and
// Decode respects candidate sets for any assignment the solver could
// produce.
func TestEncodeStructureProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		numRecords := 1 + rng.Intn(5)
		n := rng.Intn(12)
		in := SegmentInput{NumRecords: numRecords}
		for i := 0; i < n; i++ {
			var d []int
			for r := 0; r < numRecords; r++ {
				if rng.Intn(3) == 0 {
					d = append(d, r)
				}
			}
			in.Candidates = append(in.Candidates, d)
		}
		for _, level := range []RelaxLevel{Strict, Relaxed} {
			enc := Encode(in, level)
			// Count uniqueness memberships per assignment variable.
			seen := make(map[int]int)
			for _, c := range enc.Problem.Constraints {
				if c.Tag != "uniq" {
					continue
				}
				for _, term := range c.Terms {
					seen[term.Var]++
				}
			}
			for i := range in.Candidates {
				for j, v := range enc.varOf[i] {
					if seen[v] != 1 {
						t.Fatalf("trial %d level %v: x[%d,%d] in %d uniqueness constraints", trial, level, i, j, seen[v])
					}
				}
			}
			// Decode of a random assignment only yields candidates.
			assign := make([]bool, enc.Problem.NumVars())
			for k := range assign {
				assign[k] = rng.Intn(2) == 0
			}
			for i, r := range enc.Decode(assign) {
				if r >= 0 && !containsInt(in.Candidates[i], r) {
					t.Fatalf("trial %d: decoded non-candidate record %d for extract %d", trial, r, i)
				}
			}
		}
	}
}
