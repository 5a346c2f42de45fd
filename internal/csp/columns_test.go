package csp

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"tableseg/internal/sitegen"
	"tableseg/internal/stage"
	"tableseg/internal/token"
)

func TestAssignColumnsCleanRecords(t *testing.T) {
	// Three records of three extracts each: Name (capitalized),
	// Address (numeric-ish), Phone (numeric). Columns must be 0,1,2
	// per record.
	name := token.TypeOf("John")
	num := token.TypeOf("221")
	records := []int{0, 0, 0, 1, 1, 1, 2, 2, 2}
	types := []token.Type{name, num, num, name, num, num, name, num, num}
	cols := assignColumns(t, records, types, WSATParams{Seed: 1})
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("cols = %v, want %v", cols, want)
		}
	}
}

func TestAssignColumnsMissingField(t *testing.T) {
	// Record 1 misses its middle field (address): the phone extract
	// should align with the other records' phone column (2), not take
	// column 1, because its first token type matches theirs. The
	// address type must genuinely differ from the phone type ("221B"
	// is ALNUM only; "(740)" is ALNUM|NUMERIC) or the alignment pull
	// is tied.
	name := token.TypeOf("John")
	addr := token.TypeOf("221B")
	phone := token.TypeOf("(740)")
	records := []int{0, 0, 0, 1, 1, 2, 2, 2}
	types := []token.Type{name, addr, phone, name, phone, name, addr, phone}
	cols := assignColumns(t, records, types, WSATParams{Seed: 1})
	want := []int{0, 1, 2, 0, 2, 0, 1, 2}
	for i := range want {
		if cols[i] != want[i] {
			t.Fatalf("cols = %v, want %v (missing field should skip its column)", cols, want)
		}
	}
}

func TestAssignColumnsUnassignedExtracts(t *testing.T) {
	records := []int{0, -1, 0}
	types := []token.Type{token.TypeOf("A"), token.TypeOf("x"), token.TypeOf("1")}
	cols := assignColumns(t, records, types, WSATParams{Seed: 1})
	if cols[1] != -1 {
		t.Errorf("unassigned extract got column %d", cols[1])
	}
	if cols[0] != 0 || cols[2] != 1 {
		t.Errorf("cols = %v", cols)
	}
}

func TestAssignColumnsEmptyAndSingle(t *testing.T) {
	if got := assignColumns(t, nil, nil, WSATParams{}); len(got) != 0 {
		t.Error("empty input")
	}
	got := assignColumns(t, []int{-1, -1}, make([]token.Type, 2), WSATParams{})
	if got[0] != -1 || got[1] != -1 {
		t.Errorf("all-unassigned: %v", got)
	}
	one := assignColumns(t, []int{0}, []token.Type{token.TypeOf("A")}, WSATParams{})
	if one[0] != 0 {
		t.Errorf("single extract column = %d", one[0])
	}
}

func TestAssignColumnsFirstColumnForced(t *testing.T) {
	// Whatever the types, the first extract of each record gets L1.
	records := []int{0, 0, 1, 1, 1}
	types := []token.Type{token.TypeOf("1"), token.TypeOf("A"), token.TypeOf("A"), token.TypeOf("1"), token.TypeOf("x")}
	cols := assignColumns(t, records, types, WSATParams{Seed: 2})
	if cols[0] != 0 || cols[2] != 0 {
		t.Errorf("record starts not at column 0: %v", cols)
	}
	// Columns strictly increase within each record.
	if !(cols[0] < cols[1]) || !(cols[2] < cols[3] && cols[3] < cols[4]) {
		t.Errorf("columns not increasing: %v", cols)
	}
}

func TestAssignColumnsPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	assignColumns(t, []int{0}, nil, WSATParams{})
}

// columnTypes are the first-word types random column instances draw
// from: few enough that neighboring records share types often.
var columnTypes = []token.Type{token.TypeOf("John"), token.TypeOf("221"), token.TypeOf("(740)")}

// randomColumnInstance draws a stream of extracts over up to maxRecords
// records (a few unassigned), in stream order or shuffled, with up to
// maxPerRecord extracts per record.
func randomColumnInstance(rng *rand.Rand, maxRecords, maxPerRecord int) ([]int, []token.Type) {
	var records []int
	nrec := 1 + rng.Intn(maxRecords)
	for r := 0; r < nrec; r++ {
		for k := 1 + rng.Intn(maxPerRecord); k > 0; k-- {
			records = append(records, r)
		}
		if rng.Intn(4) == 0 {
			records = append(records, -1)
		}
	}
	if rng.Intn(3) == 0 {
		rng.Shuffle(len(records), func(i, j int) { records[i], records[j] = records[j], records[i] })
	}
	types := make([]token.Type, len(records))
	for i := range types {
		types[i] = columnTypes[rng.Intn(len(columnTypes))]
	}
	return records, types
}

// The dynamic program must find the same optimum as brute force over
// every assignment of the column encoding's variables.
func TestColumnOptimumMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked, positive := 0, 0
	for checked < 300 {
		records, types := randomColumnInstance(rng, 5, 4)
		e := encodeColumns(records, types)
		if e.p == nil || e.p.NumVars() > 16 {
			continue
		}
		checked++
		want, count := bruteForceOptimum(e.p)
		if count == 0 {
			t.Fatalf("records %v: no hard-feasible assignment", records)
		}
		got, ok := e.optimum()
		if !ok || got != want {
			t.Fatalf("records %v, types %v: optimum %d (ok %v), brute force %d", records, types, got, ok, want)
		}
		if want > 0 {
			positive++
		}
	}
	if positive == 0 {
		t.Error("weak coverage: every optimum was 0")
	}
}

// checkColumns solves records and types with AssignColumns and with a
// full WSAT run over the same encoding (neither early stop), and fails
// unless the columns agree, the early stop flips no more than the full
// run and the columns are well formed. With proof set it also fails
// when the early stop flips more, or restarts more often, than
// SolveWSATContext's proof after the first restart.
func checkColumns(t *testing.T, name string, records []int, types []token.Type, params WSATParams, proof bool) {
	t.Helper()
	ctx := context.Background()
	cols, flips, restarts, err := AssignColumns(ctx, records, types, params)
	if err != nil {
		t.Fatal(err)
	}
	checkColumnShape(t, name, records, cols)
	e := encodeColumns(records, types)
	if e.p == nil {
		if flips != 0 || restarts != 0 {
			t.Fatalf("%s: %d flips, %d restarts without a solve", name, flips, restarts)
		}
		return
	}
	full, err := runWSAT(ctx, e.p, params, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if want := e.decode(full); !reflect.DeepEqual(cols, want) {
		t.Fatalf("%s: columns %v, full run %v", name, cols, want)
	}
	if flips > full.Flips {
		t.Fatalf("%s: %d flips, full run %d", name, flips, full.Flips)
	}
	if !proof {
		return
	}
	stop, err := runWSAT(ctx, e.p, params, certNodes, 0)
	if err != nil {
		t.Fatal(err)
	}
	if flips > stop.Flips || restarts > stop.Restarts {
		t.Fatalf("%s: %d flips, %d restarts; with the proof %d flips, %d restarts",
			name, flips, restarts, stop.Flips, stop.Restarts)
	}
}

// checkColumnShape fails unless unassigned extracts have column -1,
// each record's first extract takes column 0 and columns strictly
// increase within a record.
func checkColumnShape(t *testing.T, name string, records, cols []int) {
	t.Helper()
	last := map[int]int{}
	for i, r := range records {
		if r < 0 {
			if cols[i] != -1 {
				t.Fatalf("%s: unassigned extract %d has column %d", name, i, cols[i])
			}
			continue
		}
		prev, seen := last[r]
		if !seen && cols[i] != 0 || seen && cols[i] <= prev {
			t.Fatalf("%s: records %v, columns %v: extract %d out of order", name, records, cols, i)
		}
		last[r] = cols[i]
	}
}

// columnInput is the input of one column solve: the records and the
// first-word types of one segmentation's analyzed extracts.
type columnInput struct {
	name    string
	records []int
	types   []token.Type
}

// table4ColumnInputs returns the column solves of the CSP method on the
// 24 Table 4 pages at a generator seed: each page's records under
// SolveSegmentationContext's default parameters, with the first-word
// types of its analyzed extracts. Pages whose segmentation fails are
// left out.
func table4ColumnInputs(t testing.TB, seed int64) []columnInput {
	t.Helper()
	var out []columnInput
	for _, in := range table4SegmentInputs(t, seed) {
		seg, err := SolveSegmentationContext(context.Background(), in.SegmentInput, SolveParams{})
		if err != nil {
			t.Fatal(err)
		}
		if seg.Status == Failed {
			continue
		}
		out = append(out, columnInput{name: in.name, records: seg.Records, types: in.types})
	}
	return out
}

// segmentCase is the segmentation instance of one list page, with the
// first-word types of its analyzed extracts.
type segmentCase struct {
	name string
	SegmentInput
	types []token.Type
}

// table4SegmentInputs returns the segmentation instances of the 24
// Table 4 pages at a generator seed. It runs the stage functions as
// the pipeline does under core.DefaultOptions(CSP), coverage retry
// included; pages the pipeline rejects before segmenting are left out.
func table4SegmentInputs(t testing.TB, seed int64) []segmentCase {
	t.Helper()
	ctx := context.Background()
	var out []segmentCase
	for _, prof := range sitegen.Profiles() {
		site := sitegen.Generate(prof, seed)
		for target := range site.Lists {
			var lists, details []stage.Page
			for _, l := range site.Lists {
				lists = append(lists, stage.Page{HTML: l.HTML})
			}
			for _, d := range site.Lists[target].Details {
				details = append(details, stage.Page{HTML: d})
			}
			toks, err := stage.Tokenize(ctx, stage.TokenizeIn{ListPages: lists, DetailPages: details})
			if err != nil {
				t.Fatal(err)
			}
			tpl, err := stage.InduceTemplate(ctx, stage.TemplateIn{Lists: toks.Lists})
			if err != nil {
				t.Fatal(err)
			}
			slot, err := stage.SelectSlot(ctx, stage.SlotIn{Template: tpl, Lists: toks.Lists, Target: target, MinSlotQuality: 0.5})
			if err != nil {
				continue
			}
			var others []stage.TokenizedPage
			others = append(others, toks.Lists[:target]...)
			others = append(others, toks.Lists[target+1:]...)
			observe := func(slot stage.Slot) (*stage.ObservationMatrix, error) {
				exs, err := stage.Extract(ctx, stage.ExtractIn{Target: toks.Lists[target], Slot: slot})
				if err != nil {
					return nil, err
				}
				return stage.Observe(ctx, stage.ObserveIn{Extracts: exs, Details: toks.Details, OtherLists: stage.TokensOf(others)})
			}
			m, err := observe(slot)
			if err == nil && !slot.WholePage && !m.Covered {
				m, err = observe(stage.Slot{Start: 0, End: len(toks.Lists[target].Tokens), WholePage: true})
			}
			if err != nil || len(m.Analyzed) == 0 {
				continue
			}
			p := stage.BuildProblem(m)
			out = append(out, segmentCase{
				name: fmt.Sprintf("%s page %d (seed %d)", prof.Slug, target, seed),
				SegmentInput: SegmentInput{
					NumRecords: p.NumRecords, Candidates: p.Candidates, PositionGroups: p.PositionGroups,
				},
				types: p.FirstTypes,
			})
		}
	}
	return out
}

// Stopping WSAT at the proven optimum must return the columns of a
// full run, on random instances (small ones, where brute force counts
// the tied optima, and large ones past the dynamic program's cap), the
// same with a HardWeight below the optimum, and the 24 Table 4 pages
// at generator seeds 42–45.
func TestColumnEarlyStopMatchesFullRun(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tied, pastCap, belowOpt := 0, 0, 0
	for trial := 0; trial < 240; trial++ {
		maxRecords, maxPerRecord := 5, 4
		if trial%24 == 0 {
			maxRecords, maxPerRecord = 3, 12
		}
		records, types := randomColumnInstance(rng, maxRecords, maxPerRecord)
		params := WSATParams{Seed: int64(trial)}
		if trial%3 == 0 {
			params.HardWeight = 1 + rng.Intn(2)
		}
		if e := encodeColumns(records, types); e.p != nil {
			opt, ok := e.optimum()
			switch {
			case !ok:
				pastCap++
			case opt > params.withDefaults(e.p.NumVars()).HardWeight:
				belowOpt++
			}
			if e.p.NumVars() <= 16 {
				if _, count := bruteForceOptimum(e.p); count > 1 {
					tied++
				}
			}
		}
		checkColumns(t, fmt.Sprintf("trial %d", trial), records, types, params, true)
	}
	for _, seed := range []int64{42, 43, 44, 45} {
		for _, in := range table4ColumnInputs(t, seed) {
			checkColumns(t, in.name, in.records, in.types, WSATParams{}, false)
		}
	}
	t.Logf("tied optima %d, past the cap %d, HardWeight below the optimum %d", tied, pastCap, belowOpt)
	if tied == 0 || pastCap == 0 || belowOpt == 0 {
		t.Errorf("weak coverage: tied optima %d, past the cap %d, HardWeight below the optimum %d", tied, pastCap, belowOpt)
	}
}

// Sprint Canada's first page (seed 42) reaches its column optimum, 6,
// at flip 108 of its first restart; a proof of at most certNodes nodes
// cannot confirm it, so without the floor WSAT ran all 8 restarts:
// 163,200 flips.
func TestColumnSolveStopsAtOptimum(t *testing.T) {
	for _, in := range table4ColumnInputs(t, 42) {
		if in.name != "sprintcanada page 0 (seed 42)" {
			continue
		}
		_, flips, restarts, err := AssignColumns(context.Background(), in.records, in.types, WSATParams{})
		if err != nil {
			t.Fatal(err)
		}
		if flips > 300 || restarts != 1 {
			t.Errorf("%d flips over %d restarts, want at most 300 in one", flips, restarts)
		}
		return
	}
	t.Fatal("no column solve for sprintcanada page 0")
}

// FuzzAssignColumns decodes each byte into an extract's record (-1 to
// 3) and first-word type, and hardWeight%4 into WSAT's HardWeight (0
// is the default). The columns must be a full run's and well formed.
func FuzzAssignColumns(f *testing.F) {
	f.Add(int64(1), uint8(0), []byte{0, 5, 10, 1, 6, 2, 7, 12})
	f.Add(int64(2), uint8(1), []byte{1, 6, 11, 1, 2, 12, 2, 2, 7, 3, 8, 13, 4})
	f.Add(int64(3), uint8(2), []byte{3, 3, 8, 8, 13, 13, 9, 9, 14, 1, 6})
	f.Fuzz(func(t *testing.T, seed int64, hardWeight uint8, data []byte) {
		if len(data) > 24 {
			data = data[:24]
		}
		records := make([]int, len(data))
		types := make([]token.Type, len(data))
		for i, b := range data {
			records[i] = int(b%5) - 1
			types[i] = columnTypes[int(b/5)%len(columnTypes)]
		}
		params := WSATParams{Seed: seed, HardWeight: int(hardWeight % 4)}
		checkColumns(t, fmt.Sprintf("records %v", records), records, types, params, true)
	})
}
