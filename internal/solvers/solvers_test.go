package solvers

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"tableseg/internal/csp"
	"tableseg/internal/phmm"
	"tableseg/internal/sitegen"
	"tableseg/internal/stage"
	"tableseg/internal/token"
)

// config is the paper reproduction's solver configuration with the
// given bound on consecutiveness repair.
func config(cutRounds int) Config {
	return Config{
		CSP:        csp.SolveParams{MaxCutRounds: cutRounds},
		PHMM:       phmm.DefaultParams(),
		CSPColumns: true,
	}
}

func TestNew(t *testing.T) {
	want := []string{"combined", "csp", "exact", "greedy", "probabilistic", "uniform"}
	if got := Names(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for _, name := range Names() {
		if s, err := New(name, config(0)); err != nil || s == nil {
			t.Errorf("New(%q) = %v, %v", name, s, err)
		}
	}
	_, err := New("no-such-solver", Config{})
	if err == nil {
		t.Fatal("New accepted an unknown name")
	}
	for _, name := range want {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-name error %q does not list %q", err, name)
		}
	}
}

// alleghenyProblem builds the Problem of allegheny's first list page
// (seed 42) with the stage functions, as the pipeline does.
func alleghenyProblem(t *testing.T) *stage.Problem {
	t.Helper()
	site, err := sitegen.GenerateBySlug("allegheny", 42)
	if err != nil {
		t.Fatal(err)
	}
	var lists, details []stage.Page
	for _, l := range site.Lists {
		lists = append(lists, stage.Page{HTML: l.HTML})
	}
	for _, d := range site.Lists[0].Details {
		details = append(details, stage.Page{HTML: d})
	}
	ctx := context.Background()
	toks, err := stage.Tokenize(ctx, stage.TokenizeIn{ListPages: lists, DetailPages: details})
	if err != nil {
		t.Fatal(err)
	}
	tpl, err := stage.InduceTemplate(ctx, stage.TemplateIn{Lists: toks.Lists})
	if err != nil {
		t.Fatal(err)
	}
	slot, err := stage.SelectSlot(ctx, stage.SlotIn{Template: tpl, Lists: toks.Lists, Target: 0, MinSlotQuality: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	exs, err := stage.Extract(ctx, stage.ExtractIn{Target: toks.Lists[0], Slot: slot})
	if err != nil {
		t.Fatal(err)
	}
	m, err := stage.Observe(ctx, stage.ObserveIn{
		Extracts: exs, Details: toks.Details, OtherLists: stage.TokensOf(toks.Lists[1:]),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Analyzed) == 0 || !m.Covered {
		t.Fatalf("%d analyzed extracts, covered %v", len(m.Analyzed), m.Covered)
	}
	return stage.BuildProblem(m)
}

// TestResultFields checks which algorithm results each solver reports
// on a page the strict CSP solves.
func TestResultFields(t *testing.T) {
	p := alleghenyProblem(t)
	results := map[string]*Result{}
	for _, name := range Names() {
		s, err := New(name, config(0))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Solve(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Exhausted || len(res.Records) != len(p.Candidates) {
			t.Fatalf("%s: exhausted %v, %d records for %d extracts", name, res.Exhausted, len(res.Records), len(p.Candidates))
		}
		results[name] = res
	}
	for name, res := range results {
		wantCSP := name == "csp" || name == "exact" || name == "combined"
		wantPHMM := name == "probabilistic"
		if (res.CSP != nil) != wantCSP || (res.PHMM != nil) != wantPHMM {
			t.Errorf("%s: CSP set %v, PHMM set %v; want %v, %v", name, res.CSP != nil, res.PHMM != nil, wantCSP, wantPHMM)
		}
		if res.CSP != nil && (res.CSP.Status != csp.Solved || res.CSP.Relaxed) {
			t.Errorf("%s: CSP status %v, relaxed %v; want solved", name, res.CSP.Status, res.CSP.Relaxed)
		}
	}
	if !reflect.DeepEqual(results["exact"].Records, results["csp"].Records) {
		t.Errorf("exact records %v differ from csp's %v", results["exact"].Records, results["csp"].Records)
	}
}

// problemFrom decodes bytes into a Problem of 1–4 records and at most
// 10 extracts. Each extract takes three bytes: its candidate records as
// a bit mask (an empty mask picks one record), its token type, and its
// position group. A group byte g with g&3 != 0 puts the extract in
// group g&3 on page (g>>2) mod K, when that page is one of its
// candidates; groups with two or more members become PositionGroups.
func problemFrom(k uint8, data []byte) *stage.Problem {
	p := &stage.Problem{NumRecords: 1 + int(k)%4, PositionGroups: map[int][][]int{}}
	members := map[[2]int][]int{}
	for i := 0; i+2 < len(data) && i < 3*10; i += 3 {
		var cands []int
		for r := 0; r < p.NumRecords; r++ {
			if data[i]&(1<<r) != 0 {
				cands = append(cands, r)
			}
		}
		if cands == nil {
			cands = []int{int(data[i]>>4) % p.NumRecords}
		}
		n := len(p.Candidates)
		p.Candidates = append(p.Candidates, cands)
		p.TypeVecs = append(p.TypeVecs, token.Type(data[i+1]).Vector())
		p.FirstTypes = append(p.FirstTypes, token.Type(data[i+1]))
		g := data[i+2]
		page := int(g>>2) % p.NumRecords
		if g&3 != 0 && containsInt(cands, page) {
			key := [2]int{page, int(g & 3)}
			members[key] = append(members[key], n)
		}
	}
	keys := make([][2]int, 0, len(members))
	for key := range members {
		keys = append(keys, key)
	}
	sort.Slice(keys, func(a, b int) bool {
		return keys[a][0] < keys[b][0] || keys[a][0] == keys[b][0] && keys[a][1] < keys[b][1]
	})
	for _, key := range keys {
		if group := members[key]; len(group) >= 2 {
			p.PositionGroups[key[0]] = append(p.PositionGroups[key[0]], group)
		}
	}
	return p
}

func containsInt(a []int, v int) bool {
	for _, x := range a {
		if x == v {
			return true
		}
	}
	return false
}

// checkResult checks the properties every solver's result must have on
// a valid Problem: one record per extract, each in [-1, K), and no hole
// in the consecutiveness sense — an extract between two of record j's
// extracts that could belong to j but does not — unless the solver
// ran out of fallbacks (Exhausted).
func checkResult(t *testing.T, name string, p *stage.Problem, res *Result) {
	t.Helper()
	if len(res.Records) != len(p.Candidates) {
		t.Fatalf("%s: %d records for %d extracts", name, len(res.Records), len(p.Candidates))
	}
	for i, r := range res.Records {
		if r < -1 || r >= p.NumRecords {
			t.Fatalf("%s: extract %d in record %d of %d", name, i, r, p.NumRecords)
		}
	}
	if res.Exhausted {
		return
	}
	enc := csp.Encode(csp.SegmentInput{
		NumRecords: p.NumRecords, Candidates: p.Candidates, PositionGroups: p.PositionGroups,
	}, csp.Strict)
	if cuts := enc.ConsecutivenessCuts(res.Records); len(cuts) > 0 {
		t.Fatalf("%s: records %v of candidates %v have %d holes", name, res.Records, p.Candidates, len(cuts))
	}
}

// TestExactLeavesNoHoles: with repair cut short (one cut round) or
// disabled (a negative bound), the exact solver fails rather than
// return a decode with holes, as the CSP's strict rung does.
func TestExactLeavesNoHoles(t *testing.T) {
	issue := problemFrom(2, []byte{0b010, 0, 0, 0b111, 0, 0, 0b010, 0, 0, 0b010, 0, 0})
	if want := [][]int{{1}, {0, 1, 2}, {1}, {1}}; !reflect.DeepEqual(issue.Candidates, want) {
		t.Fatalf("candidates %v, want %v", issue.Candidates, want)
	}
	for _, rounds := range []int{1, -1} {
		s, err := New("exact", config(rounds))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(rounds)))
		data := make([]byte, 30)
		for n := 0; n < 5000; n++ {
			p := issue
			if n > 0 {
				rng.Read(data)
				p = problemFrom(uint8(rng.Intn(4)), data[:3*(1+rng.Intn(10))])
			}
			res, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("MaxCutRounds %d: candidates %v: %v", rounds, p.Candidates, err)
			}
			checkResult(t, "exact", p, res)
			if res.Exhausted != (res.CSP.Status == csp.Failed) || res.CSP.Relaxed {
				t.Fatalf("MaxCutRounds %d: exhausted %v with status %v, relaxed %v",
					rounds, res.Exhausted, res.CSP.Status, res.CSP.Relaxed)
			}
		}
	}
}

// FuzzSolve runs every solver on fuzzed problems of up to 4 records
// and 10 extracts, with random candidate sets and position groups and
// MaxCutRounds from -1 to 5: none may panic or fail, and each result
// must pass checkResult.
func FuzzSolve(f *testing.F) {
	// The exact solver used to return this decode's hole at -1.
	f.Add(uint8(2), uint8(0), []byte{0b010, 0, 0, 0b111, 0, 0, 0b010, 0, 0, 0b010, 0, 0})
	// Two extracts sharing a position on record 0's page.
	f.Add(uint8(1), uint8(6), []byte{0b01, 1, 0b01, 0b11, 2, 0b01, 0b10, 4, 0, 0b10, 8, 0})
	// A position group that makes the strict encoding unsatisfiable.
	f.Add(uint8(0), uint8(2), []byte{1, 1, 1, 1, 2, 1, 1, 4, 0})
	f.Add(uint8(3), uint8(1), []byte{0b1000, 3, 0, 0b0110, 5, 0, 0b1111, 7, 0, 0b0011, 9, 0, 0b1001, 2, 0})
	f.Fuzz(func(t *testing.T, k, rounds uint8, data []byte) {
		p := problemFrom(k, data)
		for _, name := range Names() {
			s, err := New(name, config(int(rounds)%7-1))
			if err != nil {
				t.Fatal(err)
			}
			res, err := s.Solve(context.Background(), p)
			if err != nil {
				t.Fatalf("%s: candidates %v, groups %v: %v", name, p.Candidates, p.PositionGroups, err)
			}
			checkResult(t, name, p, res)
		}
	})
}
