package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/token"
	"strings"
	"testing"
)

func sampleDiags() []Diagnostic {
	return []Diagnostic{
		{
			Analyzer: "goroleak",
			Pos:      token.Position{Filename: "internal/engine/engine.go", Line: 321, Column: 2},
			Message:  "goroutine launched in exported Run has no provable exit path",
		},
		{
			Analyzer: "floateq",
			Pos:      token.Position{Filename: "internal/csp/solve.go", Line: 7, Column: 5},
			Message:  "== on floating-point operands",
		},
	}
}

// TestEncodeSARIFValid checks the emitted log against the SARIF 2.1.0
// schema's required properties (the subset that applies to the shapes
// we emit): a log requires version and runs; a run requires tool; a
// tool requires driver; a driver requires name; every result requires
// a message; reportingDescriptors require an id; ruleIndex must index
// the driver's rules array at the entry whose id is ruleId; region
// lines and columns are 1-based.
func TestEncodeSARIFValid(t *testing.T) {
	out, err := EncodeSARIF(sampleDiags(), Suite())
	if err != nil {
		t.Fatal(err)
	}
	var log map[string]any
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out)
	}
	if v, _ := log["version"].(string); v != "2.1.0" {
		t.Fatalf("version = %q, want 2.1.0", log["version"])
	}
	if s, _ := log["$schema"].(string); !strings.Contains(s, "sarif-2.1.0") {
		t.Errorf("$schema = %q does not pin 2.1.0", s)
	}
	runs, ok := log["runs"].([]any)
	if !ok || len(runs) != 1 {
		t.Fatalf("runs missing or not a single-element array: %v", log["runs"])
	}
	run := runs[0].(map[string]any)
	tool, ok := run["tool"].(map[string]any)
	if !ok {
		t.Fatal("run.tool missing")
	}
	driver, ok := tool["driver"].(map[string]any)
	if !ok {
		t.Fatal("tool.driver missing")
	}
	if name, _ := driver["name"].(string); name != "tableseglint" {
		t.Errorf("driver.name = %q", driver["name"])
	}
	rules, ok := driver["rules"].([]any)
	if !ok {
		t.Fatal("driver.rules missing")
	}
	if len(rules) != len(Suite()) {
		t.Errorf("rules lists %d analyzers, want %d", len(rules), len(Suite()))
	}
	ruleIDs := make([]string, len(rules))
	for i, r := range rules {
		rule := r.(map[string]any)
		id, _ := rule["id"].(string)
		if id == "" {
			t.Fatalf("rules[%d] has no id", i)
		}
		ruleIDs[i] = id
	}
	results, ok := run["results"].([]any)
	if !ok {
		t.Fatal("run.results missing")
	}
	if len(results) != 2 {
		t.Fatalf("got %d results, want 2", len(results))
	}
	for i, r := range results {
		res := r.(map[string]any)
		msg, ok := res["message"].(map[string]any)
		if !ok || msg["text"] == "" {
			t.Errorf("results[%d] lacks required message.text", i)
		}
		ruleID, _ := res["ruleId"].(string)
		idx, ok := res["ruleIndex"].(float64)
		if !ok || int(idx) < 0 || int(idx) >= len(ruleIDs) {
			t.Errorf("results[%d].ruleIndex out of range: %v", i, res["ruleIndex"])
			continue
		}
		if ruleIDs[int(idx)] != ruleID {
			t.Errorf("results[%d]: ruleIndex %d resolves to %q, ruleId says %q", i, int(idx), ruleIDs[int(idx)], ruleID)
		}
		locs, ok := res["locations"].([]any)
		if !ok || len(locs) == 0 {
			t.Errorf("results[%d] has no locations", i)
			continue
		}
		phys := locs[0].(map[string]any)["physicalLocation"].(map[string]any)
		uri, _ := phys["artifactLocation"].(map[string]any)["uri"].(string)
		if uri == "" || strings.Contains(uri, `\`) || strings.HasPrefix(uri, "./") {
			t.Errorf("results[%d] artifact URI not a clean relative URI: %q", i, uri)
		}
		region := phys["region"].(map[string]any)
		if line, _ := region["startLine"].(float64); line < 1 {
			t.Errorf("results[%d] startLine %v not 1-based", i, region["startLine"])
		}
		if col, _ := region["startColumn"].(float64); col < 1 {
			t.Errorf("results[%d] startColumn %v not 1-based", i, region["startColumn"])
		}
	}
}

// TestEncodeSARIFStable pins byte-stability: the same diagnostics must
// serialize identically, so CI artifact diffs mean real changes.
func TestEncodeSARIFStable(t *testing.T) {
	a, err := EncodeSARIF(sampleDiags(), Suite())
	if err != nil {
		t.Fatal(err)
	}
	b, err := EncodeSARIF(sampleDiags(), Suite())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("EncodeSARIF is not byte-stable across calls")
	}
}

// TestEncodeSARIFForeignAnalyzer covers the narrowed-suite path: a
// diagnostic whose analyzer is absent from the rules table still gets
// a valid rule entry and index.
func TestEncodeSARIFForeignAnalyzer(t *testing.T) {
	diags := []Diagnostic{{
		Analyzer: "elsewhere",
		Pos:      token.Position{Filename: "x.go", Line: 1, Column: 1},
		Message:  "m",
	}}
	out, err := EncodeSARIF(diags, Suite())
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatal(err)
	}
	res := log.Runs[0].Results[0]
	if res.RuleIndex < 0 || res.RuleIndex >= len(log.Runs[0].Tool.Driver.Rules) {
		t.Fatalf("ruleIndex %d out of range", res.RuleIndex)
	}
	if got := log.Runs[0].Tool.Driver.Rules[res.RuleIndex].ID; got != "elsewhere" {
		t.Errorf("ruleIndex resolves to %q, want elsewhere", got)
	}
}

// TestSortDiagnosticsGlobal pins the cross-package ordering contract
// the CLI relies on.
func TestSortDiagnosticsGlobal(t *testing.T) {
	var diags []Diagnostic
	for _, f := range []string{"b/z.go", "a/cfg/x.go", "a/y.go", "a/y.go"} {
		diags = append(diags, Diagnostic{Analyzer: "determinism", Pos: token.Position{Filename: f, Line: len(diags) + 1, Column: 1}})
	}
	SortDiagnostics(diags)
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		ka := fmt.Sprintf("%s:%06d:%06d:%s", a.Pos.Filename, a.Pos.Line, a.Pos.Column, a.Analyzer)
		kb := fmt.Sprintf("%s:%06d:%06d:%s", b.Pos.Filename, b.Pos.Line, b.Pos.Column, b.Analyzer)
		if ka > kb {
			t.Errorf("out of order: %s before %s", ka, kb)
		}
	}
}

// TestEncodeSARIFInterprocAnalyzers pins the SARIF shape of the
// analyzers that report through call-graph summaries (ctxflow,
// httpresp, and lockdiscipline's may-block callee check): each is a
// registered rule (so viewers can show its doc string) and a
// diagnostic from each maps ruleId and ruleIndex consistently.
func TestEncodeSARIFInterprocAnalyzers(t *testing.T) {
	diags := []Diagnostic{
		{
			Analyzer: "ctxflow",
			Pos:      token.Position{Filename: "internal/engine/engine.go", Line: 10, Column: 2},
			Message:  "Run holds a context but calls engine.join, which may block (sync.WaitGroup.Wait) and accepts no context; cancellation cannot reach it",
		},
		{
			Analyzer: "httpresp",
			Pos:      token.Position{Filename: "internal/server/server.go", Line: 20, Column: 6},
			Message:  "handler handleSegment does not respond on every path: some branch returns without writing a response or delegating to something that does",
		},
		{
			Analyzer: "lockdiscipline",
			Pos:      token.Position{Filename: "internal/engine/engine.go", Line: 30, Column: 2},
			Message:  "e.mu held across call to engine.(*Engine).drain, which may block (channel receive); release the lock before the call",
		},
	}
	out, err := EncodeSARIF(diags, Suite())
	if err != nil {
		t.Fatal(err)
	}
	var log sarifLog
	if err := json.Unmarshal(out, &log); err != nil {
		t.Fatalf("invalid SARIF: %v", err)
	}
	rules := log.Runs[0].Tool.Driver.Rules
	byID := map[string]int{}
	for i, r := range rules {
		byID[r.ID] = i
	}
	for _, name := range []string{"ctxflow", "lockdiscipline", "httpresp"} {
		idx, ok := byID[name]
		if !ok {
			t.Errorf("rule %q missing from driver rules", name)
			continue
		}
		if rules[idx].ShortDescription.Text == "" {
			t.Errorf("rule %q has no short description", name)
		}
	}
	if len(log.Runs[0].Results) != len(diags) {
		t.Fatalf("results = %d, want %d", len(log.Runs[0].Results), len(diags))
	}
	for i, res := range log.Runs[0].Results {
		if res.RuleIndex < 0 || res.RuleIndex >= len(rules) {
			t.Fatalf("results[%d]: ruleIndex %d out of range", i, res.RuleIndex)
		}
		if rules[res.RuleIndex].ID != res.RuleID {
			t.Errorf("results[%d]: ruleIndex resolves to %q, ruleId %q", i, rules[res.RuleIndex].ID, res.RuleID)
		}
	}
}
