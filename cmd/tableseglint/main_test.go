package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fixtureRoot is the lint fixture module shared with the analysis
// package's golden tests: it contains known findings (and the clean
// negative-control package util), so the CLI's exit codes and output
// formats can be exercised end to end without a subprocess.
var fixtureRoot = filepath.Join("..", "..", "internal", "analysis", "testdata", "lintmod")

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errb bytes.Buffer
	code = realMain(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestExitCleanIsZero(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-root", fixtureRoot, "util")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	if strings.TrimSpace(stdout) != "" {
		t.Errorf("clean run printed findings:\n%s", stdout)
	}
}

func TestExitFindingsIsOne(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-root", fixtureRoot, "internal/csp")
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stdout, "[determinism]") {
		t.Errorf("findings output missing analyzer tag:\n%s", stdout)
	}
	if !strings.Contains(stderr, "finding(s)") {
		t.Errorf("stderr missing findings summary: %s", stderr)
	}
}

func TestExitUsageErrorsAreTwo(t *testing.T) {
	cases := [][]string{
		{"-no-such-flag"},
		{"-json", "-sarif"},
		{"-root", t.TempDir()}, // no go.mod: load error
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Errorf("args %v: exit = %d, want 2", args, code)
		}
	}
}

// TestDeterministicGlobalOrder runs the whole fixture module (several
// packages) twice and requires byte-identical, file:line-sorted text.
func TestDeterministicGlobalOrder(t *testing.T) {
	_, first, _ := runCLI(t, "-root", fixtureRoot)
	_, second, _ := runCLI(t, "-root", fixtureRoot)
	if first != second {
		t.Fatal("two runs over the same tree differ")
	}
	lineRe := regexp.MustCompile(`^(.*\.go):(\d+):(\d+): `)
	var prev string
	for _, line := range strings.Split(strings.TrimSpace(first), "\n") {
		m := lineRe.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("unparseable finding line: %q", line)
		}
		k := m[1] + "\x00" + pad(m[2]) + pad(m[3])
		if prev != "" && k < prev {
			t.Errorf("findings out of file:line order: %q after previous", line)
		}
		prev = k
	}
}

func pad(num string) string {
	return strings.Repeat("0", 8-len(num)) + num
}

func TestJSONOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-root", fixtureRoot, "-json", "internal/csp")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var entries []struct {
		Analyzer string `json:"analyzer"`
		File     string `json:"file"`
		Line     int    `json:"line"`
		Message  string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &entries); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, stdout)
	}
	if len(entries) == 0 {
		t.Fatal("-json output empty for a package with findings")
	}
	for _, e := range entries {
		if e.Analyzer == "" || e.File == "" || e.Line == 0 || e.Message == "" {
			t.Errorf("incomplete JSON entry: %+v", e)
		}
	}
}

func TestJSONOutputCleanIsEmptyArray(t *testing.T) {
	code, stdout, _ := runCLI(t, "-root", fixtureRoot, "-json", "util")
	if code != 0 {
		t.Fatalf("exit = %d, want 0", code)
	}
	if strings.TrimSpace(stdout) != "[]" {
		t.Errorf("clean -json output = %q, want []", strings.TrimSpace(stdout))
	}
}

func TestSARIFOutput(t *testing.T) {
	code, stdout, _ := runCLI(t, "-root", fixtureRoot, "-sarif", "internal/engine")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				RuleIndex int    `json:"ruleIndex"`
				Message   struct {
					Text string `json:"text"`
				} `json:"message"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal([]byte(stdout), &log); err != nil {
		t.Fatalf("-sarif output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("not a single-run SARIF 2.1.0 log: version=%q runs=%d", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "tableseglint" || len(run.Tool.Driver.Rules) != 15 {
		t.Errorf("driver = %q with %d rules, want tableseglint with 15", run.Tool.Driver.Name, len(run.Tool.Driver.Rules))
	}
	ruleIDs := map[string]bool{}
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, want := range []string{"ctxflow", "httpresp", "wiredrift", "codecdrift"} {
		if !ruleIDs[want] {
			t.Errorf("SARIF rules missing %s", want)
		}
	}
	seen := map[string]bool{}
	for _, r := range run.Results {
		if r.Message.Text == "" {
			t.Error("result with empty message")
		}
		if r.RuleIndex < 0 || r.RuleIndex >= len(run.Tool.Driver.Rules) ||
			run.Tool.Driver.Rules[r.RuleIndex].ID != r.RuleID {
			t.Errorf("result ruleIndex %d does not resolve to %q", r.RuleIndex, r.RuleID)
		}
		seen[r.RuleID] = true
	}
	for _, want := range []string{"goroleak", "lockdiscipline", "chancontract"} {
		if !seen[want] {
			t.Errorf("engine fixture produced no %s result", want)
		}
	}
}

func TestListPrintsAllAnalyzers(t *testing.T) {
	code, stdout, stderr := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stderr: %s)", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	if len(lines) != 15 {
		t.Fatalf("-list printed %d lines, want 15:\n%s", len(lines), stdout)
	}
	for _, name := range []string{"determinism", "lockdiscipline", "rngflow", "probflow", "aliasflow", "ctxflow", "httpresp", "wiredrift", "codecdrift"} {
		if !strings.Contains(stdout, name) {
			t.Errorf("-list output missing analyzer %s", name)
		}
	}
}

func TestAnalyzersSubset(t *testing.T) {
	// The csp fixture carries determinism, ctxdiscipline, floateq and
	// rngflow findings; restricted to floateq only those may remain.
	code, stdout, _ := runCLI(t, "-root", fixtureRoot, "-analyzers", "floateq", "internal/csp")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	for _, line := range strings.Split(strings.TrimSpace(stdout), "\n") {
		if !strings.Contains(line, "[floateq]") {
			t.Errorf("non-floateq finding leaked through -analyzers: %q", line)
		}
	}
}

func TestAnalyzersUnknownIsUsageError(t *testing.T) {
	code, _, stderr := runCLI(t, "-root", fixtureRoot, "-analyzers", "nosuch")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, "unknown analyzer") {
		t.Errorf("stderr missing unknown-analyzer message: %s", stderr)
	}
}

// TestCacheWarmColdIdentical pins the acceptance contract of the
// diagnostic cache: a cold run that fills the cache, a warm run served
// from it, and an uncached run must produce byte-identical JSON.
func TestCacheWarmColdIdentical(t *testing.T) {
	cache := t.TempDir()
	codeCold, outCold, _ := runCLI(t, "-root", fixtureRoot, "-json", "-cache", cache)
	entries, err := os.ReadDir(cache)
	if err != nil || len(entries) == 0 {
		t.Fatalf("cold run left no cache entries (err=%v)", err)
	}
	codeWarm, outWarm, stderrWarm := runCLI(t, "-root", fixtureRoot, "-json", "-cache", cache, "-timing")
	codeOff, outOff, _ := runCLI(t, "-root", fixtureRoot, "-json")
	if codeCold != codeWarm || codeWarm != codeOff {
		t.Fatalf("exit codes differ: cold=%d warm=%d uncached=%d", codeCold, codeWarm, codeOff)
	}
	if outCold != outWarm {
		t.Error("warm-cache output differs from cold-cache output")
	}
	if outCold != outOff {
		t.Error("cached output differs from uncached output")
	}
	if !strings.Contains(stderrWarm, "(cached)") {
		t.Errorf("warm -timing run reported no cache hits:\n%s", stderrWarm)
	}
}

// copyFixtureTree copies the fixture module into a temp dir so edits
// do not touch the shared testdata tree.
func copyFixtureTree(t *testing.T) string {
	t.Helper()
	root := t.TempDir()
	if err := filepath.WalkDir(fixtureRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(fixtureRoot, path)
		if err != nil {
			return err
		}
		dst := filepath.Join(root, rel)
		if d.IsDir() {
			return os.MkdirAll(dst, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(dst, data, 0o644)
	}); err != nil {
		t.Fatal(err)
	}
	return root
}

// cacheEntriesAround fills a cache over a copy of the fixture module,
// appends suffix to the module-relative file rel, lints again and
// returns the number of cache entries before and after the edit.
func cacheEntriesAround(t *testing.T, rel, suffix string) (before, after int) {
	t.Helper()
	root := copyFixtureTree(t)
	cache := t.TempDir()
	count := func() int {
		if code, _, stderr := runCLI(t, "-root", root, "-json", "-cache", cache); code == 2 {
			t.Fatalf("lint run failed: %s", stderr)
		}
		entries, err := os.ReadDir(cache)
		if err != nil {
			t.Fatal(err)
		}
		return len(entries)
	}
	before = count()
	path := filepath.Join(root, filepath.FromSlash(rel))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, suffix...), 0o644); err != nil {
		t.Fatal(err)
	}
	return before, count()
}

// TestCacheInvalidatedByDependencyEdit checks the Merkle keying: an
// edit to a package re-keys its importers, not just itself.
func TestCacheInvalidatedByDependencyEdit(t *testing.T) {
	// Append a comment to a leaf package: its key and every importer's
	// key must change, producing new cache entries.
	before, after := cacheEntriesAround(t, "internal/core/fixture.go", "\n// touched\n")
	if after <= before {
		t.Errorf("dependency edit added no cache entries: before=%d after=%d", before, after)
	}
}

// TestTimingOutput checks -timing prints one line per package with
// per-analyzer durations.
func TestTimingOutput(t *testing.T) {
	_, _, stderr := runCLI(t, "-root", fixtureRoot, "-timing", "util")
	if !strings.Contains(stderr, "timing util") {
		t.Fatalf("-timing printed no line for util:\n%s", stderr)
	}
	for _, name := range []string{"determinism=", "ctxflow=", "httpresp="} {
		if !strings.Contains(stderr, name) {
			t.Errorf("-timing line missing %s:\n%s", name, stderr)
		}
	}
}

// TestCacheInvalidatedBySchemaLockEdit checks the key salt: the schema
// locks are analyzer inputs, so editing one — here appending blank
// lines, which still parse — re-keys every package.
func TestCacheInvalidatedBySchemaLockEdit(t *testing.T) {
	before, after := cacheEntriesAround(t, "lint/schema-apiv1.lock", "\n\n")
	if after != 2*before {
		t.Errorf("lock edit did not re-key every package: before=%d after=%d entries, want %d", before, after, 2*before)
	}
}
