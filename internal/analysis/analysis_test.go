package analysis

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// fixtureDirs are the package directories of the lint fixture module,
// relative to testdata/lintmod.
var fixtureDirs = []string{
	"api/v1", "internal/core", "internal/csp", "internal/engine",
	"internal/phmm", "internal/server", "internal/solvers",
	"internal/stage", "util",
}

// wantRe matches a golden-diagnostic expectation trailing a fixture
// line: // want <analyzer> "<message substring>"
var wantRe = regexp.MustCompile(`// want (\w+) "((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file     string // absolute-ish path as the loader reports it
	line     int
	analyzer string
	substr   string
}

func (e expectation) String() string {
	return fmt.Sprintf("%s:%d: [%s] ~ %q", e.file, e.line, e.analyzer, e.substr)
}

func loadFixtureDiagnostics(t *testing.T) []Diagnostic {
	t.Helper()
	root := filepath.Join("testdata", "lintmod")
	modPath, err := ModulePathOf(root)
	if err != nil {
		t.Fatalf("ModulePathOf: %v", err)
	}
	loader := NewLoader(root, modPath)
	cfg := DefaultConfig()
	// The fixture module commits its own (deliberately drifted) schema
	// locks, so wiredrift and codecdrift run live here too.
	if err := LoadSchemaLocks(&cfg, root); err != nil {
		t.Fatalf("LoadSchemaLocks: %v", err)
	}
	var diags []Diagnostic
	for _, dir := range fixtureDirs {
		pkg, err := loader.LoadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("LoadDir(%s): %v", dir, err)
		}
		diags = append(diags, Run(pkg, cfg, Suite())...)
	}
	return diags
}

func parseExpectations(t *testing.T) []expectation {
	t.Helper()
	var out []expectation
	for _, dir := range fixtureDirs {
		pattern := filepath.Join("testdata", "lintmod", dir, "*.go")
		files, err := filepath.Glob(pattern)
		if err != nil || len(files) == 0 {
			t.Fatalf("no fixture files match %s (err=%v)", pattern, err)
		}
		for _, file := range files {
			data, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for i, line := range strings.Split(string(data), "\n") {
				for _, m := range wantRe.FindAllStringSubmatch(line, -1) {
					substr, err := strconv.Unquote(`"` + m[2] + `"`)
					if err != nil {
						t.Fatalf("%s:%d: bad want string %q: %v", file, i+1, m[2], err)
					}
					out = append(out, expectation{file: file, line: i + 1, analyzer: m[1], substr: substr})
				}
			}
		}
	}
	return out
}

// TestFixtureDiagnostics is the golden test for the full suite:
// every `// want` annotation in the fixture module must be matched by
// exactly one diagnostic at that file and line, and no diagnostic may
// appear without an annotation (this also proves the suppression
// directive and the negative-control package stay silent).
func TestFixtureDiagnostics(t *testing.T) {
	diags := loadFixtureDiagnostics(t)
	wants := parseExpectations(t)
	if len(wants) == 0 {
		t.Fatal("fixture module contains no // want annotations")
	}

	used := make([]bool, len(diags))
	for _, w := range wants {
		found := false
		for di, d := range diags {
			if used[di] || d.Analyzer != w.analyzer || d.Pos.Line != w.line {
				continue
			}
			if filepath.Clean(d.Pos.Filename) != filepath.Clean(w.file) {
				continue
			}
			if !strings.Contains(d.Message, w.substr) {
				continue
			}
			used[di] = true
			found = true
			break
		}
		if !found {
			t.Errorf("missing diagnostic: want %s", w)
		}
	}
	for di, d := range diags {
		if !used[di] {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
}

// TestDiagnosticsSorted pins the driver contract that Run returns
// file/line/column-ordered output, so CI diffs are stable.
func TestDiagnosticsSorted(t *testing.T) {
	diags := loadFixtureDiagnostics(t)
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("diagnostics out of order: %s before %s", a, b)
		}
	}
}
