package analysis

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// suiteOrder is the pinned registration order. The driver's cache keys,
// the -list output and the SARIF rule array all derive from Suite(), so
// a reorder (or an accidental map-iteration dependence) is a breaking
// change this test makes explicit.
var suiteOrder = []string{
	"determinism",
	"ctxdiscipline",
	"errwrap",
	"floateq",
	"stagepurity",
	"goroleak",
	"lockdiscipline",
	"chancontract",
	"rngflow",
	"probflow",
	"aliasflow",
	"ctxflow",
	"httpresp",
	"wiredrift",
	"codecdrift",
}

// TestSuiteOrderPinned pins the exact analyzer count and registration
// order, and checks each analyzer is well-formed (unique non-empty
// name, doc string, runner).
func TestSuiteOrderPinned(t *testing.T) {
	suite := Suite()
	if len(suite) != len(suiteOrder) {
		t.Fatalf("Suite() has %d analyzers, want %d", len(suite), len(suiteOrder))
	}
	seen := map[string]bool{}
	for i, a := range suite {
		if a.Name != suiteOrder[i] {
			t.Errorf("Suite()[%d] = %q, want %q", i, a.Name, suiteOrder[i])
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if a.Doc == "" {
			t.Errorf("analyzer %q has no doc string", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no runner", a.Name)
		}
	}
}

// TestSuiteOrderStable checks that repeated Suite() calls agree — the
// registry is a literal, not accumulated global state.
func TestSuiteOrderStable(t *testing.T) {
	first, second := Suite(), Suite()
	if len(first) != len(second) {
		t.Fatalf("Suite() length changed between calls: %d then %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Name != second[i].Name {
			t.Errorf("Suite()[%d] changed between calls: %q then %q", i, first[i].Name, second[i].Name)
		}
	}
}

// TestSortDiagnosticsDeterministic feeds SortDiagnostics a scrambled
// slice (including same-position findings from different analyzers)
// and pins the exact output order; a second sort must be a no-op.
func TestSortDiagnosticsDeterministic(t *testing.T) {
	d := func(file string, line, col int, analyzer string) Diagnostic {
		diag := Diagnostic{Analyzer: analyzer, Message: "m"}
		diag.Pos.Filename = file
		diag.Pos.Line = line
		diag.Pos.Column = col
		return diag
	}
	scrambled := []Diagnostic{
		d("b.go", 3, 1, "probflow"),
		d("a.go", 9, 2, "httpresp"),
		d("b.go", 3, 1, "aliasflow"),
		d("a.go", 9, 2, "ctxflow"),
		d("a.go", 2, 7, "determinism"),
		d("b.go", 1, 1, "httpresp"),
	}
	want := []Diagnostic{
		d("a.go", 2, 7, "determinism"),
		d("a.go", 9, 2, "ctxflow"),
		d("a.go", 9, 2, "httpresp"),
		d("b.go", 1, 1, "httpresp"),
		d("b.go", 3, 1, "aliasflow"),
		d("b.go", 3, 1, "probflow"),
	}
	SortDiagnostics(scrambled)
	for i := range want {
		if scrambled[i].Pos != want[i].Pos || scrambled[i].Analyzer != want[i].Analyzer {
			t.Errorf("after sort, [%d] = %s:%d:%d %s, want %s:%d:%d %s", i,
				scrambled[i].Pos.Filename, scrambled[i].Pos.Line, scrambled[i].Pos.Column, scrambled[i].Analyzer,
				want[i].Pos.Filename, want[i].Pos.Line, want[i].Pos.Column, want[i].Analyzer)
		}
	}
	resorted := append([]Diagnostic(nil), scrambled...)
	SortDiagnostics(resorted)
	for i := range scrambled {
		if resorted[i] != scrambled[i] {
			t.Errorf("SortDiagnostics is not idempotent at [%d]", i)
		}
	}
}

// TestIgnoreDirectivesNameLiveAnalyzers walks every Go file of the
// module outside testdata and checks that each ignore directive names
// an analyzer of Suite() and gives a reason. A directive naming a
// deleted or renamed analyzer suppresses nothing, so without this
// check it would linger in the code unnoticed.
func TestIgnoreDirectivesNameLiveAnalyzers(t *testing.T) {
	live := map[string]bool{}
	for _, a := range Suite() {
		live[a.Name] = true
	}
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	directives := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields, ok := parseIgnore(c)
				if !ok {
					continue
				}
				directives++
				pos := fset.Position(c.Pos())
				switch {
				case len(fields) == 0 || !live[fields[0]]:
					t.Errorf("%s: ignore directive %q names no analyzer of the suite", pos, c.Text)
				case len(fields) < 2:
					t.Errorf("%s: ignore directive %q gives no reason, so it suppresses nothing", pos, c.Text)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if directives == 0 {
		t.Fatal("found no ignore directives; is the walk rooted at the module?")
	}
}
