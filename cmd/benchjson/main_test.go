package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func TestParseLine(t *testing.T) {
	i64 := func(n int64) *int64 { return &n }
	cases := []struct {
		line string
		want Record
		ok   bool
	}{
		{
			line: "BenchmarkStageTokenize-8   \t    1234\t    987654 ns/op\t  123456 B/op\t     789 allocs/op",
			want: Record{Name: "StageTokenize", Iterations: 1234, NsPerOp: 987654,
				BytesPerOp: i64(123456), AllocsPerOp: i64(789)},
			ok: true,
		},
		{
			line: "BenchmarkSolver/csp-8         100          51234 ns/op",
			want: Record{Name: "Solver/csp", Iterations: 100, NsPerOp: 51234},
			ok:   true,
		},
		{
			line: "BenchmarkEngineThroughput/engine-8  5  1.5e+08 ns/op  160.0 pages/s",
			want: Record{Name: "EngineThroughput/engine", Iterations: 5, NsPerOp: 1.5e8,
				Metrics: map[string]float64{"pages/s": 160}},
			ok: true,
		},
		{line: "goos: linux", ok: false},
		{line: "PASS", ok: false},
		{line: "BenchmarkBroken-8  notanumber  12 ns/op", ok: false},
	}
	for _, c := range cases {
		got, ok := parseLine(c.line)
		if ok != c.ok {
			t.Errorf("parseLine(%q) ok = %v, want %v", c.line, ok, c.ok)
			continue
		}
		if ok && !reflect.DeepEqual(got, c.want) {
			t.Errorf("parseLine(%q) = %+v, want %+v", c.line, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	i64 := func(n int64) *int64 { return &n }
	baseline := &Report{Benchmarks: []Record{
		{Name: "StageTokenize", NsPerOp: 1000, AllocsPerOp: i64(10)},
		{Name: "StageSegment", NsPerOp: 2000, AllocsPerOp: i64(20)},
		{Name: "SolverGrown", NsPerOp: 300, AllocsPerOp: i64(50)},
		{Name: "SolverShrunk", NsPerOp: 300, AllocsPerOp: i64(50)},
		{Name: "SolverUnmeasured", NsPerOp: 300},
		{Name: "SolverRemoved", NsPerOp: 500},
	}}
	current := &Report{Benchmarks: []Record{
		{Name: "StageTokenize", NsPerOp: 1050, AllocsPerOp: i64(10)},  // +5%: within tolerance
		{Name: "StageSegment", NsPerOp: 2600, AllocsPerOp: i64(20)},   // +30%: advisory regression
		{Name: "SolverGrown", NsPerOp: 300, AllocsPerOp: i64(51)},     // one more alloc: failure
		{Name: "SolverShrunk", NsPerOp: 300, AllocsPerOp: i64(40)},    // fewer allocs: fine
		{Name: "SolverUnmeasured", NsPerOp: 300, AllocsPerOp: i64(9)}, // no baseline allocs
		{Name: "SolverAdded", NsPerOp: 100},                           // new, no baseline
	}}
	var buf strings.Builder
	got := compare(&buf, baseline, current, 20)
	if got != 2 {
		t.Fatalf("compare returned %d failures, want 2 (the allocs/op growth and the missing benchmark)\n%s", got, buf.String())
	}
	out := buf.String()
	for _, want := range []string{
		"StageSegment: ns/op regressed +30.0% (2000 -> 2600)",
		"1 benchmark(s) slower beyond tolerance (advisory",
		"SolverGrown: allocs/op grew (50 -> 51)",
		"1 benchmark(s) allocate more than the baseline; failing the run",
		"SolverAdded: new benchmark, no baseline",
		"SolverRemoved: present in baseline but not in this run",
		"1 baseline benchmark(s) missing from this run; failing the run",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("compare output missing %q:\n%s", want, out)
		}
	}
	for _, quiet := range []string{"StageTokenize", "SolverShrunk", "SolverUnmeasured"} {
		if strings.Contains(out, quiet) {
			t.Errorf("%s reported although it did not regress:\n%s", quiet, out)
		}
	}

	buf.Reset()
	if got := compare(&buf, baseline, baseline, 20); got != 0 || buf.Len() != 0 {
		t.Errorf("identical reports: %d failures, output %q", got, buf.String())
	}
}

func TestLoadReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	want := &Report{Benchmarks: []Record{{Name: "StageTokenize", Iterations: 10, NsPerOp: 42}}}
	data, err := json.MarshalIndent(want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("loadReport = %+v, want %+v", got, want)
	}
	if _, err := loadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("loadReport on a missing file returned no error")
	}
}

// A baseline benchmark that fails or is skipped in the run (here it
// called b.Fatal, so go test printed no result line for it) must fail
// the comparison, not only be mentioned.
func TestCompareFailsOnMissingBenchmark(t *testing.T) {
	i64 := func(n int64) *int64 { return &n }
	baseline := &Report{Benchmarks: []Record{
		{Name: "SolverColumns", NsPerOp: 300, AllocsPerOp: i64(494)},
		{Name: "SolverWSATRestart", NsPerOp: 100, AllocsPerOp: i64(367)},
	}}
	current := &Report{Benchmarks: []Record{{Name: "SolverWSATRestart", NsPerOp: 90, AllocsPerOp: i64(14)}}}
	var buf strings.Builder
	if got := compare(&buf, baseline, current, 20); got != 1 {
		t.Fatalf("compare returned %d failures, want 1\n%s", got, buf.String())
	}
	if !strings.Contains(buf.String(), "SolverColumns: present in baseline but not in this run") {
		t.Errorf("missing benchmark not named:\n%s", buf.String())
	}
}

// A stream with a FAIL line must be an error, and no report may be
// written, so `make bench-stages` cannot commit a partial file.
func TestRunRefusesFailedStream(t *testing.T) {
	filter := regexp.MustCompile(`^(Stage|Solver)`)
	ok := "BenchmarkSolver/csp-2  20  51234 ns/op  1000 B/op  796 allocs/op\nPASS\nok  \ttableseg\t1.2s\n"
	for name, stream := range map[string]string{
		"benchmark failed": "BenchmarkSolver/csp-2  20  51234 ns/op  1000 B/op  796 allocs/op\n" +
			"--- FAIL: BenchmarkSolverColumns\n    stage_bench_test.go:80: boom\nFAIL\nexit status 1\nFAIL\ttableseg\t1.2s\n",
		"build failed": "FAIL\ttableseg [build failed]\n",
	} {
		out := filepath.Join(t.TempDir(), "bench.json")
		var echo strings.Builder
		if _, err := run(strings.NewReader(stream), &echo, filter, out); err == nil {
			t.Errorf("%s: no error", name)
		}
		if echo.String() != stream {
			t.Errorf("%s: echoed %q, want the stream unchanged", name, echo.String())
		}
		if _, err := os.Stat(out); !os.IsNotExist(err) {
			t.Errorf("%s: report written (stat error %v)", name, err)
		}
	}
	out := filepath.Join(t.TempDir(), "bench.json")
	report, err := run(strings.NewReader(ok), &strings.Builder{}, filter, out)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 1 || report.Benchmarks[0].Name != "Solver/csp" {
		t.Errorf("report = %+v", report)
	}
	if _, err := os.Stat(out); err != nil {
		t.Errorf("report not written: %v", err)
	}
}
