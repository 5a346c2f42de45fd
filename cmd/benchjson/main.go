// Command benchjson converts `go test -bench` text output into a
// structured JSON report. It reads the benchmark stream on stdin,
// echoes it unchanged to stdout (so it composes as a pipeline filter
// without hiding the human-readable results), and writes the parsed
// records for every benchmark whose name matches -filter to -out:
//
//	go test -bench=. -benchmem -run '^$' . | benchjson -filter '^(Stage|Solver)' -out BENCH_stages.json
//
// Each record carries the benchmark name (stripped of the Benchmark
// prefix and -GOMAXPROCS suffix), the iteration count, ns/op and, when
// -benchmem is on, B/op and allocs/op. Custom b.ReportMetric values are
// collected under "metrics". The report is deterministic for a given
// input stream, so diffs of BENCH_stages.json across commits show stage
// regressions directly.
//
// A stream holding a FAIL line (a benchmark that failed, or a test
// binary that did not build or run) is not a report: benchjson then
// writes nothing and exits 1, so the exit status of the pipeline's
// first command is not needed to catch it.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// Record is one parsed benchmark result line.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  *int64             `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64             `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// Report is the file benchjson writes.
type Report struct {
	Benchmarks []Record `json:"benchmarks"`
}

// benchLine matches a result line: name, iterations, then the measured
// value columns ("<value> <unit>" pairs).
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+(.*)$`)

// valueUnit matches one "<number> <unit>" column of a result line.
var valueUnit = regexp.MustCompile(`([0-9.eE+-]+)\s+(\S+)`)

// failLine matches the lines go test prints for a failed benchmark
// ("--- FAIL: BenchmarkX") and a failed package ("FAIL", "FAIL\tpkg").
var failLine = regexp.MustCompile(`^(FAIL(\s|$)|\s*--- FAIL:)`)

func parseLine(line string) (Record, bool) {
	m := benchLine.FindStringSubmatch(line)
	if m == nil {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(m[2], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{
		Name:       strings.TrimPrefix(m[1], "Benchmark"),
		Iterations: iters,
	}
	seen := false
	for _, vu := range valueUnit.FindAllStringSubmatch(m[3], -1) {
		v, err := strconv.ParseFloat(vu[1], 64)
		if err != nil {
			continue
		}
		switch vu[2] {
		case "ns/op":
			rec.NsPerOp = v
			seen = true
		case "B/op":
			n := int64(v)
			rec.BytesPerOp = &n
		case "allocs/op":
			n := int64(v)
			rec.AllocsPerOp = &n
		default:
			if rec.Metrics == nil {
				rec.Metrics = map[string]float64{}
			}
			rec.Metrics[vu[2]] = v
		}
	}
	return rec, seen
}

// run reads a benchmark stream from in, echoes it to echo and writes
// the report to out. A stream with a FAIL line is an error, and
// nothing is written.
func run(in io.Reader, echo io.Writer, filter *regexp.Regexp, out string) (*Report, error) {
	var report Report
	failed := ""
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(echo, line)
		if failed == "" && failLine.MatchString(line) {
			failed = line
		}
		rec, ok := parseLine(line)
		if !ok || !filter.MatchString(rec.Name) {
			continue
		}
		report.Benchmarks = append(report.Benchmarks, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("benchjson: reading stdin: %w", err)
	}
	if failed != "" {
		return nil, fmt.Errorf("benchjson: the benchmark run failed (%q); no report written", failed)
	}
	data, err := json.MarshalIndent(&report, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	data = append(data, '\n')
	if out == "-" {
		_, err := echo.Write(data)
		return &report, err
	}
	if err := os.WriteFile(out, data, 0o644); err != nil {
		return nil, fmt.Errorf("benchjson: %w", err)
	}
	return &report, nil
}

func main() {
	filterFlag := flag.String("filter", "", "regexp selecting benchmark names for the report (empty = all)")
	out := flag.String("out", "-", "output file (- = stdout)")
	baselinePath := flag.String("baseline", "", "prior report to diff against (allocs/op growth or a missing benchmark fails the run; ns/op growth only warns)")
	tolerance := flag.Float64("tolerance", 20, "ns/op growth beyond this percentage is reported as an advisory regression")
	flag.Parse()

	filter, err := regexp.Compile(*filterFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchjson: bad -filter:", err)
		os.Exit(2)
	}
	report, err := run(os.Stdin, os.Stdout, filter, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *baselinePath != "" {
		baseline, err := loadReport(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if compare(os.Stderr, baseline, report, *tolerance) > 0 {
			os.Exit(1)
		}
	}
}
