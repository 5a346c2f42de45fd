package main

// Baseline comparison: `benchjson -baseline BENCH_stages.json` diffs
// the freshly parsed report against a previously committed one. A
// benchmark whose allocs/op grew fails the run: at a fixed -benchtime
// Nx the count repeats exactly, so any growth is a real change. So
// does a baseline benchmark missing from the run, whose allocations
// would otherwise escape the gate. A benchmark whose ns/op grew by
// more than -tolerance percent only gets a warning, because
// microbenchmarks on shared CI runners jitter too much for a hard
// timing gate. `make bench-check` wires this up.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// loadReport reads a report previously written by benchjson -out.
func loadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchjson: reading baseline: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("benchjson: parsing baseline %s: %w", path, err)
	}
	return &r, nil
}

// compare writes one line per regressed, missing or new benchmark to w
// and returns the number of allocs/op regressions and missing
// benchmarks, which fail the run; ns/op regressions beyond the
// tolerance are warnings only.
func compare(w io.Writer, baseline, current *Report, tolerancePct float64) int {
	old := make(map[string]Record, len(baseline.Benchmarks))
	for _, r := range baseline.Benchmarks {
		old[r.Name] = r
	}
	slower, allocGrowth := 0, 0
	seen := make(map[string]bool, len(current.Benchmarks))
	for _, r := range current.Benchmarks {
		seen[r.Name] = true
		prev, ok := old[r.Name]
		if !ok {
			fmt.Fprintf(w, "benchjson: %s: new benchmark, no baseline\n", r.Name)
			continue
		}
		if prev.AllocsPerOp != nil && r.AllocsPerOp != nil && *r.AllocsPerOp > *prev.AllocsPerOp {
			allocGrowth++
			fmt.Fprintf(w, "benchjson: %s: allocs/op grew (%d -> %d)\n", r.Name, *prev.AllocsPerOp, *r.AllocsPerOp)
		}
		if prev.NsPerOp <= 0 {
			continue
		}
		deltaPct := (r.NsPerOp - prev.NsPerOp) / prev.NsPerOp * 100
		if deltaPct > tolerancePct {
			slower++
			fmt.Fprintf(w, "benchjson: %s: ns/op regressed %+.1f%% (%.0f -> %.0f), tolerance %.0f%%\n",
				r.Name, deltaPct, prev.NsPerOp, r.NsPerOp, tolerancePct)
		}
	}
	var gone []string
	for name := range old {
		if !seen[name] {
			gone = append(gone, name)
		}
	}
	sort.Strings(gone)
	for _, name := range gone {
		fmt.Fprintf(w, "benchjson: %s: present in baseline but not in this run\n", name)
	}
	if slower > 0 {
		fmt.Fprintf(w, "benchjson: %d benchmark(s) slower beyond tolerance (advisory; not failing the run)\n", slower)
	}
	if allocGrowth > 0 {
		fmt.Fprintf(w, "benchjson: %d benchmark(s) allocate more than the baseline; failing the run\n", allocGrowth)
	}
	if len(gone) > 0 {
		fmt.Fprintf(w, "benchjson: %d baseline benchmark(s) missing from this run; failing the run\n", len(gone))
	}
	return allocGrowth + len(gone)
}
