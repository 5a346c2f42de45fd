package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"

	"tableseg"
	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/eval"
)

// diagnostic errors are results, not failures: the pipeline reports
// with them that an input has no segmentable table. Input-validation
// errors (ErrTooFewListPages, ErrNoDetailPages, ErrBadTarget) are not
// among them: every generated input is valid, so they mean a fault.
var diagnostic = []error{
	tableseg.ErrNoTableSlot, tableseg.ErrNoDetailEvidence, tableseg.ErrCSPUnsatisfiable,
}

func isDiagnostic(err error) bool {
	for _, d := range diagnostic {
		if errors.Is(err, d) {
			return true
		}
	}
	return false
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// checkSerial compares an engine result with a serial tableseg.Segment
// of the same input: the engine promises identical segmentations and
// errors whatever its caches and scheduling did.
func checkSerial(j job, opts core.Options, seg *core.Segmentation, err error) error {
	want, werr := tableseg.Segment(j.in, opts)
	if errText(werr) != errText(err) {
		return fmt.Errorf("%s (%s): engine error %q, serial error %q", j.id, opts.Method, errText(err), errText(werr))
	}
	if !reflect.DeepEqual(want, seg) {
		return fmt.Errorf("%s (%s): engine segmentation differs from serial Segment", j.id, opts.Method)
	}
	return nil
}

// table4Seed is the generator seed of the committed Table 4.
const table4Seed = 42

// checkTable4 scores a pass over the Table 4 corpus (generator seed 42,
// inputs with truth) against results/table4.txt: each method's totals
// must equal the committed table's. Other passes are left alone.
func (r *run) checkTable4(genSeed int64, jobs []job, results map[core.Method][]engine.Result) error {
	if genSeed != table4Seed || len(jobs) == 0 || jobs[0].truth == nil {
		return nil
	}
	want, err := table4Totals(r.cfg.root)
	if err != nil {
		return err
	}
	ok := true
	for _, m := range methods {
		r.attempted++
		var got eval.Counts
		for k, res := range results[m] {
			if res.Seg == nil {
				// Every Table 4 page segments; the error itself is
				// already counted as a failure or a diagnostic.
				got = eval.Counts{}
				break
			}
			got = got.Add(eval.Score(res.Seg, jobs[k].truth))
		}
		if got != want[m] {
			ok = false
			r.fail("seed %d (%s): Table 4 totals %+v, results/table4.txt has %+v", genSeed, suffix(m), got, want[m])
		}
	}
	r.note("table4: pass at seed %d reproduces results/table4.txt totals: %t", genSeed, ok)
	return nil
}

// table4Row matches one page row of results/table4.txt: the site and
// page, then Cor InC FN FP for the probabilistic and the CSP method.
var table4Row = regexp.MustCompile(`^\S.*\(\d+\)\s*\|\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s*\|\s*(\d+)\s+(\d+)\s+(\d+)\s+(\d+)\s*\|`)

// table4Totals sums the committed Table 4's per-page counts for each
// method.
func table4Totals(root string) (map[core.Method]eval.Counts, error) {
	data, err := os.ReadFile(filepath.Join(root, "results", "table4.txt"))
	if err != nil {
		return nil, err
	}
	out := map[core.Method]eval.Counts{}
	rows := 0
	for _, line := range strings.Split(string(data), "\n") {
		m := table4Row.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		n := make([]int, 8)
		for i := range n {
			n[i], _ = strconv.Atoi(m[i+1])
		}
		out[core.Probabilistic] = out[core.Probabilistic].Add(eval.Counts{Cor: n[0], InCor: n[1], FN: n[2], FP: n[3]})
		out[core.CSP] = out[core.CSP].Add(eval.Counts{Cor: n[4], InCor: n[5], FN: n[6], FP: n[7]})
		rows++
	}
	if rows == 0 {
		return nil, fmt.Errorf("no page rows in results/table4.txt")
	}
	return out, nil
}
