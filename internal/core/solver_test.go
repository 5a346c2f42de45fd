package core

import (
	"errors"
	"testing"

	"tableseg/internal/csp"
	"tableseg/internal/solvers"
)

// TestSegmentationSolver: Segmentation.Solver names the solver that
// ran, whether Options.Solver or the Method chose it.
func TestSegmentationSolver(t *testing.T) {
	in, _ := siteInput(t, "allegheny", 0)
	for _, name := range solvers.Names() {
		opts := DefaultOptions(CSP)
		opts.Solver = name
		seg, err := segment(in, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if seg.Solver != name {
			t.Errorf("Options.Solver %q: Segmentation.Solver %q", name, seg.Solver)
		}
	}
	for _, m := range []Method{CSP, Probabilistic, Combined} {
		seg, err := segment(in, DefaultOptions(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if seg.Solver != m.String() {
			t.Errorf("Method %v: Segmentation.Solver %q", m, seg.Solver)
		}
	}
}

// TestExactReportsFailure: on a page with no strict solution the exact
// solver's failure reaches the Segmentation as the CSP status, next to
// the typed error.
func TestExactReportsFailure(t *testing.T) {
	in, _ := siteInput(t, "amazon", 0)
	opts := DefaultOptions(CSP)
	opts.Solver = "exact"
	seg, err := segment(in, opts)
	if !errors.Is(err, ErrCSPUnsatisfiable) {
		t.Fatalf("err = %v, want ErrCSPUnsatisfiable", err)
	}
	if seg.CSPStatus != csp.Failed || seg.Relaxed {
		t.Errorf("CSP status %v, relaxed %v; want failed, not relaxed", seg.CSPStatus, seg.Relaxed)
	}
}
