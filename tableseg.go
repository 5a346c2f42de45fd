// Package tableseg is an implementation of "Using the Structure of Web
// Sites for Automatic Segmentation of Tables" (Lerman, Getoor, Minton,
// Knoblock; SIGMOD 2004): fully automatic, unsupervised, domain-
// independent extraction of records from the list pages of hidden-Web
// sites, using the redundancy between a list page and the detail pages
// linked from it.
//
// Two segmentation methods are provided, mirroring the paper:
//
//   - the CSP method (§4) encodes uniqueness, consecutiveness and
//     position constraints over 0/1 assignment variables and solves them
//     with a WSAT(OIP)-style local-search optimizer, descending a
//     relaxation ladder when the data is inconsistent;
//   - the probabilistic method (§5) learns a factored hidden Markov
//     model — record number, column label, record-start flag, with
//     observed token types and detail-page sets — by EM with a
//     structured forward–backward pass and an explicit record-period
//     model, then decodes the MAP segmentation. It additionally assigns
//     extracts to columns (§3.4).
//
// Both share the front end of §3: page tokenization into eight syntactic
// token types, page-template induction from two or more sample list
// pages, table-slot location, extract segmentation, and the detail-page
// observation matrix.
//
// Quick start:
//
//	in := tableseg.Input{
//	    ListPages:   []tableseg.Page{{Name: "l1", HTML: list1}, {Name: "l2", HTML: list2}},
//	    Target:      0,
//	    DetailPages: details, // one Page per record link, in order
//	}
//	seg, err := tableseg.Segment(in, tableseg.DefaultOptions(tableseg.Probabilistic))
//	for _, rec := range seg.Records {
//	    fmt.Println(rec.Index, rec.Texts())
//	}
//
// SegmentContext adds cancellation/deadline support (honored down in
// the solver loops); failures are typed sentinels (ErrNoDetailEvidence,
// ErrCSPUnsatisfiable, ...) matchable with errors.Is. For batch work
// use Engine, a concurrent pool that caches per-site templates and
// reports per-task stats while producing results identical to serial
// Segment calls.
package tableseg

import (
	"context"
	"encoding/csv"
	"io"
	"strconv"

	"tableseg/internal/core"
	"tableseg/internal/csp"
	"tableseg/internal/phmm"
)

// Page is one HTML document (a list page or a detail page).
type Page = core.Page

// Input describes one segmentation task: the sampled list pages of a
// site, which one to segment, and the detail pages linked from it in
// record order.
type Input = core.Input

// Options tunes the pipeline; see DefaultOptions.
type Options = core.Options

// Method selects the segmentation algorithm.
type Method = core.Method

// The paper's two methods plus the §7 combination (CSP when the strict
// constraints hold, probabilistic otherwise).
const (
	CSP           = core.CSP
	Probabilistic = core.Probabilistic
	Combined      = core.Combined
)

// Record is one segmented record: its extracts in stream order and, for
// the probabilistic method, their column labels.
type Record = core.Record

// Segmentation is the result of Segment: records plus diagnostics
// (template quality, whole-page fallback, CSP status, learned model).
type Segmentation = core.Segmentation

// CSPParams configures the constraint solver.
type CSPParams = csp.SolveParams

// PHMMParams configures the probabilistic model.
type PHMMParams = phmm.Params

// DefaultOptions returns the paper-reproduction configuration for a
// method. Adjust fields on the returned struct to tune it; Segment,
// NewEngine and the daemon validate the result (ErrBadOptions).
func DefaultOptions(m Method) Options { return core.DefaultOptions(m) }

// SegmentContext runs the full pipeline with explicit options under a
// context. Cancellation is honored at stage boundaries and inside the
// solvers (WSAT restart and EM iteration boundaries), returning
// ctx.Err(); an uncancelled run computes exactly what Segment does.
// Options are validated first (ErrBadOptions).
func SegmentContext(ctx context.Context, in Input, opts Options) (*Segmentation, error) {
	return core.SegmentContext(ctx, in, opts)
}

// Segment runs the full pipeline with explicit options.
func Segment(in Input, opts Options) (*Segmentation, error) {
	return SegmentContext(context.Background(), in, opts)
}

// WriteCSV emits the reconstructed relational table as CSV. When the
// segmentation carries mined column labels they become the header row
// (missing names are filled as L1, L2, ...); otherwise no header is
// written.
func WriteCSV(w io.Writer, seg *Segmentation) error {
	cw := csv.NewWriter(w)
	table := ReconstructTable(seg)
	if len(seg.ColumnLabels) > 0 {
		header := make([]string, len(seg.ColumnLabels))
		for i, l := range seg.ColumnLabels {
			if l == "" {
				l = labelName(i)
			}
			header[i] = l
		}
		if err := cw.Write(header); err != nil {
			return err
		}
	}
	// Pad every row to the wider of the widest row and the header, so
	// the CSV is rectangular even when some learned columns are empty
	// in every record.
	width := len(seg.ColumnLabels)
	for _, row := range table {
		if len(row) > width {
			width = len(row)
		}
	}
	for _, row := range table {
		padded := make([]string, width)
		copy(padded, row)
		if err := cw.Write(padded); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// labelName renders the default column name L<n>.
func labelName(i int) string {
	return "L" + strconv.Itoa(i+1)
}

// ReconstructTable rebuilds a relational view of a segmentation: one row
// per record, one column per learned column label (§3.4). It requires a
// probabilistic segmentation (column labels available); extracts without
// a column label are appended to the row's last populated cell's right.
// Cells may be empty when a record misses a field.
func ReconstructTable(seg *Segmentation) [][]string {
	width := 0
	for _, rec := range seg.Records {
		for _, c := range rec.Columns {
			if c+1 > width {
				width = c + 1
			}
		}
	}
	if width == 0 {
		// No column labels (CSP method): one cell per extract.
		out := make([][]string, len(seg.Records))
		for i, rec := range seg.Records {
			out[i] = rec.Texts()
		}
		return out
	}
	out := make([][]string, len(seg.Records))
	for i, rec := range seg.Records {
		row := make([]string, width)
		last := 0
		for k, ex := range rec.Extracts {
			c := rec.Columns[k]
			if c < 0 {
				c = last // unattributed extracts ride with the last labeled column
			} else {
				last = c
			}
			if row[c] == "" {
				row[c] = ex.Text()
			} else {
				row[c] += " " + ex.Text()
			}
		}
		out[i] = row
	}
	return out
}
