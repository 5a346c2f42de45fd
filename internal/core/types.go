package core

import (
	"tableseg/internal/csp"
	"tableseg/internal/phmm"
	"tableseg/internal/stage"
)

// Page is one HTML document. It is an alias of the stage artifact so
// values flow between the public API and the stage graph without
// conversion.
type Page = stage.Page

// Record is one segmented record (an alias of the stage artifact).
type Record = stage.Record

// Input describes one segmentation task.
type Input struct {
	// ListPages are the sampled list pages from the site; at least two
	// are needed for template induction (§3.1). All are used for the
	// "appears on all list pages" filter.
	ListPages []Page
	// Target is the index into ListPages of the page to segment.
	Target int
	// DetailPages are the detail pages linked from the target list
	// page, in the order their links appear (record order).
	DetailPages []Page
}

// Method selects the segmentation algorithm among the paper's two
// methods and their §7 combination: each value names a solver of
// internal/solvers (Options.Solver overrides it).
type Method int

const (
	// CSP is the constraint-satisfaction method of §4.
	CSP Method = iota
	// Probabilistic is the factored-HMM method of §5.
	Probabilistic
	// Combined is the §7 suggestion that "both techniques (or a
	// combination of the two) are likely to be required": it trusts
	// the CSP where the strict constraints are satisfiable (clean
	// data, where the CSP is most reliable) and falls back to the
	// inconsistency-tolerant probabilistic model otherwise.
	Combined
)

// String returns the name of the method's solver.
func (m Method) String() string {
	switch m {
	case CSP:
		return "csp"
	case Probabilistic:
		return "probabilistic"
	case Combined:
		return "combined"
	default:
		return "unknown"
	}
}

// Options tunes the pipeline.
type Options struct {
	Method Method
	// Solver, when non-empty, names the solver to run and overrides
	// Method: any name solvers.Names lists ("exact", "greedy",
	// "uniform", or one of the Methods' names).
	Solver string
	// MinSlotQuality is the threshold below which the template's table
	// slot is considered shattered and the whole page is used instead
	// (the paper's fallback for numbered entries). Default 0.5.
	MinSlotQuality float64
	// ForceWholePage skips template finding entirely (ablation).
	ForceWholePage bool
	// MineLabels enables §3.4's semantic column labeling: column names
	// are mined from the captions preceding each value on its detail
	// page.
	MineLabels bool
	// CSPColumns enables §6.3's CSP-based column extraction: after a
	// successful record segmentation, a second constraint problem
	// assigns column labels using content-similarity constraints.
	CSPColumns bool
	// DetectVertical enables vertical-table handling (an extension
	// beyond §3's horizontal-only scope): when adjacent extracts'
	// detail sets are mostly disjoint the table is judged vertical and
	// the extract stream is transposed into record-major order before
	// segmentation.
	DetectVertical bool
	// StripEnumeration enables the §6.3 future-work heuristic: detect
	// enumerated entries ("1.", "2.", ...) in the induced skeleton and
	// strip them before locating the table slot, instead of falling
	// back to the whole page. Off by default to keep the headline
	// Table 4 faithful to the paper.
	StripEnumeration bool
	// CSPParams configures the CSP solver.
	CSPParams csp.SolveParams
	// PHMMParams configures the probabilistic model.
	PHMMParams phmm.Params
}

// DefaultOptions returns the configuration used in the paper
// reproduction for the given method.
func DefaultOptions(m Method) Options {
	return Options{
		Method:         m,
		MinSlotQuality: 0.5,
		CSPColumns:     true,
		MineLabels:     true,
		PHMMParams:     phmm.DefaultParams(),
	}
}

// Segmentation is the pipeline's result.
type Segmentation struct {
	// Records in record order. Records with no evidence on the list
	// page are absent.
	Records []Record
	// Method that produced the segmentation.
	Method Method
	// Solver is the name of the solver that actually ran
	// (Options.Solver, or Method's name when unset).
	Solver string
	// UsedWholePage is true when the template fallback fired (§6.2).
	UsedWholePage bool
	// EnumerationStripped counts the enumerated skeleton tokens removed
	// by the StripEnumeration heuristic (0 when disabled or not
	// needed).
	EnumerationStripped int
	// Vertical is true when the vertical-table extension detected a
	// vertically laid out table and transposed the extract stream.
	Vertical bool
	// TemplateQuality is the table-slot concentration measure.
	TemplateQuality float64
	// TotalExtracts and Analyzed count the table slot's extracts and
	// the informative subset used for inference.
	TotalExtracts, Analyzed int
	// CSPStatus reports the solver outcome for the CSP method.
	CSPStatus csp.Status
	// Relaxed is true when the CSP relaxation ladder fired.
	Relaxed bool
	// PHMM carries the learned model for the probabilistic method.
	PHMM *phmm.Result
	// ColumnLabels holds the mined semantic name of each column label
	// (index = column number, "" when no caption was found); nil when
	// label mining is disabled or no columns were assigned.
	ColumnLabels []string
}
