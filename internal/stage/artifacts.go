package stage

import (
	"tableseg/internal/extract"
	"tableseg/internal/pagetemplate"
	"tableseg/internal/token"
)

// Page is one HTML document (a list page or a detail page). It is the
// pipeline's raw input artifact; internal/core and the root package
// alias it so the public API type is identical.
type Page struct {
	// Name identifies the page in diagnostics (a URL or file name).
	Name string
	// HTML is the raw document source.
	HTML string
}

// TokenizedPage is the Tokenize stage's artifact: one page lexed into
// the paper's eight syntactic token types (§3.1).
type TokenizedPage struct {
	// Name echoes the source page's name.
	Name string
	// Tokens is the page's token stream.
	Tokens []token.Token
}

// TokensOf projects a slice of tokenized pages to their raw token
// streams (the shape the lower-level packages consume).
func TokensOf(pages []TokenizedPage) [][]token.Token {
	out := make([][]token.Token, len(pages))
	for i := range pages {
		out[i] = pages[i].Tokens
	}
	return out
}

// Template is the InduceTemplate stage's artifact: the page template
// shared by a site's sample list pages (§3.1).
type Template struct {
	// Tpl is the induced template, nil when fewer than two sample
	// pages were available (cross-page induction needs at least two).
	Tpl *pagetemplate.Template
}

// Slot is the SelectSlot stage's artifact: the token span of the
// target page holding the table, plus the diagnostics the fallback
// decisions were made from.
type Slot struct {
	// Start and End bound the table slot in the target page's token
	// stream (half-open).
	Start, End int
	// Quality is the table-slot concentration measure (0 when no
	// template was available).
	Quality float64
	// WholePage is true when the paper's fallback fired and the slot
	// spans the entire page ("page template problem; entire page
	// used", §6.2).
	WholePage bool
	// EnumerationStripped counts the enumerated skeleton tokens
	// removed by the §6.3 strip-enumeration heuristic (0 when disabled
	// or not needed).
	EnumerationStripped int
}

// Extracts is the Extract stage's artifact: the visible strings of the
// table slot in stream order (§3.2).
type Extracts struct {
	// Items are the slot's extracts.
	Items []extract.Extract
}

// ObservationMatrix is the Observe stage's artifact: everything the
// detail pages say about the extracts (Table 1), the informative
// subset chosen for inference, and the structural diagnostics the
// orchestrator's retry decisions are made from.
type ObservationMatrix struct {
	// Obs is the per-extract observation row, parallel to the Extract
	// stage's Items.
	Obs []extract.Observation
	// Analyzed indexes the informative (evidence-bearing) extracts in
	// Obs, in the order inference will see them. The vertical-table
	// extension may have permuted it into record-major order.
	Analyzed []int
	// NumDetailPages is K, the record count.
	NumDetailPages int
	// Covered is true when every detail page supports at least one
	// analyzed extract; a false value signals a truncated table slot
	// (the orchestrator retries with the whole page).
	Covered bool
	// Vertical is true when the vertical-table extension detected a
	// vertically laid out table and transposed Analyzed.
	Vertical bool
}

// Candidates projects the analyzed extracts' observations to their D_i
// record-candidate lists (the CSP's domains, the PHMM's evidence).
func (m *ObservationMatrix) Candidates() [][]int {
	out := make([][]int, len(m.Analyzed))
	for ai, oi := range m.Analyzed {
		out[ai] = m.Obs[oi].Pages
	}
	return out
}

// Problem is the solver-facing artifact: the common intermediate
// format every segmentation algorithm consumes. It carries only plain
// data — record count, candidate sets, position groups, token-type
// evidence — so solvers depend on artifacts, never on the stages or on
// each other.
type Problem struct {
	// NumRecords is K, the number of detail pages (records).
	NumRecords int
	// Candidates[i] is D_i for analyzed extract i: the sorted record
	// indices on whose detail pages the extract was observed.
	Candidates [][]int
	// PositionGroups maps a detail-page index j to groups of extract
	// indices sharing a position on page j (the §4.2 position
	// constraints).
	PositionGroups map[int][][]int
	// TypeVecs[i] is the token-type vector of analyzed extract i (the
	// §5 emission evidence).
	TypeVecs [][token.NumTypes]bool
	// FirstTypes[i] is the first token type of analyzed extract i (the
	// §6.3 column-assignment evidence).
	FirstTypes []token.Type
}

// Counters aggregates a solver's effort, whatever its family.
type Counters struct {
	// WSATRestarts and WSATFlips count the local-search work of every
	// WSAT run of the solve, column assignment included (CSP family).
	WSATRestarts, WSATFlips int
	// CutRounds counts lazy consecutiveness-repair iterations.
	CutRounds int
	// EMIters counts EM iterations (probabilistic family).
	EMIters int
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.WSATRestarts += other.WSATRestarts
	c.WSATFlips += other.WSATFlips
	c.CutRounds += other.CutRounds
	c.EMIters += other.EMIters
}

// Assignment is the Segment stage's artifact: one record (and
// optionally column) per analyzed extract, plus the solver's effort.
type Assignment struct {
	// Records[i] is the record assigned to analyzed extract i, or -1
	// when the solver left it unassigned (relaxed CSP solutions).
	Records []int
	// Columns[i] is the column label of analyzed extract i, or -1 when
	// the solver does not assign columns.
	Columns []int
	// Confidence[i] is the solver's posterior confidence in the
	// assignment, or -1 when unavailable.
	Confidence []float64
	// Exhausted is true when the solver ran out of fallbacks without
	// finding any feasible assignment — the orchestrator classifies it
	// as a typed unsatisfiability error. Solvers whose configuration
	// asks to observe failures (ablations) leave it false and report
	// the failure in their own result instead.
	Exhausted bool
	// Counters totals the solver's effort.
	Counters Counters
}

// Record is the PostProcess stage's artifact: one segmented record.
// internal/core and the root package alias it so the public API type
// is identical.
type Record struct {
	// Index is the record number: the index of the detail page the
	// record corresponds to.
	Index int
	// Extracts are the record's extracts in stream order (both the
	// evidence-bearing ones and the attached remainder).
	Extracts []extract.Extract
	// Columns holds, per extract, the column label assigned by the
	// probabilistic method (§3.4), or -1 when unavailable.
	Columns []int
	// Analyzed marks, per extract, whether it was an informative
	// (evidence-bearing) extract; the rest were attached by the §6.2
	// rule.
	Analyzed []bool
	// Confidence holds, per extract, the probabilistic method's
	// posterior confidence in the assignment (-1 for attached extracts
	// or when the CSP method ran).
	Confidence []float64
}

// Texts returns the record's extract strings in order.
func (r *Record) Texts() []string {
	out := make([]string, len(r.Extracts))
	for i := range r.Extracts {
		out[i] = r.Extracts[i].Text()
	}
	return out
}

// Cache resolves the front end's two reusable artifacts through a
// caller-owned store: each page's token stream, keyed by the page's
// content, and the template of one task's sample list pages. The
// Tokenize and InduceTemplate stages consult it, so the lookups, and
// the work done on a miss, count in those stages' timings. One Cache
// serves one pipeline run (the engine builds one per task, and the
// store behind it is shared). Callers treat the returned artifacts as
// immutable. A nil Cache in a stage input means "compute directly".
type Cache interface {
	// Tokens returns the token stream of the page, computing and
	// retaining it on first sight.
	Tokens(p Page) []token.Token
	// Template returns the template of the run's sample list pages,
	// calling induce to build it on a miss.
	Template(induce func() *pagetemplate.Template) *pagetemplate.Template
}
