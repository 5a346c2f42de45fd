// Package apiv1 is the versioned wire format of the tablesegd
// segmentation daemon: the request, response, error and metrics DTOs
// exchanged over HTTP/JSON, with stable field names, plus the
// conversions between wire shapes and the tableseg library types. The
// server (internal/server), the Go client (internal/server/client) and
// the remote mode of cmd/tableseg all share this package, so the three
// cannot drift apart; any breaking change to the wire format belongs
// in a new version package (api/v2), never in edits to these structs.
//
// Endpoints:
//
//	POST /v1/segment  SegmentRequest -> SegmentResponse | ErrorResponse
//	GET  /healthz     "ok" (200) while serving, 503 while draining
//	GET  /varz        Metrics
//
// Failures are ErrorResponse envelopes whose Code is a stable string
// mapped from the library's sentinel errors; Error.Unwrap restores the
// matching sentinel, so errors.Is works across the wire.
package apiv1

import (
	"fmt"

	"tableseg"
)

// Version is the wire-format version implemented by this package.
const Version = "v1"

// The daemon's endpoint paths. PathSegment is versioned with the wire
// format; the health and metrics endpoints are operational surfaces
// shared across versions.
const (
	PathSegment = "/v1/segment"
	PathHealthz = "/healthz"
	PathVarz    = "/varz"
)

// Page is one HTML document of a request.
type Page struct {
	// Name identifies the page in diagnostics (a URL or file name).
	Name string `json:"name,omitempty"`
	// HTML is the raw document source.
	HTML string `json:"html"`
}

// SegmentRequest is the body of POST /v1/segment: one segmentation
// task plus optional configuration. Zero-valued configuration fields
// select the paper-reproduction defaults for the chosen method.
type SegmentRequest struct {
	// Method selects the segmentation algorithm: "csp",
	// "probabilistic" (the default when empty) or "combined".
	Method string `json:"method,omitempty"`
	// Solver, when non-empty, names the solver to run and overrides
	// Method ("exact", "greedy", "uniform", or a method's name).
	Solver string `json:"solver,omitempty"`
	// ListPages are the site's sampled list pages (two or more enable
	// cross-page template induction).
	ListPages []Page `json:"listPages"`
	// Target is the index into ListPages of the page to segment.
	Target int `json:"target"`
	// DetailPages are the pages linked from the target list page, in
	// link (record) order.
	DetailPages []Page `json:"detailPages"`
	// TimeoutMillis bounds the segmentation; the server clamps it to
	// its configured maximum and applies its default when zero.
	TimeoutMillis int64 `json:"timeoutMillis,omitempty"`
	// WantStats asks the server to include per-stage timing in the
	// response.
	WantStats bool `json:"wantStats,omitempty"`
}

// Input converts the request's pages into a library Input.
func (r *SegmentRequest) Input() tableseg.Input {
	in := tableseg.Input{Target: r.Target}
	for _, p := range r.ListPages {
		in.ListPages = append(in.ListPages, tableseg.Page{Name: p.Name, HTML: p.HTML})
	}
	for _, p := range r.DetailPages {
		in.DetailPages = append(in.DetailPages, tableseg.Page{Name: p.Name, HTML: p.HTML})
	}
	return in
}

// Options converts the request's configuration into validated library
// Options (ErrBadOptions on an unknown method or solver).
func (r *SegmentRequest) Options() (tableseg.Options, error) {
	m, err := ParseMethod(r.Method)
	if err != nil {
		return tableseg.Options{}, err
	}
	opts := tableseg.DefaultOptions(m)
	opts.Solver = r.Solver
	if err := opts.Validate(); err != nil {
		return tableseg.Options{}, err
	}
	return opts, nil
}

// ParseMethod maps a wire method name onto the library enum. The empty
// string selects Probabilistic — the method the daemon's record-major
// consumers want by default (column labels, reconstructed tables).
func ParseMethod(name string) (tableseg.Method, error) {
	switch name {
	case "", "prob", "probabilistic":
		return tableseg.Probabilistic, nil
	case "csp":
		return tableseg.CSP, nil
	case "combined":
		return tableseg.Combined, nil
	}
	return 0, fmt.Errorf("%w: unknown method %q (want csp, probabilistic or combined)", tableseg.ErrBadOptions, name)
}

// Record is one segmented record on the wire.
type Record struct {
	// Record is the 1-based record number (the detail page it
	// corresponds to).
	Record int `json:"record"`
	// Extracts are the record's extract texts in stream order.
	Extracts []string `json:"extracts"`
	// Columns holds, per extract, its 0-based column label, or -1 when
	// the method assigns none.
	Columns []int `json:"columns,omitempty"`
}

// SegmentResponse is the success body of POST /v1/segment.
type SegmentResponse struct {
	// Method and Solver report what actually ran.
	Method string `json:"method"`
	Solver string `json:"solver"`
	// Records are the segmented records in record order.
	Records []Record `json:"records"`
	// ColumnLabels are the mined semantic column names (index = column
	// number; empty strings where no caption was found).
	ColumnLabels []string `json:"columnLabels,omitempty"`
	// Table is the reconstructed relational view: one row per record,
	// one column per learned label.
	Table [][]string `json:"table"`
	// Diagnostics mirroring tableseg.Segmentation.
	UsedWholePage    bool   `json:"usedWholePage"`
	Vertical         bool   `json:"vertical,omitempty"`
	CSPStatus        string `json:"cspStatus,omitempty"`
	AnalyzedExtracts int    `json:"analyzedExtracts"`
	TotalExtracts    int    `json:"totalExtracts"`
	// Coalesced is always false: tablesegd runs every request through
	// its own engine run. It stays so that v1 clients keep decoding.
	Coalesced bool `json:"coalesced,omitempty"`
	// Stats carries per-stage timing when the request asked for it.
	Stats *TaskStats `json:"stats,omitempty"`
}

// StageTime is one pipeline stage's aggregated wall time within a
// task.
type StageTime struct {
	Stage  string  `json:"stage"`
	Calls  int     `json:"calls"`
	Millis float64 `json:"millis"`
}

// TaskStats is the wire shape of the engine's per-task
// instrumentation.
type TaskStats struct {
	WallMillis       float64     `json:"wallMillis"`
	Stages           []StageTime `json:"stages,omitempty"`
	WSATRestarts     int         `json:"wsatRestarts,omitempty"`
	WSATFlips        int         `json:"wsatFlips,omitempty"`
	EMIters          int         `json:"emIters,omitempty"`
	TemplateCacheHit bool        `json:"templateCacheHit,omitempty"`
	TokenCacheHits   int         `json:"tokenCacheHits,omitempty"`
	TokenCacheMisses int         `json:"tokenCacheMisses,omitempty"`
}

// ResponseFromSegmentation builds the wire response for a completed
// segmentation. The caller supplies the method that ran; stats may be
// nil.
func ResponseFromSegmentation(seg *tableseg.Segmentation, stats *TaskStats) *SegmentResponse {
	resp := &SegmentResponse{
		Method:           seg.Method.String(),
		Solver:           seg.Solver,
		ColumnLabels:     seg.ColumnLabels,
		Table:            tableseg.ReconstructTable(seg),
		UsedWholePage:    seg.UsedWholePage,
		Vertical:         seg.Vertical,
		AnalyzedExtracts: seg.Analyzed,
		TotalExtracts:    seg.TotalExtracts,
		Stats:            stats,
	}
	if seg.Method != tableseg.Probabilistic {
		resp.CSPStatus = seg.CSPStatus.String()
	}
	for i := range seg.Records {
		rec := &seg.Records[i]
		resp.Records = append(resp.Records, Record{
			Record:   rec.Index + 1,
			Extracts: rec.Texts(),
			Columns:  rec.Columns,
		})
	}
	return resp
}

// TaskStatsFromEngine converts the engine's instrumentation record to
// its wire shape.
func TaskStatsFromEngine(st tableseg.TaskStats) *TaskStats {
	out := &TaskStats{
		WallMillis:       float64(st.Wall.Microseconds()) / 1e3,
		WSATRestarts:     st.WSATRestarts,
		WSATFlips:        st.WSATFlips,
		EMIters:          st.EMIters,
		TemplateCacheHit: st.TemplateCacheHit,
		TokenCacheHits:   st.TokenCacheHits,
		TokenCacheMisses: st.TokenCacheMisses,
	}
	for _, s := range st.Stages {
		out.Stages = append(out.Stages, StageTime{
			Stage:  s.Name,
			Calls:  s.Calls,
			Millis: float64(s.Duration.Microseconds()) / 1e3,
		})
	}
	return out
}
