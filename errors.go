package tableseg

import "tableseg/internal/core"

// Sentinel errors re-exported from the pipeline so callers can classify
// failures with errors.Is without importing internal packages. Segment
// and the Engine wrap them with task-specific detail via %w.
var (
	// ErrTooFewListPages: the input carried no list pages (at least one
	// is required; two or more enable cross-page template induction).
	ErrTooFewListPages = core.ErrTooFewListPages
	// ErrNoDetailPages: the input carried no detail pages.
	ErrNoDetailPages = core.ErrNoDetailPages
	// ErrBadTarget: Input.Target is outside the list-page slice.
	ErrBadTarget = core.ErrBadTarget
	// ErrNoTableSlot: the target page yielded no extracts at all — even
	// the whole-page fallback found nothing segmentable.
	ErrNoTableSlot = core.ErrNoTableSlot
	// ErrNoDetailEvidence: no extract of the table slot appears on any
	// detail page, so there is no evidence to segment with. The
	// returned Segmentation still carries diagnostics.
	ErrNoDetailEvidence = core.ErrNoDetailEvidence
	// ErrCSPUnsatisfiable: the CSP method exhausted the relaxation
	// ladder without a feasible assignment.
	ErrCSPUnsatisfiable = core.ErrCSPUnsatisfiable
	// ErrBadOptions: Options.Validate (or EngineConfig.Validate)
	// rejected the configuration.
	ErrBadOptions = core.ErrBadOptions
)
