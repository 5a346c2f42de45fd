package core

import "errors"

// Sentinel errors for the pipeline's failure modes, matchable with
// errors.Is. Segment wraps them with %w and task-specific detail; the
// root package re-exports them so callers never need to import
// internal/core.
var (
	// ErrTooFewListPages: the input carried no list pages (at least one
	// is required; two or more enable cross-page template induction).
	ErrTooFewListPages = errors.New("core: too few list pages")
	// ErrNoDetailPages: the input carried no detail pages.
	ErrNoDetailPages = errors.New("core: no detail pages")
	// ErrBadTarget: the target index is outside the list-page slice.
	ErrBadTarget = errors.New("core: target list page out of range")
	// ErrNoTableSlot: the target page yielded no extracts at all — even
	// the whole-page fallback found nothing segmentable (an empty or
	// text-free document).
	ErrNoTableSlot = errors.New("core: no table slot: target page has no extracts")
	// ErrNoDetailEvidence: the table slot has extracts but none of them
	// appears on any detail page, so there is no evidence to segment
	// with. The returned Segmentation still carries diagnostics
	// (TemplateQuality, TotalExtracts, UsedWholePage).
	ErrNoDetailEvidence = errors.New("core: no extract carries detail-page evidence")
	// ErrCSPUnsatisfiable: the CSP method exhausted the relaxation
	// ladder without finding any feasible assignment. (Under
	// CSPParams.NoRelax or with repair disabled via a negative
	// MaxCutRounds — the ablation configurations that ask to observe
	// failures — the outcome is reported through
	// Segmentation.CSPStatus instead.)
	ErrCSPUnsatisfiable = errors.New("core: CSP unsatisfiable even after relaxation")
	// ErrBadOptions: Options.Validate rejected the configuration.
	ErrBadOptions = errors.New("core: invalid options")
)
