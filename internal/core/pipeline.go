// Package core orchestrates the paper's end-to-end pipeline (§3) as an
// explicit stage graph: Tokenize → InduceTemplate → SelectSlot →
// Extract → Observe → Segment → PostProcess. The stages themselves are
// pure functions over typed artifacts (internal/stage); the Segment
// stage runs the solver that solvers.New builds from Options.Solver or
// Options.Method. What remains here is the paper's control flow —
// input validation, the fallback and retry ladder (single-page row
// detection, shattered-slot whole-page fallback, coverage retry),
// error classification into the typed sentinels, and the mapping of
// the solver's result onto the public Segmentation.
package core

import (
	"context"
	"fmt"

	"tableseg/internal/baseline"
	"tableseg/internal/solvers"
	"tableseg/internal/stage"
	"tableseg/internal/token"
)

// Env carries the batch-processing hooks of one Segment call. The zero
// Env is valid: no caching, no observation, no collection.
type Env struct {
	// Cache, when non-nil, resolves page tokenization and template
	// induction through a shared artifact cache (the engine passes one
	// per task; the Tokenize and InduceTemplate stages consult it).
	Cache stage.Cache
	// Observer, when non-nil, receives a callback at every stage
	// boundary, in addition to the Stats collection.
	Observer stage.Observer
	// Stats, when non-nil, receives per-stage wall times and solver
	// counters.
	Stats *Stats
}

// SegmentContext runs the full pipeline under a context: cancellation
// and deadlines are honored at stage boundaries and inside the solver
// hot loops (WSAT restarts, EM iterations), so a cancelled call returns
// ctx.Err() promptly while uncancelled runs stay deterministic.
func SegmentContext(ctx context.Context, in Input, opts Options) (*Segmentation, error) {
	return SegmentEnv(ctx, in, opts, Env{})
}

// SegmentEnv runs the stage graph over one input with the given
// environment hooks.
func SegmentEnv(ctx context.Context, in Input, opts Options, env Env) (*Segmentation, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if len(in.ListPages) == 0 {
		return nil, fmt.Errorf("%w: need at least one", ErrTooFewListPages)
	}
	if in.Target < 0 || in.Target >= len(in.ListPages) {
		return nil, fmt.Errorf("%w: %d of %d", ErrBadTarget, in.Target, len(in.ListPages))
	}
	if len(in.DetailPages) == 0 {
		return nil, ErrNoDetailPages
	}
	if opts.MinSlotQuality == 0 {
		opts.MinSlotQuality = 0.5
	}
	stats := env.Stats
	if stats == nil {
		stats = &Stats{} // discarded collector; keeps the hot path branch-free
	}
	var obs stage.Observer = &statsObserver{stats: stats}
	if env.Observer != nil {
		obs = stage.MultiObserver{obs, env.Observer}
	}
	solverName, solver, err := newSolver(opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// Tokenize everything (through the cache when supplied).
	toks, err := stage.Instrument(ctx, stage.StageTokenize, obs, stage.Tokenize, stage.TokenizeIn{
		ListPages: in.ListPages, DetailPages: in.DetailPages, Cache: env.Cache,
	})
	if err != nil {
		return nil, err
	}
	target := toks.Lists[in.Target].Tokens

	// Template induction over the sample list pages.
	tpl, err := stage.Instrument(ctx, stage.StageInduceTemplate, obs, stage.InduceTemplate, stage.TemplateIn{
		Lists: toks.Lists, Cache: env.Cache,
	})
	if err != nil {
		return nil, err
	}

	// Table-slot location, with the paper's whole-page fallbacks.
	slot, err := stage.Instrument(ctx, stage.StageSelectSlot, obs, stage.SelectSlot, stage.SlotIn{
		Template: tpl, Lists: toks.Lists, Target: in.Target,
		MinSlotQuality: opts.MinSlotQuality, StripEnumeration: opts.StripEnumeration,
		ForceWholePage: opts.ForceWholePage,
	})
	if err != nil {
		return nil, err
	}
	// A single sample page cannot support cross-page template
	// induction; fall back to single-page row-repetition analysis (the
	// IEPAD-style detector) to bound the table region, and keep the
	// whole page when no repeated row structure exists.
	if !opts.ForceWholePage && len(in.ListPages) < 2 {
		if s, e, ok := baseline.TableSpan(target); ok {
			slot = stage.Slot{Start: s, End: e, Quality: 1}
		}
	}
	seg := &Segmentation{Method: opts.Method, Solver: solverName}
	seg.UsedWholePage = slot.WholePage
	seg.TemplateQuality = slot.Quality
	seg.EnumerationStripped = slot.EnumerationStripped

	// Extracts and observations.
	var otherLists [][]token.Token
	for i := range toks.Lists {
		if i != in.Target {
			otherLists = append(otherLists, toks.Lists[i].Tokens)
		}
	}
	observe := func(slot stage.Slot) (stage.Extracts, *stage.ObservationMatrix, error) {
		exs, err := stage.Instrument(ctx, stage.StageExtract, obs, stage.Extract,
			stage.ExtractIn{Target: toks.Lists[in.Target], Slot: slot})
		if err != nil {
			return stage.Extracts{}, nil, err
		}
		matrix, err := stage.Instrument(ctx, stage.StageObserve, obs, stage.Observe, stage.ObserveIn{
			Extracts: exs, Details: toks.Details, OtherLists: otherLists,
			DetectVertical: opts.DetectVertical,
		})
		return exs, matrix, err
	}
	exs, matrix, err := observe(slot)
	if err != nil {
		return nil, err
	}
	// Structural sanity check: every detail page is a record of this
	// list page, so every detail page should support at least one
	// analyzed extract. If some pages are uncovered the table slot is
	// probably truncated (a data value masquerading as a template token
	// split the table) — retry with the whole page.
	if !slot.WholePage && !matrix.Covered {
		seg.UsedWholePage = true
		exs, matrix, err = observe(stage.Slot{Start: 0, End: len(target), WholePage: true})
		if err != nil {
			return nil, err
		}
	}
	seg.TotalExtracts = len(exs.Items)
	seg.Analyzed = len(matrix.Analyzed)
	if len(exs.Items) == 0 {
		return seg, fmt.Errorf("%w: %q", ErrNoTableSlot, in.ListPages[in.Target].Name)
	}
	if len(matrix.Analyzed) == 0 {
		// Nothing to segment: no extract appears on any detail page.
		// The segmentation still carries its diagnostics.
		return seg, fmt.Errorf("%w: %q (%d extracts)", ErrNoDetailEvidence, in.ListPages[in.Target].Name, len(exs.Items))
	}
	seg.Vertical = matrix.Vertical

	// Run the selected solver over the analyzed extracts.
	res, err := stage.Instrument(ctx, stage.StageSegment, obs, solver.Solve, stage.BuildProblem(matrix))
	if err != nil {
		return nil, err
	}
	stats.WSATRestarts += res.Counters.WSATRestarts
	stats.WSATFlips += res.Counters.WSATFlips
	stats.CutRounds += res.Counters.CutRounds
	stats.EMIters += res.Counters.EMIters
	if res.CSP != nil {
		seg.CSPStatus = res.CSP.Status
		seg.Relaxed = res.CSP.Relaxed
	}
	seg.PHMM = res.PHMM
	if res.Exhausted {
		// The solver ran out of fallbacks without finding any feasible
		// assignment; report it as a typed error (the seg still carries
		// the diagnostics).
		return seg, fmt.Errorf("%w: %q", ErrCSPUnsatisfiable, in.ListPages[in.Target].Name)
	}

	// Attach the evidence-free remainder (§6.2), mine column labels.
	post, err := stage.Instrument(ctx, stage.StagePostProcess, obs, stage.PostProcess, stage.PostIn{
		Extracts: exs, Matrix: matrix, Assignment: &res.Assignment,
		Details: toks.Details, MineLabels: opts.MineLabels,
	})
	if err != nil {
		return nil, err
	}
	seg.ColumnLabels = post.ColumnLabels
	seg.Records = post.Records
	return seg, nil
}

// newSolver resolves the options to a solver name (Options.Solver, or
// the Method's name when unset) and the solver configured for it.
func newSolver(opts Options) (string, solvers.Solver, error) {
	name := opts.Solver
	if name == "" {
		name = opts.Method.String()
	}
	s, err := solvers.New(name, solvers.Config{
		CSP: opts.CSPParams, PHMM: opts.PHMMParams, CSPColumns: opts.CSPColumns,
	})
	if err != nil {
		return "", nil, fmt.Errorf("%w: %w", ErrBadOptions, err)
	}
	return name, s, nil
}
