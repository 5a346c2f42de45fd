// Package stage decomposes the paper's pipeline (§3–§6) into an
// explicit stage graph: each stage is a pure function over exported
// artifact types. The stages, in pipeline order, and the paper
// sections they reproduce:
//
//	Tokenize       §3.1  pages -> token streams
//	InduceTemplate §3.1  sample list pages -> page template
//	SelectSlot     §3.1  template + target page -> table slot
//	Extract        §3.2  table slot -> extracts
//	Observe        §3.2  extracts x detail pages -> observation matrix
//	Segment        §4/§5 problem -> record assignment (internal/solvers)
//	PostProcess    §6.2  assignment -> records (+ §3.4 column labels)
//
// The package deliberately knows nothing about the algorithms: it may
// not import the algorithm packages (internal/csp, internal/phmm,
// internal/baseline) or internal/solvers — an invariant enforced by
// tableseglint's stagepurity analyzer. It defines the Segment stage's
// input (Problem) and output (Assignment); internal/solvers runs the
// algorithms between them, and internal/core runs the chosen solver
// as the Segment stage. Orchestration (fallbacks, retries, error
// classification) lives in internal/core; artifact caching and
// concurrency live in internal/engine.
//
// Every stage has the shape func(ctx, In) (Out, error). Run them
// through Instrument to get per-stage wall times (via the audited
// internal/clock seam) delivered to an Observer, and a guaranteed
// context check between stages: a context canceled after stage N
// returns a wrapped, errors.Is-able ctx.Err() without invoking stage
// N+1.
package stage

import (
	"context"
	"fmt"
	"time"

	"tableseg/internal/clock"
)

// Canonical stage names, as reported to Observers and displayed by the
// CLIs. They appear in pipeline order.
const (
	StageTokenize       = "Tokenize"
	StageInduceTemplate = "InduceTemplate"
	StageSelectSlot     = "SelectSlot"
	StageExtract        = "Extract"
	StageObserve        = "Observe"
	StageSegment        = "Segment"
	StagePostProcess    = "PostProcess"
)

// Names lists the canonical stage names in pipeline order.
func Names() []string {
	return []string{
		StageTokenize, StageInduceTemplate, StageSelectSlot,
		StageExtract, StageObserve, StageSegment, StagePostProcess,
	}
}

// Observer receives per-stage instrumentation. Durations are measured
// through internal/clock, the repository's audited wall-clock seam, so
// observers never influence segmentation output. Implementations must
// be safe for use from the goroutine running the pipeline; one given
// to an engine sees the stages of every task it runs, so it must be
// safe for concurrent use.
type Observer interface {
	// OnStageStart fires immediately before the stage function runs.
	OnStageStart(name string)
	// OnStageEnd fires after the stage function returns, with its wall
	// time and error (nil on success).
	OnStageEnd(name string, dur time.Duration, err error)
}

// Instrument runs one stage function under an observer. It checks the
// context first — a canceled context returns a wrapped ctx.Err()
// without invoking the stage (so cancellation between stages never
// starts the next one) — then times the stage through internal/clock
// and reports to obs (which may be nil).
func Instrument[In, Out any](ctx context.Context, name string, obs Observer, fn func(context.Context, In) (Out, error), in In) (Out, error) {
	var zero Out
	if err := ctx.Err(); err != nil {
		return zero, fmt.Errorf("stage: %s not started: %w", name, err)
	}
	if obs != nil {
		obs.OnStageStart(name)
	}
	start := clock.Now()
	out, err := fn(ctx, in)
	if obs != nil {
		obs.OnStageEnd(name, clock.Since(start), err)
	}
	return out, err
}
