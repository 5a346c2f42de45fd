package tableseg

import (
	"tableseg/internal/artifact"
	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/stage"
)

// Engine is a reusable, concurrent batch segmenter: tasks fan out over
// bounded workers, token streams are cached by page content hash and
// per-site templates by list-page content hash, and each result
// carries typed errors plus per-stage instrumentation. Results are
// identical to serial Segment calls regardless of concurrency.
//
//	eng, err := tableseg.NewEngine(tableseg.EngineConfig{
//	    Options: tableseg.DefaultOptions(tableseg.Probabilistic),
//	})
//	for res := range eng.Stream(ctx, tasks) { // tasks: a <-chan Task
//	    if res.Err != nil { ... }
//	    use(res.Index, res.Seg, res.Stats)
//	}
//
// Two submission surfaces share the caches: Stream for a batch — an
// order-independent, backpressured pipe of tasks whose results carry
// their submission Index — and Submit/Close for long-running services
// that admit independent one-off tasks (tablesegd is built on it).
// Each Stream call runs its own Concurrency workers; only Submit calls
// share one pool of Concurrency slots. Both produce results
// byte-identical to serial Segment calls.
type Engine = engine.Engine

// EngineConfig configures NewEngine; see engine.Config.
type EngineConfig = engine.Config

// Task is one unit of Engine batch work (input plus optional ID and
// per-task options override).
type Task = engine.Task

// Result is the outcome of one Engine task: segmentation or typed
// error, plus TaskStats.
type Result = engine.Result

// TaskStats is the per-task instrumentation record: stage wall times,
// solver effort counters, total wall time, and cache outcome.
type TaskStats = engine.TaskStats

// Stats is the pipeline's per-stage instrumentation embedded in
// TaskStats.
type Stats = core.Stats

// StageTiming is one pipeline stage's aggregated wall time within a
// Stats collection (Stats.Stages lists them in pipeline order).
type StageTiming = core.StageTiming

// CacheStats is an Engine's aggregate artifact-cache counters:
// content-addressed tokenization, per-site template preps, resumed-
// batch journal lookups, and per-tier store counters; see
// Engine.CacheStats.
type CacheStats = engine.CacheStats

// CacheTierStats is one cache tier's counter snapshot (hits, misses,
// puts, evictions, absorbed errors, resident entries/bytes), reported
// in CacheStats.Tiers with the fast tier first.
type CacheTierStats = artifact.Stats

// Observer receives per-stage instrumentation callbacks; attach one
// via EngineConfig.Observer to collect metrics (latency histograms,
// tracing) without forking the engine. Implementations must be safe
// for concurrent use — the engine runs tasks on many goroutines.
type Observer = stage.Observer

// NewEngine creates an Engine after validating the configuration
// (ErrBadOptions on a bad one).
func NewEngine(cfg EngineConfig) (*Engine, error) { return engine.New(cfg) }

// InputKey returns the hex content hash of a segmentation input (list
// pages, target, detail pages) — the engine's coalescing key: two
// inputs share a key exactly when the engine computes byte-identical
// segmentations for them under equal options.
func InputKey(in Input) string { return engine.InputKey(in) }
