package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"tableseg/internal/core"
	"tableseg/internal/engine"
)

// TimingReport aggregates the stage-graph instrumentation of a full
// Table 4 workload: per-stage wall time summed across every task, the
// engine's artifact-cache counters, and the end-to-end task wall time.
// Unlike the tables, the report is a performance diagnostic — its
// durations vary run to run and it is not part of the checked-in
// reference outputs.
type TimingReport struct {
	// Tasks is the number of engine tasks that ran (48: 24 pages under
	// both methods).
	Tasks int
	// Wall sums the tasks' end-to-end wall times (CPU-seconds spent in
	// workers, not elapsed time).
	Wall time.Duration
	// Stages aggregates each pipeline stage across every task, in
	// pipeline order.
	Stages []core.StageTiming
	// Cache is the engine's aggregate cache-counter snapshot.
	Cache engine.CacheStats
}

// RunTiming runs the Table 4 workload through the batch engine and
// aggregates its per-stage instrumentation.
func RunTiming(ctx context.Context, seed int64) (*TimingReport, error) {
	run, err := runCorpus(ctx, seed)
	if err != nil {
		return nil, err
	}
	rep := &TimingReport{Tasks: len(run.results), Cache: run.cache}
	for _, r := range run.results {
		if r.Err != nil {
			return nil, fmt.Errorf("timing task %s: %w", r.ID, r.Err)
		}
		rep.Wall += r.Stats.Wall
		for _, s := range r.Stats.Stages {
			rep.Stages = mergeStage(rep.Stages, s)
		}
	}
	return rep, nil
}

// mergeStage folds one stage aggregate into the report, merging by
// name in first-appearance (pipeline) order.
func mergeStage(stages []core.StageTiming, s core.StageTiming) []core.StageTiming {
	for i := range stages {
		if stages[i].Name == s.Name {
			stages[i].Duration += s.Duration
			stages[i].Calls += s.Calls
			return stages
		}
	}
	return append(stages, s)
}

// RenderTiming formats the report as a fixed-width table.
func RenderTiming(r *TimingReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Stage timing over the Table 4 workload (%d tasks, %v total task wall time)\n",
		r.Tasks, r.Wall.Round(time.Millisecond))
	fmt.Fprintf(&b, "%-16s %8s %12s %12s\n", "stage", "calls", "total", "per call")
	for _, s := range r.Stages {
		per := time.Duration(0)
		if s.Calls > 0 {
			per = s.Duration / time.Duration(s.Calls)
		}
		fmt.Fprintf(&b, "%-16s %8d %12s %12s\n", s.Name, s.Calls,
			s.Duration.Round(time.Microsecond), per.Round(time.Microsecond))
	}
	fmt.Fprintf(&b, "cache: token %d hits / %d misses; template %d hits / %d misses\n",
		r.Cache.TokenHits, r.Cache.TokenMisses, r.Cache.TemplateHits, r.Cache.TemplateMisses)
	return b.String()
}
