package core

import (
	"time"

	"tableseg/internal/stage"
)

// Stats records per-stage instrumentation of one Segment call — the
// pipeline's observability surface. All fields are measured on the
// task's own goroutine; a nil *Stats disables collection entirely.
type Stats struct {
	// Stages breaks the call down by pipeline stage, in pipeline order.
	Stages []StageTiming
	// Counters is the solver's effort: WSAT restarts and flips over the
	// CSP segmentation's rungs and the §6.3 column solve, cut rounds,
	// and EM iterations (each 0 for the other method).
	stage.Counters
}

// StageTiming aggregates the invocations of one pipeline stage within
// a Stats collection window.
type StageTiming struct {
	// Name is the stage name (stage.StageTokenize, ...).
	Name string
	// Duration totals the stage's wall time across Calls invocations.
	Duration time.Duration
	// Calls counts invocations (the coverage retry re-runs Extract and
	// Observe).
	Calls int
}

// AddStage folds one stage invocation into the collection: entries
// merge by name in first-invocation order.
func (s *Stats) AddStage(name string, d time.Duration) {
	for i := range s.Stages {
		if s.Stages[i].Name == name {
			s.Stages[i].Duration += d
			s.Stages[i].Calls++
			return
		}
	}
	s.Stages = append(s.Stages, StageTiming{Name: name, Duration: d, Calls: 1})
}

// statsObserver folds stage.Observer callbacks into a Stats' per-stage
// breakdown and forwards each callback to next, the caller's observer,
// when one is set.
type statsObserver struct {
	stats *Stats
	next  stage.Observer
}

func (o *statsObserver) OnStageStart(name string) {
	if o.next != nil {
		o.next.OnStageStart(name)
	}
}

func (o *statsObserver) OnStageEnd(name string, d time.Duration, err error) {
	o.stats.AddStage(name, d)
	if o.next != nil {
		o.next.OnStageEnd(name, d, err)
	}
}
