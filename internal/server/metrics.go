package server

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "tableseg/api/v1"
	"tableseg/internal/core"
	"tableseg/internal/stage"
)

// metrics holds the daemon's cumulative counters. Hot-path counters
// are atomics; the per-code error map and the stage histograms take a
// short mutex on their own paths only.
type metrics struct {
	requests struct {
		total, ok                             atomic.Int64
		rateLimited, queueFull, drainRejected atomic.Int64
	}
	tasksCompleted atomic.Int64

	codeMu sync.Mutex
	byCode map[string]int64

	stages *stageHistograms
}

func newMetrics() *metrics {
	return &metrics{
		byCode: make(map[string]int64),
		stages: newStageHistograms(),
	}
}

func (m *metrics) countCode(c apiv1.Code) {
	m.codeMu.Lock()
	defer m.codeMu.Unlock()
	m.byCode[string(c)]++
}

// snapshot converts the counters to their wire shape. The caller
// (Server.Varz) fills in the gauges it owns.
func (m *metrics) snapshot() *apiv1.Metrics {
	out := &apiv1.Metrics{
		Requests: apiv1.RequestCounters{
			Total:         m.requests.total.Load(),
			OK:            m.requests.ok.Load(),
			RateLimited:   m.requests.rateLimited.Load(),
			QueueFull:     m.requests.queueFull.Load(),
			DrainRejected: m.requests.drainRejected.Load(),
		},
		Engine: apiv1.EngineCounters{
			TasksCompleted: m.tasksCompleted.Load(),
		},
		Stages: m.stages.snapshot(),
	}
	m.codeMu.Lock()
	if len(m.byCode) > 0 {
		out.Requests.ByCode = make(map[string]int64, len(m.byCode))
		for k, v := range m.byCode {
			out.Requests.ByCode[k] = v
		}
	}
	m.codeMu.Unlock()
	return out
}

// histBoundsMillis are the fixed latency bucket upper bounds served in
// /varz stage histograms.
var histBoundsMillis = []float64{1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// stageHistograms aggregates per-stage latency histograms from the
// per-stage timings each task returns in its stats; add may be called
// from many handler goroutines at once.
type stageHistograms struct {
	mu sync.Mutex
	m  map[string]*stageHist
}

type stageHist struct {
	count    int64
	total    time.Duration
	buckets  []int64
	overflow int64
}

func newStageHistograms() *stageHistograms {
	return &stageHistograms{m: make(map[string]*stageHist)}
}

// add folds one task's stage timings into the histograms. A stage
// called several times in the task (the coverage retry re-runs Extract
// and Observe) adds each call to the bucket of the stage's mean
// duration, since the task keeps only the total.
func (o *stageHistograms) add(stages []core.StageTiming) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, st := range stages {
		h := o.m[st.Name]
		if h == nil {
			h = &stageHist{buckets: make([]int64, len(histBoundsMillis))}
			o.m[st.Name] = h
		}
		calls := int64(st.Calls)
		h.count += calls
		h.total += st.Duration
		mean := float64((st.Duration / time.Duration(calls)).Microseconds()) / 1e3
		if i := sort.SearchFloat64s(histBoundsMillis, mean); i < len(h.buckets) {
			h.buckets[i] += calls
		} else {
			h.overflow += calls
		}
	}
}

// snapshot renders the histograms in pipeline order (canonical stages
// first, any others sorted after), so /varz output is deterministic.
func (o *stageHistograms) snapshot() []apiv1.StageHistogram {
	o.mu.Lock()
	defer o.mu.Unlock()
	if len(o.m) == 0 {
		return nil
	}
	names := make([]string, 0, len(o.m))
	seen := make(map[string]bool, len(o.m))
	for _, n := range stage.Names() {
		if _, ok := o.m[n]; ok {
			names = append(names, n)
			seen[n] = true
		}
	}
	extra := make([]string, 0)
	for n := range o.m {
		if !seen[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	names = append(names, extra...)

	out := make([]apiv1.StageHistogram, 0, len(names))
	for _, n := range names {
		h := o.m[n]
		counts := make([]int64, len(h.buckets))
		copy(counts, h.buckets)
		out = append(out, apiv1.StageHistogram{
			Stage:        n,
			Count:        h.count,
			TotalMillis:  float64(h.total.Microseconds()) / 1e3,
			BoundsMillis: histBoundsMillis,
			Counts:       counts,
			Overflow:     h.overflow,
		})
	}
	return out
}
