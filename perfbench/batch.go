package main

import (
	"context"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"tableseg/internal/artifact"
	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/stage"
)

// batchWorkload is a workload on the library engine: every pass
// generates fresh inputs and segments them with a fresh engine per
// method, so every cache starts cold.
type batchWorkload struct {
	jobs func(genSeed int64) []job
	// passesPer10s is the timed passes per 10 s of --seconds, measured
	// on a 2-vCPU host; minPasses keeps 100 or more pages per method,
	// so p90 has 10 samples beyond it.
	passesPer10s, minPasses int
	// setups is the number of set-ups whose median is setup_s.
	setups int
	// table4 makes set-up 0 a pass over the Table 4 corpus (generator
	// seed 42), scored against results/table4.txt, so every run checks
	// its outputs against the committed table whatever its seed.
	table4 bool
}

var (
	paperCorpus = batchWorkload{jobs: corpusJobs, passesPer10s: 12, minPasses: 5, setups: 5, table4: true}
	bulkyPages  = batchWorkload{jobs: bulkyJobs, passesPer10s: 16, minPasses: 7, setups: 5}
)

// passes is the fixed work of an untraced run.
func (w batchWorkload) passes(cfg config) int {
	if cfg.passes > 0 {
		return cfg.passes
	}
	return max(w.minPasses, cfg.seconds*w.passesPer10s/10)
}

// phase is one method's closed-loop run over a pass's jobs.
type phase struct {
	latMs   []float64
	results []engine.Result
	wall    time.Duration
	alloc   uint64
	sent    []time.Time
	recv    []time.Time
}

// runPhase streams jobs through eng, keeping inflight tasks
// outstanding: a task is handed to Stream only when an earlier one has
// returned. Each page is timed from hand-off to result. A tracer, when
// given, is told which task is in flight (inflight must then be 1):
// task idBase+i is jobs[i].
func runPhase(eng *engine.Engine, jobs []job, inflight int, tr *tracer, idBase int) phase {
	n := len(jobs)
	p := phase{latMs: make([]float64, n), results: make([]engine.Result, n), sent: make([]time.Time, n), recv: make([]time.Time, n)}
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	in := make(chan engine.Task)
	out := eng.Stream(context.Background(), in)
	start := time.Now()
	for next, done := 0, 0; done < n; {
		if next < n && next-done < inflight {
			if tr != nil {
				tr.begin(idBase + next)
			}
			p.sent[next] = time.Now()
			in <- engine.Task{ID: jobs[next].id, Input: jobs[next].in}
			next++
			continue
		}
		r := <-out
		now := time.Now()
		p.recv[r.Index] = now
		p.latMs[r.Index] = ms(now.Sub(p.sent[r.Index]))
		p.results[r.Index] = r
		done++
	}
	p.wall = time.Since(start)
	close(in)
	for range out {
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	p.alloc = after.TotalAlloc - before.TotalAlloc
	return p
}

func newEngine(m core.Method, workers int, tr *tracer) (*engine.Engine, error) {
	cfg := engine.Config{Options: core.DefaultOptions(m), Concurrency: workers}
	if tr != nil {
		cfg.Observer = tr
		cfg.Store = tracedStore{Store: artifact.NewMemory(0), t: tr}
	}
	return engine.New(cfg)
}

// account counts a phase's operations and fails every error that is
// not a pipeline diagnostic.
func (r *run) account(jobs []job, m core.Method, results []engine.Result) {
	for i, res := range results {
		r.attempted++
		if res.Err != nil && !isDiagnostic(res.Err) {
			r.fail("%s (%s): %v", jobs[i].id, suffix(m), res.Err)
		}
	}
}

// runBatch drives a batch workload: untraced, it measures set-up and
// the timed passes; traced, it runs paired untraced and traced phases
// one task at a time and reports per-layer metrics.
func runBatch(r *run, w batchWorkload) error {
	cfg := r.cfg
	setups := w.setups
	if cfg.setups > 0 {
		setups = cfg.setups
	}
	if cfg.trace {
		setups = 1
	} else {
		r.repeatBudget = (setups + len(methods)*w.passes(cfg)) / 4
	}
	var setupS, rawSetupS []float64
	for k := 0; k < setups; k++ {
		genSeed := warmupSeed(cfg.seed, k)
		if k == 0 && w.table4 {
			genSeed = table4Seed
		}
		jobs := w.jobs(genSeed)
		var results map[core.Method][]engine.Result
		var took time.Duration
		var sp speed
		err := r.calm(func() error {
			results = map[core.Method][]engine.Result{}
			var err error
			sp, err = r.bracket(func() error {
				start := time.Now()
				for _, m := range methods {
					eng, err := newEngine(m, cfg.workers, nil)
					if err != nil {
						return err
					}
					results[m] = runPhase(eng, jobs, cfg.workers, nil, 0).results
				}
				took = time.Since(start)
				return nil
			})
			if err != nil {
				return err
			}
			for _, m := range methods {
				r.account(jobs, m, results[m])
			}
			return nil
		})
		if err != nil {
			return err
		}
		setupS = append(setupS, sp.dur(took).Seconds())
		rawSetupS = append(rawSetupS, took.Seconds())
		if err := r.checkTable4(genSeed, jobs, results); err != nil {
			return err
		}
	}
	if cfg.trace {
		return runBatchTraced(r, w)
	}

	byMethod, raw := map[core.Method]*totals{}, map[core.Method]*totals{}
	for _, m := range methods {
		byMethod[m], raw[m] = &totals{}, &totals{}
	}
	sample := rand.New(rand.NewSource(shuffleSeed(cfg.seed, 1)))
	var last *engine.Engine
	passes := w.passes(cfg)
	for i := 0; i < passes; i++ {
		genSeed := passSeed(cfg.seed, i)
		jobs := w.jobs(genSeed)
		results := map[core.Method][]engine.Result{}
		for _, m := range methodOrder(i) {
			var eng *engine.Engine
			var p phase
			var sp speed
			err := r.calm(func() error {
				var err error
				if eng, err = newEngine(m, cfg.workers, nil); err != nil {
					return err
				}
				if err := r.timedStart(); err != nil {
					return err
				}
				sp, err = r.bracket(func() error {
					p = runPhase(eng, jobs, cfg.workers, nil, 0)
					return nil
				})
				if err != nil {
					return err
				}
				r.account(jobs, m, p.results)
				return nil
			})
			if err != nil {
				return err
			}
			byMethod[m].add(sp.lat(p.latMs), sp.dur(p.wall), p.alloc)
			raw[m].add(p.latMs, p.wall, p.alloc)
			results[m] = p.results

			// One sampled page per phase must equal a serial Segment.
			j := sample.Intn(len(jobs))
			if err := checkSerial(jobs[j], core.DefaultOptions(m), p.results[j].Seg, p.results[j].Err); err != nil {
				r.fail("%v", err)
			}
			last = eng
		}
		if err := r.checkTable4(genSeed, jobs, results); err != nil {
			return err
		}
	}
	r.timedEnd()
	r.ref = nil // heap_mb is what the program retains
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(last)
	r.metrics = endToEnd(setupS, byMethod, ms.HeapAlloc)
	r.note("%s", sampleLine(byMethod))
	r.note("passes: %d timed; set-ups %.3f s at reference speed", passes, setupS)
	r.note("%s", r.speedLine(endToEnd(rawSetupS, raw, ms.HeapAlloc)))
	r.noteRepeats()
	return nil
}

// tracedPasses is the work of a traced run: each pass runs every
// method twice, untraced and traced, one task at a time.
func tracedPasses(untraced int) int { return max(2, untraced/4) }

// runBatchTraced pairs each method's untraced phase with a traced one
// over the same inputs, both one task at a time, and derives the
// per-layer metrics from the traced phases' spans.
func runBatchTraced(r *run, w batchWorkload) error {
	cfg := r.cfg
	tr := newTracer()
	var in layerInput
	var plain, traced totals
	var gc gcSample
	passes := tracedPasses(w.passes(cfg))
	if cfg.passes > 0 {
		passes = cfg.passes
	}
	taskID := 0
	for i := 0; i < passes; i++ {
		jobs := w.jobs(passSeed(cfg.seed, i))
		for _, j := range jobs {
			tr.learnPages(j.in)
		}
		for _, m := range methodOrder(i) {
			eng, err := newEngine(m, cfg.workers, nil)
			if err != nil {
				return err
			}
			runtime.GC()
			g0 := readGC()
			p := runPhase(eng, jobs, 1, nil, 0)
			gc.add(g0)
			plain.add(p.latMs, p.wall, p.alloc)
			r.account(jobs, m, p.results)

			teng, err := newEngine(m, cfg.workers, tr)
			if err != nil {
				return err
			}
			runtime.GC()
			base := taskID
			tp := runPhase(teng, jobs, 1, tr, base)
			traced.add(tp.latMs, tp.wall, tp.alloc)
			r.account(jobs, m, tp.results)
			for k, res := range tp.results {
				rec := taskRec{
					id: base + k, method: m,
					start: int64(tp.sent[k].Sub(tr.epoch)), end: int64(tp.recv[k].Sub(tr.epoch)),
					wall:     res.Stats.Wall,
					restarts: res.Stats.WSATRestarts, flips: res.Stats.WSATFlips, emIters: res.Stats.EMIters,
					extracts: stageCalls(res.Stats.Stats, stage.StageExtract),
				}
				if res.Seg != nil {
					rec.relaxed = res.Seg.Relaxed
				}
				in.tasks = append(in.tasks, rec)
				if !reflect.DeepEqual(p.results[k].Seg, res.Seg) || errText(p.results[k].Err) != errText(res.Err) {
					r.fail("%s (%s): traced and untraced runs disagree", jobs[k].id, suffix(m))
				}
			}
			taskID += len(jobs)
			cs := teng.CacheStats()
			in.tokenHits += cs.TokenHits
			in.tokenMisses += cs.TokenMisses
			in.templateHits += cs.TemplateHits
			in.templateMisses += cs.TemplateMisses
			for _, t := range cs.Tiers {
				in.evictions += t.Evictions
			}
		}
	}
	in.spans = tr.spans
	r.metrics = append(layerMetrics(in), gc.metrics(plain.pages())...)
	r.metrics = append(r.metrics, overhead(plain, traced))
	r.note("traced: %d passes, %d tasks one at a time, %d spans", passes, len(in.tasks), len(in.spans))
	r.note("%s", shares(in))
	return nil
}

// stageCalls returns how often a stage ran in a task.
func stageCalls(st core.Stats, name string) int {
	for _, s := range st.Stages {
		if s.Name == name {
			return s.Calls
		}
	}
	return 0
}

// overhead is the traced run's throughput loss against the paired
// untraced phases.
func overhead(plain, traced totals) metric {
	u, t := plain.pagesPerSec(), traced.pagesPerSec()
	return metric{"trace.overhead_pct", 100 * ratio(u-t, u), "%"}
}

// gcSample accumulates the Go runtime's work over untraced phases.
type gcSample struct {
	cycles  uint32
	pauseNs uint64
	cpuNs   int64
}

type gcReading struct {
	numGC   uint32
	pauseNs uint64
	cpuNs   int64
}

func readGC() gcReading {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return gcReading{ms.NumGC, ms.PauseTotalNs, processCPU()}
}

func (g *gcSample) add(from gcReading) {
	to := readGC()
	g.cycles += to.numGC - from.numGC
	g.pauseNs += to.pauseNs - from.pauseNs
	g.cpuNs += to.cpuNs - from.cpuNs
}

func (g gcSample) metrics(pages int) []metric {
	return []metric{
		{"gc.cycles_per_page", perPage(float64(g.cycles), pages), "count"},
		{"gc.pause_ms_per_page", perPage(float64(g.pauseNs)/1e6, pages), "ms"},
		{"cpu.ms_per_page", perPage(float64(g.cpuNs)/1e6, pages), "ms"},
	}
}
