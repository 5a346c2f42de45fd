package main

import (
	"crypto/sha256"
	"fmt"
	"net/http"
	"sort"
	"sync"
	"time"

	apiv1 "tableseg/api/v1"
	"tableseg/internal/artifact"
	"tableseg/internal/core"
	"tableseg/internal/stage"
)

// Span kinds recorded by the tracer. Stage spans are named after the
// stage ("Tokenize", ...); the rest are the harness's own boundaries.
const (
	spanGet      = "artifact.get"
	spanPut      = "artifact.put"
	spanTokens   = "token"        // a token-cache miss: Tokenize and encode
	spanTemplate = "pagetemplate" // a template-cache miss: site preparation and encode
	spanHandler  = "handler"
)

// span is one timed call into a layer. Times are nanoseconds since the
// tracer's epoch; task identifies the harness task or request in
// flight when the span ended.
type span struct {
	kind       string
	task       int
	start, end int64
	hit        bool // artifact.get: served from the store
	bytes      int  // artifact.put: payload; token: HTML tokenized
}

func (s span) dur() int64 { return s.end - s.start }

// tracer records spans in memory from three seams: a stage.Observer, a
// wrapper around the engine's artifact store, and a wrapper around the
// daemon's HTTP handler. The stage observer carries no task identity,
// so a traced run keeps one task in flight and the tracer attributes
// every span to the current task.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	cur     int
	spans   []span
	open    map[string]int64       // stage name -> start
	pending map[artifact.Key]int64 // cache miss -> time of the miss
	htmlLen map[[sha256.Size]byte]int
}

func newTracer() *tracer {
	return &tracer{
		epoch:   time.Now(),
		open:    map[string]int64{},
		pending: map[artifact.Key]int64{},
		htmlLen: map[[sha256.Size]byte]int{},
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin marks the task the next spans belong to.
func (t *tracer) begin(task int) {
	t.mu.Lock()
	t.cur = task
	t.mu.Unlock()
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	s.task = t.cur
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// learnPages remembers the HTML size behind each page's content hash,
// so token spans can report bytes tokenized.
func (t *tracer) learnPages(in core.Input) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, ps := range [][]core.Page{in.ListPages, in.DetailPages} {
		for _, p := range ps {
			t.htmlLen[sha256.Sum256([]byte(p.HTML))] = len(p.HTML)
		}
	}
}

// OnStageStart implements stage.Observer.
func (t *tracer) OnStageStart(name string) {
	now := t.now()
	t.mu.Lock()
	t.open[name] = now
	t.mu.Unlock()
}

// OnStageEnd implements stage.Observer.
func (t *tracer) OnStageEnd(name string, _ time.Duration, _ error) {
	end := t.now()
	t.mu.Lock()
	start := t.open[name]
	t.mu.Unlock()
	t.record(span{kind: name, start: start, end: end})
}

var _ stage.Observer = (*tracer)(nil)

// tracedStore wraps an artifact store. Besides its own Get and Put
// spans it turns each token or template miss into a span ending at the
// matching Put: the engine computes the artifact in between.
type tracedStore struct {
	artifact.Store
	t *tracer
}

func (s tracedStore) Get(k artifact.Key) ([]byte, bool) {
	start := s.t.now()
	data, ok := s.Store.Get(k)
	end := s.t.now()
	s.t.record(span{kind: spanGet, start: start, end: end, hit: ok})
	if !ok && (k.Kind == artifact.KindTokens || k.Kind == artifact.KindTemplate) {
		s.t.mu.Lock()
		s.t.pending[k] = end
		s.t.mu.Unlock()
	}
	return data, ok
}

func (s tracedStore) Put(k artifact.Key, payload []byte) {
	start := s.t.now()
	s.t.mu.Lock()
	missed, ok := s.t.pending[k]
	delete(s.t.pending, k)
	n := s.t.htmlLen[k.Hash]
	s.t.mu.Unlock()
	if ok {
		kind := spanTemplate
		if k.Kind == artifact.KindTokens {
			kind = spanTokens
		}
		s.t.record(span{kind: kind, start: missed, end: start, bytes: n})
	}
	s.Store.Put(k, payload)
	s.t.record(span{kind: spanPut, start: start, end: s.t.now(), bytes: len(payload)})
}

// handler wraps the daemon's HTTP surface with a span per segment
// request.
func (t *tracer) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != apiv1.PathSegment {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.record(span{kind: spanHandler, start: start, end: t.now()})
	})
}

// interval is a half-open stretch of tracer time.
type interval struct{ start, end int64 }

// covered returns how much of parent the union of children covers;
// overlapping children count once.
func covered(parent interval, children []interval) int64 {
	var clipped []interval
	for _, c := range children {
		if c.start < parent.start {
			c.start = parent.start
		}
		if c.end > parent.end {
			c.end = parent.end
		}
		if c.end > c.start {
			clipped = append(clipped, c)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total, reach int64 = 0, parent.start
	for _, c := range clipped {
		if c.end <= reach {
			continue
		}
		if c.start < reach {
			c.start = reach
		}
		total += c.end - c.start
		reach = c.end
	}
	return total
}

// selfTime is a span's duration minus the part its children cover.
func selfTime(parent interval, children []interval) int64 {
	return parent.end - parent.start - covered(parent, children)
}

// taskRec is the harness's record of one traced task or request.
type taskRec struct {
	id         int
	method     core.Method
	start, end int64 // hand-off to result, in tracer time
	wall       time.Duration
	restarts   int
	flips      int
	emIters    int
	relaxed    bool
	extracts   int // Extract stage calls (more than one: coverage retry)
	reqBytes   int
}

// layerInput is everything the per-layer arithmetic needs from a
// traced run.
type layerInput struct {
	spans []span
	tasks []taskRec
	// Engine cache counters over the traced phases.
	tokenHits, tokenMisses, templateHits, templateMisses int64
	evictions                                            int64
	// Daemon counters over the traced phases (zero for batch runs).
	coalesceHits, coalesceMisses, rejected int64
}

// layerSums are a traced run's span and counter totals.
type layerSums struct {
	pages                                      int
	pagesBy                                    map[core.Method]int
	stageNs, segNs, wallNs, frontNs            map[string]int64
	tokNs, tokBytes, tplSelfNs, tplCount       int64
	getNs, gets, hits, putNs, putBytes         int64
	engSelfNs, queueNs, handlerNs, srvSelfNs   int64
	restarts, flips, emIters, relaxed, retries int
	reqBytes                                   int64
}

// sumLayers attributes every span to its task and its layer. A task's
// engine self time is its engine wall time minus what the stage, store
// and cache-miss spans cover; a template miss's self time excludes the
// list-page tokenizing and store calls inside it.
func sumLayers(in layerInput) layerSums {
	byTask := map[int][]span{}
	for _, s := range in.spans {
		byTask[s.task] = append(byTask[s.task], s)
	}
	l := layerSums{
		pages:   len(in.tasks),
		pagesBy: map[core.Method]int{},
		stageNs: map[string]int64{}, segNs: map[string]int64{}, wallNs: map[string]int64{}, frontNs: map[string]int64{},
	}
	for _, tk := range in.tasks {
		m := suffix(tk.method)
		l.pagesBy[tk.method]++
		l.wallNs[m] += int64(tk.wall)
		l.restarts += tk.restarts
		l.flips += tk.flips
		l.emIters += tk.emIters
		if tk.relaxed {
			l.relaxed++
		}
		if tk.extracts > 1 {
			l.retries += tk.extracts - 1
		}
		l.reqBytes += int64(tk.reqBytes)
		outer := interval{tk.start, tk.end}
		var children, front []interval
		var handler *span
		spans := byTask[tk.id]
		for i, s := range spans {
			iv := interval{s.start, s.end}
			switch s.kind {
			case spanHandler:
				handler = &spans[i]
				continue
			case spanGet:
				l.getNs += s.dur()
				l.gets++
				if s.hit {
					l.hits++
				}
			case spanPut:
				l.putNs += s.dur()
				l.putBytes += int64(s.bytes)
			case spanTokens:
				l.tokNs += s.dur()
				l.tokBytes += int64(s.bytes)
			case spanTemplate:
				var kids []interval
				for _, c := range spans {
					if c.kind == spanTokens || c.kind == spanGet || c.kind == spanPut {
						kids = append(kids, interval{c.start, c.end})
					}
				}
				l.tplSelfNs += selfTime(iv, kids)
				l.tplCount++
				front = append(front, iv)
			default: // a pipeline stage
				l.stageNs[s.kind] += s.dur()
				switch s.kind {
				case stage.StageSegment:
					l.segNs[m] += s.dur()
				case stage.StageTokenize, stage.StageInduceTemplate, stage.StageObserve:
					front = append(front, iv)
				}
			}
			children = append(children, iv)
		}
		if handler != nil {
			outer = interval{handler.start, handler.end}
			l.handlerNs += handler.dur()
			l.srvSelfNs += handler.dur() - int64(tk.wall)
		} else {
			l.queueNs += (tk.end - tk.start) - int64(tk.wall)
		}
		l.engSelfNs += int64(tk.wall) - covered(outer, children)
		l.frontNs[m] += covered(outer, front)
	}
	return l
}

// layerMetrics computes the per-layer metrics of a traced run.
func layerMetrics(in layerInput) []metric {
	l := sumLayers(in)
	pages := l.pages
	msPer := func(ns int64, n int) float64 { return perPage(float64(ns)/1e6, n) }
	prob, csp := core.Probabilistic, core.CSP
	return []metric{
		{"token.ms_per_page", msPer(l.tokNs, pages), "ms"},
		{"token.mb_per_s", ratio(float64(l.tokBytes)/1e6, float64(l.tokNs)/1e9), "MB/s"},
		{"pagetemplate.ms_per_site", ratio(float64(l.tplSelfNs)/1e6, float64(l.tplCount)), "ms"},
		{"extract.observe_ms_per_page", msPer(l.stageNs[stage.StageObserve], pages), "ms"},
		{"extract.split_ms_per_page", msPer(l.stageNs[stage.StageSelectSlot]+l.stageNs[stage.StageExtract], pages), "ms"},
		{"extract.retry_ratio", perPage(float64(l.retries), pages), "ratio"},
		{"csp.ms_per_page", msPer(l.segNs["csp"], l.pagesBy[csp]), "ms"},
		{"csp.flips_per_page", perPage(float64(l.flips), l.pagesBy[csp]), "count"},
		{"csp.restarts_per_page", perPage(float64(l.restarts), l.pagesBy[csp]), "count"},
		{"csp.ms_per_restart", ratio(float64(l.segNs["csp"])/1e6, float64(l.restarts)), "ms"},
		{"csp.relaxed_ratio", perPage(float64(l.relaxed), l.pagesBy[csp]), "ratio"},
		{"phmm.ms_per_page", msPer(l.segNs["prob"], l.pagesBy[prob]), "ms"},
		{"phmm.em_iters_per_page", perPage(float64(l.emIters), l.pagesBy[prob]), "count"},
		{"phmm.ms_per_em_iter", ratio(float64(l.segNs["prob"])/1e6, float64(l.emIters)), "ms"},
		{"post.ms_per_page", msPer(l.stageNs[stage.StagePostProcess], pages), "ms"},
		{"artifact.get_ms_per_page", msPer(l.getNs, pages), "ms"},
		{"artifact.hit_ratio", ratio(float64(l.hits), float64(l.gets)), "ratio"},
		{"artifact.put_ms_per_page", msPer(l.putNs, pages), "ms"},
		{"artifact.put_kb_per_page", perPage(float64(l.putBytes)/1024, pages), "KB"},
		{"artifact.evictions", float64(in.evictions), "count"},
		{"engine.self_ms_per_page", msPer(l.engSelfNs, pages), "ms"},
		{"engine.queue_ms", msPer(l.queueNs, pages), "ms"},
		{"engine.token_hit_ratio", ratio(float64(in.tokenHits), float64(in.tokenHits+in.tokenMisses)), "ratio"},
		{"engine.template_hit_ratio", ratio(float64(in.templateHits), float64(in.templateHits+in.templateMisses)), "ratio"},
		{"server.handler_ms", msPer(l.handlerNs, pages), "ms"},
		{"server.self_ms", msPer(l.srvSelfNs, pages), "ms"},
		{"server.request_kb", perPage(float64(l.reqBytes)/1024, pages), "KB"},
		{"server.coalesce_ratio", ratio(float64(in.coalesceHits), float64(in.coalesceHits+in.coalesceMisses)), "ratio"},
		{"server.rejected", float64(in.rejected), "count"},
	}
}

// shares is the line that confirms each workload's reason to exist:
// Segment's share of engine task time, and the front end's (tokenizing,
// template induction and Observe) share of a CSP task.
func shares(in layerInput) string {
	l := sumLayers(in)
	return fmt.Sprintf("shares: Segment %.1f%% of task time; front end %.1f%% of csp task time, %.1f%% of prob task time",
		100*ratio(float64(l.segNs["prob"]+l.segNs["csp"]), float64(l.wallNs["prob"]+l.wallNs["csp"])),
		100*ratio(float64(l.frontNs["csp"]), float64(l.wallNs["csp"])),
		100*ratio(float64(l.frontNs["prob"]), float64(l.wallNs["prob"])))
}
