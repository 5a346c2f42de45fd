// Package engine implements a reusable, concurrent batch-segmentation
// engine over the core pipeline: tasks stream through a bounded worker
// pool, per-site artifacts (tokenized pages, induced page templates,
// and completed task results) live in a content-addressed artifact
// store, and every task returns structured per-stage instrumentation
// alongside its segmentation or typed error.
//
// The engine exists for the paper's natural unit of work — a corpus of
// list pages across many sites (§6 runs 24 pages over 12 sites) — where
// serial one-shot Segment calls leave both cores and shared per-site
// work on the table. Results are deterministic: a task computes exactly
// what a serial core.Segment call would, regardless of worker count or
// scheduling, because the cached artifacts are immutable and every
// solver seed is task-local.
//
// Artifacts are serialized (internal/stage codec) into a tiered store
// (internal/artifact): a bounded in-memory LRU, optionally fronting a
// disk tier that persists across restarts and can be shared between
// processes pointed at one cache directory. Each task reaches the
// store through its stages: Tokenize and InduceTemplate look their
// artifacts up through the task's stage.Cache. Completed task results
// are journaled to the same store, so a batch interrupted mid-run and
// restarted with Resume skips finished tasks and produces byte-identical
// output to an uninterrupted run.
package engine

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tableseg/internal/artifact"
	"tableseg/internal/clock"
	"tableseg/internal/core"
	"tableseg/internal/pagetemplate"
	"tableseg/internal/stage"
	"tableseg/internal/token"
)

// ErrClosed is returned by Submit once Close has been called: the
// engine no longer admits work, though results of tasks admitted
// earlier still arrive on their channels.
var ErrClosed = errors.New("engine: closed")

// Config configures an Engine.
type Config struct {
	// Options is the pipeline configuration applied to every task that
	// does not carry its own override. The zero value selects the CSP
	// method with defaults; most callers want core.DefaultOptions.
	Options core.Options
	// Concurrency bounds the worker pool. Zero selects
	// runtime.GOMAXPROCS(0); negative values are rejected by Validate.
	Concurrency int
	// Observer, when non-nil, receives a callback at every pipeline
	// stage boundary of every task, in addition to the per-task Stats
	// collection — the seam a server uses to feed latency histograms
	// without forking the engine. Tasks run concurrently, so the
	// observer must be safe for concurrent use; callbacks carry only
	// diagnostics and never influence segmentation output.
	Observer stage.Observer
	// Store, when non-nil, replaces the engine-built artifact store,
	// through which every task's tokens, template and result pass. Most
	// callers leave it nil and configure the built-in tiers via
	// CacheDir and the budgets below.
	Store artifact.Store
	// CacheDir, when non-empty, adds a disk tier rooted there behind
	// the in-memory LRU. The directory persists artifacts across
	// restarts — it is what makes a killed batch resumable — and may be
	// shared by several processes.
	CacheDir string
	// CacheMemoryBytes bounds the in-memory tier. Zero selects
	// artifact.DefaultMemoryBudget; negatives are rejected.
	CacheMemoryBytes int64
	// CacheDiskBytes caps the disk tier (with CacheDir). Zero selects
	// artifact.DefaultDiskBudget; negatives are rejected.
	CacheDiskBytes int64
	// Resume makes every task consult the result journal before
	// computing: a task whose (input content, options) pair already has
	// a journaled result returns it without recomputation. Pair it with
	// CacheDir to survive process death.
	Resume bool
}

// Validate rejects nonsensical engine configurations with typed errors
// (core.ErrBadOptions), including the wrapped pipeline options.
func (c Config) Validate() error {
	if c.Concurrency < 0 {
		return fmt.Errorf("%w: negative Concurrency %d", core.ErrBadOptions, c.Concurrency)
	}
	if c.CacheMemoryBytes < 0 {
		return fmt.Errorf("%w: negative CacheMemoryBytes %d", core.ErrBadOptions, c.CacheMemoryBytes)
	}
	if c.CacheDiskBytes < 0 {
		return fmt.Errorf("%w: negative CacheDiskBytes %d", core.ErrBadOptions, c.CacheDiskBytes)
	}
	return c.Options.Validate()
}

// Task is one unit of batch work: a segmentation input plus optional
// per-task metadata.
type Task struct {
	// ID identifies the task in its Result (optional; results also
	// carry the submission index).
	ID string
	// Input is the segmentation task.
	Input core.Input
	// Options, when non-nil, overrides the engine's configured options
	// for this task only. The per-site cache is shared across options —
	// tokenization and template induction are method-independent — while
	// the result journal keys on the (input, options) pair.
	Options *core.Options
}

// TaskStats is the engine's observability record for one task: the
// pipeline's per-stage wall times and solver counters plus the task's
// total wall time and cache outcomes.
type TaskStats struct {
	core.Stats
	// Wall is the task's end-to-end wall time inside the worker.
	Wall time.Duration
	// TemplateCacheHit is true when the task reused the template of
	// its list pages, induced earlier or by a concurrent task, instead
	// of inducing its own.
	TemplateCacheHit bool
	// TokenCacheHits and TokenCacheMisses count the task's lookups in
	// the engine's content-addressed token cache. Detail pages shared
	// across tasks — the same input segmented under several methods,
	// or one site's pages reappearing as targets — hit instead of
	// re-tokenizing.
	TokenCacheHits, TokenCacheMisses int
	// ResultCacheHit is true when the whole task was answered from the
	// result journal (Resume): no pipeline stage ran.
	ResultCacheHit bool
}

// Result is the outcome of one task.
type Result struct {
	// Index is the task's submission order (0-based), so streamed
	// results can be correlated even when they complete out of order.
	Index int
	// ID echoes Task.ID.
	ID string
	// Seg is the segmentation; it may be non-nil even when Err is set
	// (diagnostic failures such as core.ErrNoDetailEvidence attach the
	// partial segmentation).
	Seg *core.Segmentation
	// Err is nil on success, a typed pipeline error, or ctx.Err() when
	// the batch was cancelled before or during the task.
	Err error
	// Stats carries the task's instrumentation.
	Stats TaskStats
}

// Engine is a reusable concurrent batch segmenter. It is safe for
// concurrent use; the artifact store is shared across batches for the
// engine's lifetime (and, with a disk tier, across engine lifetimes).
type Engine struct {
	opts     core.Options
	workers  int
	resume   bool
	observer stage.Observer
	// store holds serialized artifacts.
	store artifact.Store

	// mu guards sitesSeen: the distinct template keys looked up so far.
	mu        sync.Mutex
	sitesSeen map[artifact.Key]struct{}

	// flightMu guards flights: in-process deduplication of concurrent
	// artifact computation (the store itself deduplicates storage, not
	// work).
	flightMu sync.Mutex
	flights  map[artifact.Key]*flight

	// Submission lifecycle: Submit admits work while closed is false,
	// each admitted submission holds slots (capacity = workers) while
	// it runs, and Close flips closed then joins inFlight.
	lifeMu   sync.Mutex
	closed   bool
	inFlight sync.WaitGroup
	slots    chan struct{}

	cacheStats struct {
		tokenHits, tokenMisses       atomic.Int64
		templateHits, templateMisses atomic.Int64
		resultHits, resultMisses     atomic.Int64
	}
}

// flight is one in-progress artifact computation; concurrent callers
// for the same key wait on done and share val.
type flight struct {
	done chan struct{}
	val  any
}

// doOnce computes the artifact for k exactly once across concurrent
// callers: the first caller runs compute, the rest block until it
// finishes and share its value. joined reports whether the value came
// from another goroutine's in-flight computation (a cache hit from the
// caller's perspective). Entries are dropped once done, so repeated
// misses (e.g. after eviction) recompute rather than pinning every
// artifact forever.
func (e *Engine) doOnce(k artifact.Key, compute func() any) (val any, joined bool) {
	e.flightMu.Lock()
	if f, ok := e.flights[k]; ok {
		e.flightMu.Unlock()
		//tableseglint:ignore ctxflow the wait is bounded by one artifact computation (a page tokenize or site induction), deliberately shared across tasks
		<-f.done
		return f.val, true
	}
	f := &flight{done: make(chan struct{})}
	e.flights[k] = f
	e.flightMu.Unlock()
	f.val = compute()
	close(f.done)
	e.flightMu.Lock()
	delete(e.flights, k)
	e.flightMu.Unlock()
	return f.val, false
}

// cacheView is one task's window onto the engine's artifact store: it
// implements stage.Cache and counts the task's hits and misses (the
// store is engine-global and unaware of tasks). It takes every key from
// the digests the task computed when it started, so a lookup never
// hashes a page again. Not safe for concurrent use; each task owns one.
type cacheView struct {
	eng *Engine
	// digests maps the HTML of each of the task's pages to its SHA-256.
	digests map[string][sha256.Size]byte
	// lists are the list pages' digests, in order: the template key.
	lists        [][sha256.Size]byte
	hits, misses int
	templateHit  bool
}

func newCacheView(e *Engine, in core.Input, d pageDigests) *cacheView {
	v := &cacheView{eng: e, digests: make(map[string][sha256.Size]byte, len(d.lists)+len(d.details)), lists: d.lists}
	for i, p := range in.ListPages {
		v.digests[p.HTML] = d.lists[i]
	}
	for i, p := range in.DetailPages {
		v.digests[p.HTML] = d.details[i]
	}
	return v
}

// Tokens implements stage.Cache: serve the page's token stream from
// the store, or tokenize once (deduplicated across concurrent tasks)
// and store the encoded stream.
func (v *cacheView) Tokens(p core.Page) []token.Token {
	sum, ok := v.digests[p.HTML]
	if !ok {
		// The pipeline asks only for the task's own pages; digest any
		// other page here rather than miskey it.
		sum = digestPages([]core.Page{p})[0]
	}
	k := tokenKey(sum)
	if data, ok := v.eng.store.Get(k); ok {
		if toks, err := stage.DecodeTokens(data); err == nil {
			v.hits++
			return toks
		}
	}
	val, joined := v.eng.doOnce(k, func() any {
		toks := token.Tokenize(p.HTML)
		v.eng.store.Put(k, stage.EncodeTokens(toks))
		return toks
	})
	if joined {
		v.hits++
	} else {
		v.misses++
	}
	return val.([]token.Token)
}

// Template implements stage.Cache: serve the template of the task's
// list pages from the store (possibly written by an earlier process),
// or induce it once (deduplicated across concurrent tasks of the site)
// and store it.
func (v *cacheView) Template(induce func() *pagetemplate.Template) *pagetemplate.Template {
	e := v.eng
	k := templateKey(v.lists)
	e.mu.Lock()
	e.sitesSeen[k] = struct{}{}
	e.mu.Unlock()
	if data, ok := e.store.Get(k); ok {
		if tpl, err := stage.DecodeTemplate(data); err == nil {
			e.cacheStats.templateHits.Add(1)
			v.templateHit = true
			return tpl.Tpl
		}
	}
	val, joined := e.doOnce(k, func() any {
		tpl := induce()
		e.store.Put(k, stage.EncodeTemplate(stage.Template{Tpl: tpl}))
		return tpl
	})
	if joined {
		e.cacheStats.templateHits.Add(1)
	} else {
		e.cacheStats.templateMisses.Add(1)
	}
	v.templateHit = joined
	return val.(*pagetemplate.Template)
}

// CacheStats is a snapshot of the engine's artifact-cache counters,
// accumulated across every task since the engine was created.
type CacheStats struct {
	// TokenHits and TokenMisses count content-addressed tokenization
	// lookups (list and detail pages).
	TokenHits, TokenMisses int64
	// TemplateHits and TemplateMisses count template lookups, one per
	// task that reaches the InduceTemplate stage.
	TemplateHits, TemplateMisses int64
	// ResultHits and ResultMisses count result-journal lookups on
	// resumed batches (both zero unless Resume is configured).
	ResultHits, ResultMisses int64
	// Tiers snapshots the store's per-tier counters (hits, misses,
	// puts, evictions, absorbed errors, resident entries/bytes), fast
	// tier first.
	Tiers []artifact.Stats
}

// CacheStats returns the engine's aggregate cache counters.
func (e *Engine) CacheStats() CacheStats {
	return CacheStats{
		TokenHits:      e.cacheStats.tokenHits.Load(),
		TokenMisses:    e.cacheStats.tokenMisses.Load(),
		TemplateHits:   e.cacheStats.templateHits.Load(),
		TemplateMisses: e.cacheStats.templateMisses.Load(),
		ResultHits:     e.cacheStats.resultHits.Load(),
		ResultMisses:   e.cacheStats.resultMisses.Load(),
		Tiers:          e.store.Stats(),
	}
}

// New creates an Engine after validating the configuration. The engine
// builds its store from the config — a bounded in-memory LRU, fronting
// a disk tier when CacheDir is set — unless cfg.Store supplies one.
// Opening the disk tier can fail (e.g. an unwritable directory); that
// error is returned rather than silently degrading to memory-only.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Concurrency
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Engine{
		opts:      cfg.Options,
		workers:   workers,
		resume:    cfg.Resume,
		observer:  cfg.Observer,
		store:     cfg.Store,
		sitesSeen: make(map[artifact.Key]struct{}),
		flights:   make(map[artifact.Key]*flight),
		slots:     make(chan struct{}, workers),
	}
	if e.store == nil {
		mem := artifact.NewMemory(cfg.CacheMemoryBytes)
		if cfg.CacheDir != "" {
			disk, err := artifact.OpenDisk(cfg.CacheDir, cfg.CacheDiskBytes)
			if err != nil {
				return nil, err
			}
			e.store = artifact.NewTiered(mem, disk)
		} else {
			e.store = mem
		}
	}
	return e, nil
}

// Concurrency returns the engine's worker count.
func (e *Engine) Concurrency() int { return e.workers }

// CachedSites returns the number of distinct sites (by list-page
// content hash) whose template the engine has looked up since creation.
func (e *Engine) CachedSites() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sitesSeen)
}

// digestPages returns the SHA-256 of each page's HTML, in order. The
// hash reads each page through a small fixed buffer, so no page is
// ever copied whole into a []byte.
func digestPages(pages []core.Page) [][sha256.Size]byte {
	sums := make([][sha256.Size]byte, len(pages))
	h := sha256.New()
	var buf [1024]byte
	for i, p := range pages {
		h.Reset()
		for html := p.HTML; len(html) > 0; {
			n := copy(buf[:], html)
			h.Write(buf[:n])
			html = html[n:]
		}
		h.Sum(sums[i][:0])
	}
	return sums
}

// pageDigests are the SHA-256 digests of one task's pages. A task takes
// them once, when it starts, and derives every cache key from them.
type pageDigests struct {
	lists, details [][sha256.Size]byte
}

func digestInput(in core.Input) pageDigests {
	return pageDigests{lists: digestPages(in.ListPages), details: digestPages(in.DetailPages)}
}

// writeDigests hashes a count followed by that many digests. The digests
// have a fixed size, so the encoding is unambiguous.
func writeDigests(h hash.Hash, sums [][sha256.Size]byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(sums)))
	h.Write(n[:])
	for i := range sums {
		h.Write(sums[i][:])
	}
}

// inputHash is the content hash of the whole input: the list-page digests
// in order, the target index, then the detail-page digests in order.
func (d pageDigests) inputHash(target int) (sum [sha256.Size]byte) {
	h := sha256.New()
	writeDigests(h, d.lists)
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(target))
	h.Write(n[:])
	writeDigests(h, d.details)
	h.Sum(sum[:0])
	return sum
}

// tokenKey addresses a page's serialized token stream by its digest,
// the SHA-256 of its HTML.
func tokenKey(sum [sha256.Size]byte) artifact.Key {
	return artifact.Key{Kind: artifact.KindTokens, Version: stage.CodecVersion, Hash: sum}
}

// templateKey addresses a site's induced template by the digests of its
// ordered sample list pages (not their names): two tasks share a
// template exactly when their sample list pages are byte-identical in
// order.
func templateKey(lists [][sha256.Size]byte) artifact.Key {
	h := sha256.New()
	writeDigests(h, lists)
	k := artifact.Key{Kind: artifact.KindTemplate, Version: stage.CodecVersion}
	h.Sum(k.Hash[:0])
	return k
}

// InputKey returns the hex content hash of a whole segmentation input
// — sample list pages in order, the target index, and the detail pages
// in order. Two inputs share a key exactly when the engine would
// compute byte-identical segmentations for them under equal options,
// which makes the key the natural unit for request coalescing in a
// server — concurrent identical submissions can share one computation.
// It hashes each page's SHA-256 digest rather than the page itself, as
// the engine's own keys do; the result journal keys on the same hash
// combined with an options fingerprint.
func InputKey(in core.Input) string {
	sum := digestInput(in).inputHash(in.Target)
	return hex.EncodeToString(sum[:])
}

// runTask executes one task end to end on the calling worker.
func (e *Engine) runTask(ctx context.Context, t Task, idx int) Result {
	res := Result{Index: idx, ID: t.ID}
	if err := ctx.Err(); err != nil {
		res.Err = err
		return res
	}
	start := clock.Now()
	opts := e.opts
	if t.Options != nil {
		opts = *t.Options
	}
	// Each page is hashed once, here; every key of the task derives
	// from these digests.
	sums := digestInput(t.Input)
	rkey := resultKey(sums.inputHash(t.Input.Target), opts)
	if e.resume {
		if cached, ok := e.lookupResult(rkey); ok {
			cached.Index, cached.ID = idx, t.ID
			cached.Stats.ResultCacheHit = true
			cached.Stats.Wall = clock.Since(start)
			e.cacheStats.resultHits.Add(1)
			return cached
		}
		e.cacheStats.resultMisses.Add(1)
	}
	view := newCacheView(e, t.Input, sums)
	res.Seg, res.Err = core.SegmentEnv(ctx, t.Input, opts, core.Env{Cache: view, Observer: e.observer, Stats: &res.Stats.Stats})
	res.Stats.TemplateCacheHit = view.templateHit
	res.Stats.TokenCacheHits = view.hits
	res.Stats.TokenCacheMisses = view.misses
	e.cacheStats.tokenHits.Add(int64(view.hits))
	e.cacheStats.tokenMisses.Add(int64(view.misses))
	// Journal the completed task — success or typed diagnostic error,
	// never a cancellation — so a later Resume run skips it.
	if payload, ok := encodeResult(res); ok {
		e.store.Put(rkey, payload)
	}
	res.Stats.Wall = clock.Since(start)
	return res
}

// lookupResult fetches and decodes a journaled result. Undecodable
// payloads (foreign versions, corruption that survived the store's own
// checks) are absorbed as misses.
func (e *Engine) lookupResult(k artifact.Key) (Result, bool) {
	data, ok := e.store.Get(k)
	if !ok {
		return Result{}, false
	}
	return decodeResult(data)
}

// Stream consumes tasks until the channel closes, fanning them out
// over Concurrency workers of its own (Submit's slots are not used),
// and emits one Result per task on the returned channel (closed once
// every task has been reported). Results arrive in completion order —
// the stream is order-independent; use Result.Index or ID to correlate
// — and the output buffer is bounded by the worker count, so a slow
// consumer backpressures the workers instead of accumulating results. On context cancellation in-flight
// solves abort at their next restart/iteration boundary and every
// remaining task is reported with Err = ctx.Err(), so the result
// stream always accounts for every submitted task. The caller must
// drain the returned channel.
func (e *Engine) Stream(ctx context.Context, tasks <-chan Task) <-chan Result {
	type indexed struct {
		t   Task
		idx int
	}
	feed := make(chan indexed, e.workers)
	out := make(chan Result, e.workers)
	go func() {
		defer close(feed)
		idx := 0
		for t := range tasks {
			select {
			case feed <- indexed{t, idx}:
			case <-ctx.Done():
				// The workers may all be parked mid-solve; report the
				// unfed task directly so the stream still accounts for
				// every submitted task. Sending here is safe: these
				// sends happen before close(feed), which happens before
				// the workers exit, which happens before close(out).
				out <- Result{Index: idx, ID: t.ID, Err: ctx.Err()}
			}
			idx++
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < e.workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range feed {
				out <- e.runTask(ctx, it.t, it.idx)
			}
		}()
	}
	go func() {
		wg.Wait()
		close(out)
	}()
	return out
}

// Submit admits one task into the engine's long-lived worker-slot pool
// and returns a 1-buffered channel that receives the task's Result and
// is then closed, so a caller may receive or range. Unlike Stream —
// which owns a whole batch — Submit is the daemon-facing surface: many
// independent callers share the pool, each bounded by the same
// concurrency limit, and per-call contexts cancel waiting or running
// work individually (a task cancelled while waiting for a slot reports
// Err = ctx.Err()). After Close, Submit returns ErrClosed.
func (e *Engine) Submit(ctx context.Context, t Task) (<-chan Result, error) {
	e.lifeMu.Lock()
	if e.closed {
		e.lifeMu.Unlock()
		return nil, ErrClosed
	}
	e.inFlight.Add(1)
	e.lifeMu.Unlock()
	out := make(chan Result, 1)
	go func() {
		defer e.inFlight.Done()
		defer close(out)
		select {
		case e.slots <- struct{}{}:
		case <-ctx.Done():
			out <- Result{ID: t.ID, Err: ctx.Err()}
			return
		}
		out <- e.runTask(ctx, t, 0)
		<-e.slots
	}()
	return out, nil
}

// Close stops admitting Submit work and waits for every admitted
// submission to deliver its result. It is idempotent and does not
// affect Stream batches, whose lifetimes are bounded by their own task
// channels and contexts. The caches stay valid after Close.
func (e *Engine) Close() error {
	e.lifeMu.Lock()
	e.closed = true
	e.lifeMu.Unlock()
	e.inFlight.Wait()
	return nil
}
