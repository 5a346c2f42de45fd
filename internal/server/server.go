// Package server implements tablesegd's HTTP daemon over the
// concurrent segmentation engine: the versioned api/v1 wire surface,
// request coalescing keyed on the engine's input content hash,
// admission control (a bounded in-flight pool plus a bounded wait
// queue, rejections as 429 + Retry-After), per-client token-bucket
// rate limiting, per-request deadline propagation into the pipeline,
// /healthz and /varz operational endpoints, and graceful drain.
//
// The package is a deliberate showcase for the repository's own
// concurrency analyzers: every goroutine has a provable exit, no lock
// is held across a may-block call, every channel has a single closing
// owner, and no context is minted outside the daemon binary — `make
// lint` runs the full analyzer suite over it.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "tableseg/api/v1"
	"tableseg/internal/clock"
	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/stage"
)

// Config configures New. The zero value of every field selects a
// sensible default; only Engine.Options is commonly set.
type Config struct {
	// Engine configures the shared segmentation engine (worker pool,
	// caches, default options). An Observer set here is preserved and
	// chained after the server's own metrics observer.
	Engine engine.Config
	// MaxInFlight bounds requests holding an engine slot concurrently.
	// Zero selects the engine's worker count.
	MaxInFlight int
	// MaxQueue bounds requests waiting for a slot; arrivals beyond it
	// are rejected with 429 + Retry-After. Zero selects 4*MaxInFlight.
	MaxQueue int
	// RetryAfter is the backoff hint attached to 429 rejections.
	// Zero selects one second.
	RetryAfter time.Duration
	// RatePerSec and Burst configure per-client token buckets (clients
	// are keyed by X-Client-Id, falling back to the remote address).
	// RatePerSec zero disables rate limiting; Burst zero selects
	// max(1, ceil(RatePerSec)).
	RatePerSec float64
	Burst      int
	// DefaultTimeout is the per-request segmentation deadline applied
	// when the request carries none (zero = unbounded); MaxTimeout
	// clamps request-supplied deadlines (zero = no clamp).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxBodyBytes bounds the request body. Zero selects 64 MiB.
	MaxBodyBytes int64
}

// Server is the daemon: an http.Handler plus a drain lifecycle. Create
// one with New, mount Handler(), and call Drain on shutdown.
type Server struct {
	cfg   Config
	eng   *engine.Engine
	start time.Time

	// Admission: sem holds one token per in-flight segmentation,
	// queued counts admitted requests waiting for a token.
	sem    chan struct{}
	queued atomic.Int64

	// Drain lifecycle: draining flips exactly once under drainMu,
	// drainCh is closed at that moment, and handlers joins every
	// registered request.
	drainMu  sync.Mutex
	draining bool
	drainCh  chan struct{}
	handlers sync.WaitGroup

	flights *flightGroup
	limiter *limiter
	metrics *metrics
}

// New builds a Server and its engine after validating the
// configuration.
func New(cfg Config) (*Server, error) {
	m := newMetrics()
	// Chain the server's histogram observer before any caller-supplied
	// one, preserving the Config.Observer seam for embedders.
	if cfg.Engine.Observer != nil {
		cfg.Engine.Observer = stage.MultiObserver{m.stages, cfg.Engine.Observer}
	} else {
		cfg.Engine.Observer = m.stages
	}
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.MaxInFlight <= 0 {
		cfg.MaxInFlight = eng.Concurrency()
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * cfg.MaxInFlight
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 64 << 20
	}
	return &Server{
		cfg:     cfg,
		eng:     eng,
		start:   clock.Now(),
		sem:     make(chan struct{}, cfg.MaxInFlight),
		drainCh: make(chan struct{}),
		flights: newFlightGroup(),
		limiter: newLimiter(cfg.RatePerSec, cfg.Burst),
		metrics: m,
	}, nil
}

// Engine exposes the server's engine (for embedders that mix direct
// batch work with served traffic).
func (s *Server) Engine() *engine.Engine { return s.eng }

// Handler returns the daemon's HTTP surface: POST apiv1.PathSegment,
// GET apiv1.PathHealthz and GET apiv1.PathVarz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(apiv1.PathSegment, s.handleSegment)
	mux.HandleFunc(apiv1.PathHealthz, s.handleHealthz)
	mux.HandleFunc(apiv1.PathVarz, s.handleVarz)
	return mux
}

// Drain begins graceful shutdown: new requests are rejected with 503,
// queued-but-unadmitted requests are released with 503, in-flight
// segmentations run to completion, and the engine is closed once the
// last handler returns. The context bounds the wait; on expiry the
// server keeps draining but Drain returns the context error. Drain is
// idempotent.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handlers.Wait()
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
	// The handler wait above honors ctx; engine shutdown does not.
	// By this point every handler has returned, so the engine's
	// in-flight count is already zero and Close cannot park.
	//tableseglint:ignore ctxflow all handlers have drained, so the engine close returns without waiting
	return s.eng.Close()
}

// Draining reports whether graceful shutdown has begun.
func (s *Server) Draining() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	return s.draining
}

// beginDrain flips the draining flag exactly once and closes drainCh
// at that moment (the broadcast that releases queued waiters).
func (s *Server) beginDrain() {
	s.drainMu.Lock()
	already := s.draining
	s.draining = true
	s.drainMu.Unlock()
	if !already {
		close(s.drainCh)
	}
}

// register adds the calling handler to the drain join set, or reports
// false when the server is already draining. The add happens under the
// same lock that guards the draining flag, so Drain can never miss a
// registered handler.
func (s *Server) register() bool {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining {
		return false
	}
	s.handlers.Add(1)
	return true
}

// handleSegment serves POST /v1/segment.
func (s *Server) handleSegment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	if !s.register() {
		s.metrics.requests.drainRejected.Add(1)
		s.writeError(w, &apiv1.Error{Code: apiv1.CodeDraining, Message: "server is draining"}, nil)
		return
	}
	defer s.handlers.Done()
	s.metrics.requests.total.Add(1)

	if !s.limiter.allow(clientKey(r), clock.Now()) {
		s.metrics.requests.rateLimited.Add(1)
		s.writeError(w, &apiv1.Error{
			Code:              apiv1.CodeRateLimited,
			Message:           "client request rate exceeded",
			RetryAfterSeconds: s.retryAfterSeconds(),
		}, nil)
		return
	}

	var req apiv1.SegmentRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		s.writeError(w, &apiv1.Error{Code: apiv1.CodeBadRequest, Message: "decoding request: " + err.Error()}, nil)
		return
	}
	opts, err := req.Options()
	if err != nil {
		s.writeError(w, apiv1.FromError(err), nil)
		return
	}
	in := req.Input()

	ctx := r.Context()
	if d := s.effectiveTimeout(req.TimeoutMillis); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	key := engine.InputKey(in) + "|" + req.OptionsKey()
	f, leader := s.flights.join(key)
	if leader {
		s.flights.complete(key, f, s.compute(ctx, in, opts, req.WantStats))
		s.metrics.coalesceMisses.Add(1)
	} else {
		s.metrics.coalesceHits.Add(1)
	}

	select {
	case <-f.done:
	case <-ctx.Done():
		// This waiter's own deadline died while sharing another
		// request's computation; the flight itself keeps running for
		// the remaining waiters.
		s.writeError(w, apiv1.FromError(ctx.Err()), nil)
		return
	}
	out := f.out
	if out.werr != nil {
		s.writeError(w, out.werr, out.partial)
		return
	}
	resp := *out.resp // shallow per-waiter copy: Coalesced differs per waiter
	resp.Coalesced = !leader
	s.metrics.requests.ok.Add(1)
	s.writeJSON(w, http.StatusOK, &resp)
}

// outcome is one flight's terminal state: a response or a wire error
// (with optional partial diagnostics).
type outcome struct {
	resp    *apiv1.SegmentResponse
	werr    *apiv1.Error
	partial *apiv1.SegmentResponse
}

// compute runs one admitted segmentation end to end: admission
// (bounded queue, drain release), engine submission with the caller's
// deadline, and wire conversion of the result.
func (s *Server) compute(ctx context.Context, in core.Input, opts core.Options, wantStats bool) outcome {
	if s.queued.Load() >= int64(s.cfg.MaxQueue) {
		s.metrics.requests.queueFull.Add(1)
		return outcome{werr: &apiv1.Error{
			Code:              apiv1.CodeQueueFull,
			Message:           fmt.Sprintf("admission queue full (%d waiting)", s.cfg.MaxQueue),
			RetryAfterSeconds: s.retryAfterSeconds(),
		}}
	}
	s.queued.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		return outcome{werr: apiv1.FromError(ctx.Err())}
	case <-s.drainCh:
		s.queued.Add(-1)
		s.metrics.requests.drainRejected.Add(1)
		return outcome{werr: &apiv1.Error{Code: apiv1.CodeDraining, Message: "server is draining"}}
	}
	out := s.runTask(ctx, in, opts, wantStats)
	<-s.sem
	return out
}

// runTask submits one task to the engine and converts its result.
func (s *Server) runTask(ctx context.Context, in core.Input, opts core.Options, wantStats bool) outcome {
	ch, err := s.eng.Submit(ctx, engine.Task{Input: in, Options: &opts})
	if err != nil {
		// Submit only fails once the engine is closed, which drain
		// orders after the last handler; report it as draining anyway
		// rather than crash on a race with an embedder's Close.
		if errors.Is(err, engine.ErrClosed) {
			return outcome{werr: &apiv1.Error{Code: apiv1.CodeDraining, Message: "engine closed"}}
		}
		return outcome{werr: apiv1.FromError(err)}
	}
	res := <-ch
	s.metrics.tasksCompleted.Add(1)
	var stats *apiv1.TaskStats
	if wantStats {
		stats = apiv1.TaskStatsFromEngine(res.Stats)
	}
	if res.Err != nil {
		o := outcome{werr: apiv1.FromError(res.Err)}
		if res.Seg != nil {
			// Typed diagnostic failures attach a partial segmentation;
			// surface its counters to the client.
			o.partial = apiv1.ResponseFromSegmentation(res.Seg, stats)
		}
		return o
	}
	return outcome{resp: apiv1.ResponseFromSegmentation(res.Seg, stats)}
}

// effectiveTimeout resolves a request's wire deadline against the
// server's default and clamp.
func (s *Server) effectiveTimeout(millis int64) time.Duration {
	d := time.Duration(millis) * time.Millisecond
	if d <= 0 {
		d = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (d <= 0 || d > s.cfg.MaxTimeout) {
		d = s.cfg.MaxTimeout
	}
	return d
}

func (s *Server) retryAfterSeconds() int {
	secs := int(s.cfg.RetryAfter / time.Second)
	if secs < 1 {
		secs = 1
	}
	return secs
}

// handleHealthz serves liveness: 200 "ok" while serving, 503 while
// draining (so load balancers stop routing before connections die).
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.Draining() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleVarz serves the metrics snapshot.
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Varz())
}

// Varz snapshots the daemon's operational counters.
func (s *Server) Varz() *apiv1.Metrics {
	m := s.metrics.snapshot()
	m.UptimeSeconds = clock.Since(s.start).Seconds()
	m.Draining = s.Draining()
	m.InFlight = int64(len(s.sem))
	m.QueueDepth = s.queued.Load()
	m.Coalesce.InFlightKeys = s.flights.size()
	cs := s.eng.CacheStats()
	m.Engine.TokenHits = cs.TokenHits
	m.Engine.TokenMisses = cs.TokenMisses
	m.Engine.TemplateHits = cs.TemplateHits
	m.Engine.TemplateMisses = cs.TemplateMisses
	m.Engine.CachedSites = int64(s.eng.CachedSites())
	m.Engine.ResultHits = cs.ResultHits
	m.Engine.ResultMisses = cs.ResultMisses
	for _, t := range cs.Tiers {
		m.Engine.Tiers = append(m.Engine.Tiers, apiv1.CacheTier{
			Tier:      t.Tier,
			Hits:      t.Hits,
			Misses:    t.Misses,
			Puts:      t.Puts,
			Evictions: t.Evictions,
			Errors:    t.Errors,
			Entries:   t.Entries,
			Bytes:     t.Bytes,
		})
	}
	return m
}

// writeError serves an api/v1 error envelope with its mapped status
// and Retry-After header when the error carries a hint.
func (s *Server) writeError(w http.ResponseWriter, werr *apiv1.Error, partial *apiv1.SegmentResponse) {
	if werr.RetryAfterSeconds > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(werr.RetryAfterSeconds))
	}
	s.metrics.countCode(werr.Code)
	s.writeJSON(w, werr.Code.HTTPStatus(), &apiv1.ErrorResponse{Error: werr, Partial: partial})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// An encode failure here means the client went away mid-body; the
	// status line is already written, so there is nothing left to do.
	_ = json.NewEncoder(w).Encode(body)
}

// clientKey identifies a client for rate limiting: an explicit
// X-Client-Id header, else the remote address without its port.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-Id"); id != "" {
		return id
	}
	host := r.RemoteAddr
	for i := len(host) - 1; i >= 0; i-- {
		if host[i] == ':' {
			return host[:i]
		}
	}
	return host
}
