// Package server implements tablesegd's HTTP daemon over the
// concurrent segmentation engine: the versioned api/v1 wire surface,
// admission control (one semaphore as wide as the engine's worker count
// plus a bounded wait queue, rejections as 429 + Retry-After),
// per-client token-bucket rate limiting, per-request deadline
// propagation into the pipeline, /healthz and /varz operational
// endpoints, and graceful drain. Each admitted request runs one
// Engine.Run; identical concurrent requests share only the engine's
// artifact computations (tokenization, template induction), and /varz
// stage histograms are folded from each task's own stats.
//
// The package is a deliberate showcase for the repository's own
// concurrency analyzers: every goroutine has a provable exit, no lock
// is held across a may-block call, every channel has a single closing
// owner, and no context is minted outside the daemon binary — `make
// lint` runs the full analyzer suite over it.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	apiv1 "tableseg/api/v1"
	"tableseg/internal/clock"
	"tableseg/internal/core"
	"tableseg/internal/engine"
)

// retryAfterSeconds is the backoff hint attached to 429 rejections.
const retryAfterSeconds = 1

// maxBodyBytes bounds a request body.
const maxBodyBytes = 64 << 20

// maxBodyPrealloc bounds the part of a declared Content-Length that
// sizes a body's buffer up front; past it the buffer grows only as
// bytes arrive. It holds the ~650 KB bodies of perfbench's daemon-warm,
// whose pages carry ~20 KB of chrome each.
const maxBodyPrealloc = 1 << 20

// Config configures New. The zero value of every field selects a
// sensible default; only Engine.Options is commonly set.
type Config struct {
	// Engine configures the shared segmentation engine (caches, default
	// options). Its Concurrency also bounds the segmentations the server
	// admits at once. The server passes it to engine.New unchanged, so
	// an Observer set here sees every stage of every request.
	Engine engine.Config
	// MaxQueue bounds requests waiting for admission; arrivals beyond
	// it are rejected with 429 + Retry-After. Zero selects four times
	// the engine's Concurrency.
	MaxQueue int
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
}

// Server is the daemon: an http.Handler plus a drain lifecycle. Create
// one with New, mount Handler(), and call Drain on shutdown.
type Server struct {
	cfg   Config
	eng   *engine.Engine
	start time.Time

	// Admission, the only gate in front of the engine: sem holds one
	// token per running segmentation and is as wide as the engine's
	// worker count; queued counts admitted requests waiting for a token.
	sem    chan struct{}
	queued atomic.Int64

	// Drain lifecycle: draining flips exactly once under drainMu,
	// drainCh is closed at that moment, and handlers joins every
	// registered request.
	drainMu  sync.Mutex
	draining bool
	drainCh  chan struct{}
	handlers sync.WaitGroup

	limiter *limiter
	metrics *metrics
}

// New builds a Server and its engine after validating the
// configuration.
func New(cfg Config) (*Server, error) {
	eng, err := engine.New(cfg.Engine)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 4 * eng.Concurrency()
	}
	return &Server{
		cfg:     cfg,
		eng:     eng,
		start:   clock.Now(),
		sem:     make(chan struct{}, eng.Concurrency()),
		drainCh: make(chan struct{}),
		limiter: newLimiter(cfg.RatePerSec, cfg.Burst),
		metrics: newMetrics(),
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
// segmentations run to completion, and Drain returns once the last
// handler has returned. The context bounds the wait; on expiry the
// server keeps draining but Drain returns the context error. Drain is
// idempotent, and the engine stays usable afterwards.
func (s *Server) Drain(ctx context.Context) error {
	s.beginDrain()
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.handlers.Wait()
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("server: drain interrupted: %w", ctx.Err())
	}
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
			RetryAfterSeconds: retryAfterSeconds,
		}, nil)
		return
	}

	var req apiv1.SegmentRequest
	if err := decodeRequest(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength, &req); err != nil {
		s.writeError(w, &apiv1.Error{Code: apiv1.CodeBadRequest, Message: "decoding request: " + err.Error()}, nil)
		return
	}
	opts, err := req.Options()
	if err != nil {
		s.writeError(w, apiv1.FromError(err), nil)
		return
	}

	ctx := r.Context()
	if d := s.effectiveTimeout(req.TimeoutMillis); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	res, werr := s.compute(ctx, req.Input(), opts)
	if werr != nil {
		s.writeError(w, werr, nil)
		return
	}
	var stats *apiv1.TaskStats
	if req.WantStats {
		stats = apiv1.TaskStatsFromEngine(res.Stats)
	}
	if res.Err != nil {
		var partial *apiv1.SegmentResponse
		if res.Seg != nil {
			// Typed diagnostic failures attach a partial segmentation;
			// surface its counters to the client.
			partial = apiv1.ResponseFromSegmentation(res.Seg, stats)
		}
		s.writeError(w, apiv1.FromError(res.Err), partial)
		return
	}
	s.metrics.requests.ok.Add(1)
	s.writeJSON(w, http.StatusOK, apiv1.ResponseFromSegmentation(res.Seg, stats))
}

// decodeRequest reads a request body, whose declared length is
// declared (-1 when unknown), into one buffer and decodes it with
// apiv1.DecodeSegmentRequest. A failed read fails the request with the
// read error, whatever arrived before it: a body cut short or over the
// size cap is not the request the client sent.
func decodeRequest(r io.Reader, declared int64, req *apiv1.SegmentRequest) error {
	size := min(max(declared, 0), maxBodyPrealloc)
	// bytes.MinRead to spare, so the read that reports the end needs no
	// growth.
	body := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := body.ReadFrom(r); err != nil {
		return err
	}
	return apiv1.DecodeSegmentRequest(body.Bytes(), req)
}

// compute runs one segmentation: admission (bounded queue, drain
// release), then the engine call under the caller's deadline while
// holding a semaphore token. It returns the engine's result, or the
// wire error of a request that was never admitted.
func (s *Server) compute(ctx context.Context, in core.Input, opts core.Options) (engine.Result, *apiv1.Error) {
	if s.queued.Add(1) > int64(s.cfg.MaxQueue) {
		s.queued.Add(-1)
		s.metrics.requests.queueFull.Add(1)
		return engine.Result{}, &apiv1.Error{
			Code:              apiv1.CodeQueueFull,
			Message:           fmt.Sprintf("admission queue full (%d waiting)", s.cfg.MaxQueue),
			RetryAfterSeconds: retryAfterSeconds,
		}
	}
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		return engine.Result{}, apiv1.FromError(ctx.Err())
	case <-s.drainCh:
		s.queued.Add(-1)
		s.metrics.requests.drainRejected.Add(1)
		return engine.Result{}, &apiv1.Error{Code: apiv1.CodeDraining, Message: "server is draining"}
	}
	res := s.eng.Run(ctx, engine.Task{Input: in, Options: &opts})
	<-s.sem
	s.metrics.tasksCompleted.Add(1)
	s.metrics.stages.add(res.Stats.Stages)
	return res, nil
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
