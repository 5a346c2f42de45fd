package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	apiv1 "tableseg/api/v1"
	"tableseg/internal/artifact"
	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
	"tableseg/internal/stage"
)

// siteInput builds one corpus Input for a named synthetic site.
func siteInput(t testing.TB, slug string, pageIdx int) core.Input {
	t.Helper()
	p, err := sitegen.ProfileBySlug(slug)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.BuildInput(sitegen.Generate(p, experiments.DefaultSeed), pageIdx)
}

// wireRequest converts a library Input into its wire shape.
func wireRequest(in core.Input, method string) *apiv1.SegmentRequest {
	req := &apiv1.SegmentRequest{Method: method, Target: in.Target}
	for _, p := range in.ListPages {
		req.ListPages = append(req.ListPages, apiv1.Page{Name: p.Name, HTML: p.HTML})
	}
	for _, p := range in.DetailPages {
		req.DetailPages = append(req.DetailPages, apiv1.Page{Name: p.Name, HTML: p.HTML})
	}
	return req
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if reflect.DeepEqual(cfg.Engine.Options, core.Options{}) {
		cfg.Engine.Options = core.DefaultOptions(core.Probabilistic)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// postSegment posts a request and decodes either envelope. Transport
// and decoding failures panic (not t.Fatal) so the helper is safe to
// call from the goroutines several tests spawn.
func postSegment(t *testing.T, url string, req *apiv1.SegmentRequest, clientID string) (*http.Response, *apiv1.SegmentResponse, *apiv1.ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		panic(err)
	}
	httpReq, err := http.NewRequest(http.MethodPost, url+apiv1.PathSegment, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	if clientID != "" {
		httpReq.Header.Set("X-Client-Id", clientID)
	}
	resp, err := http.DefaultClient.Do(httpReq)
	if err != nil {
		panic(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		var out apiv1.SegmentResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			panic(err)
		}
		return resp, &out, nil
	}
	var out apiv1.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		panic(fmt.Sprintf("status %d: decoding error envelope: %v", resp.StatusCode, err))
	}
	return resp, nil, &out
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for i := 0; i < 500; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// gateObserver blocks the first pipeline stage it sees until released,
// making "a computation is in flight right now" a deterministic test
// state instead of a race. Stages of other tasks pass.
type gateObserver struct {
	entered chan struct{}
	release chan struct{}
	taken   atomic.Bool
}

func newGate() *gateObserver {
	return &gateObserver{entered: make(chan struct{}), release: make(chan struct{})}
}

func (g *gateObserver) OnStageStart(name string) {
	if g.taken.CompareAndSwap(false, true) {
		close(g.entered)
		<-g.release
	}
}

func (g *gateObserver) OnStageEnd(string, time.Duration, error) {}

// TestServeMatchesLibrary: the daemon's response mirrors a direct
// library segmentation of the same input — same records, table and
// counters — so remote and local callers cannot drift apart.
func TestServeMatchesLibrary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	in := siteInput(t, "allegheny", 0)
	seg, err := core.SegmentContext(context.Background(), in, core.DefaultOptions(core.Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	req := wireRequest(in, "probabilistic")
	req.WantStats = true
	resp, got, _ := postSegment(t, ts.URL, req, "")
	if got == nil {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	want := apiv1.ResponseFromSegmentation(seg, nil)
	if !reflect.DeepEqual(got.Records, want.Records) {
		t.Error("served records differ from library segmentation")
	}
	if !reflect.DeepEqual(got.Table, want.Table) {
		t.Error("served table differs from library segmentation")
	}
	if got.AnalyzedExtracts != want.AnalyzedExtracts || got.TotalExtracts != want.TotalExtracts {
		t.Error("extract counters differ")
	}
	if got.Coalesced {
		t.Error("uncontended request reported coalesced")
	}
	if got.Stats == nil || len(got.Stats.Stages) == 0 {
		t.Error("wantStats did not produce per-stage timings")
	}
}

// TestCoalescedStatsFollowEachRequest: of two identical requests in
// flight together, each response carries stats exactly when its own
// request asked for them, whichever of the two leads (enters the
// pipeline first and is held there while the other finishes).
func TestCoalescedStatsFollowEachRequest(t *testing.T) {
	for _, leaderWants := range []bool{true, false} {
		t.Run(fmt.Sprintf("leaderWantsStats=%v", leaderWants), func(t *testing.T) {
			gate := newGate()
			s, ts := newTestServer(t, Config{Engine: engineConfig(gate, 2)})
			release := sync.OnceFunc(func() { close(gate.release) })
			defer release()
			in := siteInput(t, "allegheny", 0)
			leaderReq, otherReq := wireRequest(in, ""), wireRequest(in, "")
			leaderReq.WantStats, otherReq.WantStats = leaderWants, !leaderWants

			replies := make([]chan *apiv1.SegmentResponse, 2)
			for i, req := range []*apiv1.SegmentRequest{leaderReq, otherReq} {
				replies[i] = make(chan *apiv1.SegmentResponse, 1)
				go func() {
					_, ok, _ := postSegment(t, ts.URL, req, "")
					replies[i] <- ok
				}()
				if i == 0 {
					<-gate.entered // the leader is inside the pipeline
				}
			}
			waitUntil(t, "the second request to finish in the engine", func() bool {
				return s.metrics.tasksCompleted.Load() == 1
			})
			release()

			for i, wants := range []bool{leaderWants, !leaderWants} {
				got := <-replies[i]
				if got == nil {
					t.Fatalf("request %d failed", i)
				}
				if got.Coalesced {
					t.Errorf("request %d reported coalesced", i)
				}
				if (got.Stats != nil) != wants {
					t.Errorf("request %d asked for stats: %v, response carries them: %v", i, wants, got.Stats != nil)
				}
				if wants && (got.Stats == nil || len(got.Stats.Stages) == 0) {
					t.Errorf("request %d: stats without per-stage timings", i)
				}
			}
		})
	}
}

// TestIdenticalRequestsEachRunTheEngine: while one request is held
// inside the pipeline, an identical one runs through the engine too
// and finishes first; each response is its own segmentation.
func TestIdenticalRequestsEachRunTheEngine(t *testing.T) {
	gate := newGate()
	s, ts := newTestServer(t, Config{Engine: engineConfig(gate, 2)})
	release := sync.OnceFunc(func() { close(gate.release) })
	defer release()
	req := wireRequest(siteInput(t, "allegheny", 0), "")

	replies := make(chan *apiv1.SegmentResponse, 2)
	post := func() {
		_, ok, _ := postSegment(t, ts.URL, req, "")
		replies <- ok
	}
	go post()
	<-gate.entered // the first request is inside the pipeline
	go post()
	waitUntil(t, "the second request to finish in the engine", func() bool {
		return s.metrics.tasksCompleted.Load() == 1
	})
	release()

	for i := 0; i < 2; i++ {
		got := <-replies
		if got == nil {
			t.Fatal("request failed")
		}
		if got.Coalesced {
			t.Error("response reported coalesced")
		}
	}
	m := s.Varz()
	if m.Engine.TasksCompleted != 2 {
		t.Errorf("tasksCompleted = %d, want 2", m.Engine.TasksCompleted)
	}
	if m.Coalesce != (apiv1.CoalesceCounters{}) {
		t.Errorf("varz coalesce = %+v, want zeros", m.Coalesce)
	}
}

// heldStore is an artifact store that holds its first Put until
// released, so the computation that makes it (one page's
// tokenization) stays in flight, and counts the lookups of that key
// by other tasks.
type heldStore struct {
	artifact.Store
	taken            atomic.Bool
	entered, release chan struct{}
	key              artifact.Key
	lookups          atomic.Int64
}

func newHeldStore() *heldStore {
	return &heldStore{Store: artifact.NewMemory(0), entered: make(chan struct{}), release: make(chan struct{})}
}

func (h *heldStore) Put(k artifact.Key, payload []byte) {
	if h.taken.CompareAndSwap(false, true) {
		h.key = k
		close(h.entered)
		<-h.release
	}
	h.Store.Put(k, payload)
}

func (h *heldStore) Get(k artifact.Key) ([]byte, bool) {
	select {
	case <-h.entered:
		if k == h.key {
			h.lookups.Add(1)
		}
	default:
	}
	return h.Store.Get(k)
}

// TestIdenticalRequestOutlivesAnothersDeadline: identical requests
// share the engine's artifact computations but not their deadlines.
// The second request waits on a page tokenization the first started;
// when the first's deadline passes, the first gets 504 and the second,
// whose own context is alive, gets 200.
func TestIdenticalRequestOutlivesAnothersDeadline(t *testing.T) {
	store := newHeldStore()
	s, ts := newTestServer(t, Config{Engine: engine.Config{
		Options:     core.DefaultOptions(core.Probabilistic),
		Concurrency: 2,
		Store:       store,
	}})
	release := sync.OnceFunc(func() { close(store.release) })
	defer release()
	in := siteInput(t, "allegheny", 0)
	first, second := wireRequest(in, ""), wireRequest(in, "")
	first.TimeoutMillis = 50

	firstStatus := make(chan int, 1)
	go func() {
		resp, _, _ := postSegment(t, ts.URL, first, "")
		firstStatus <- resp.StatusCode
	}()
	<-store.entered // the first request is tokenizing its first page
	type reply struct {
		status int
		ok     *apiv1.SegmentResponse
		err    *apiv1.ErrorResponse
	}
	secondReply := make(chan reply, 1)
	go func() {
		resp, ok, werr := postSegment(t, ts.URL, second, "")
		secondReply <- reply{resp.StatusCode, ok, werr}
	}()
	waitUntil(t, "the second request to look up the page in flight", func() bool {
		return store.lookups.Load() > 0
	})
	time.Sleep(100 * time.Millisecond) // past the first request's 50 ms deadline
	release()

	if st := <-firstStatus; st != http.StatusGatewayTimeout {
		t.Errorf("first request: status %d, want 504", st)
	}
	r := <-secondReply
	if r.ok == nil {
		t.Fatalf("second request: status %d %+v, want 200", r.status, r.err)
	}
	if n := s.metrics.tasksCompleted.Load(); n != 2 {
		t.Errorf("engine ran %d tasks, want 2", n)
	}
}

// engineConfig configures a test server's engine; workers also sizes
// the server's admission gate (0 selects GOMAXPROCS).
func engineConfig(obs stage.Observer, workers int) engine.Config {
	return engine.Config{
		Options:     core.DefaultOptions(core.Probabilistic),
		Concurrency: workers,
		Observer:    obs,
	}
}

// TestRateLimit: a client that exhausts its bucket gets 429 with a
// Retry-After hint; an independent client is unaffected.
func TestRateLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{RatePerSec: 0.001, Burst: 1})
	req := wireRequest(siteInput(t, "allegheny", 0), "")
	if resp, ok, _ := postSegment(t, ts.URL, req, "alice"); ok == nil {
		t.Fatalf("first request: status %d, want 200", resp.StatusCode)
	}
	resp, _, werr := postSegment(t, ts.URL, req, "alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("second request: status %d, want 429", resp.StatusCode)
	}
	if werr.Error.Code != apiv1.CodeRateLimited {
		t.Errorf("code = %q, want rate_limited", werr.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if resp, ok, _ := postSegment(t, ts.URL, req, "bob"); ok == nil {
		t.Errorf("independent client: status %d, want 200", resp.StatusCode)
	}
}

// TestAdmissionQueueFull: with one slot held and the wait queue at
// capacity, the next request is rejected 429 queue_full.
func TestAdmissionQueueFull(t *testing.T) {
	gate := newGate()
	s, ts := newTestServer(t, Config{Engine: engineConfig(gate, 1), MaxQueue: 1})
	reqA := wireRequest(siteInput(t, "allegheny", 0), "")
	reqB := wireRequest(siteInput(t, "allegheny", 1), "")
	reqC := wireRequest(siteInput(t, "butler", 0), "")

	done := make(chan struct{}, 2)
	go func() {
		postSegment(t, ts.URL, reqA, "")
		done <- struct{}{}
	}()
	<-gate.entered
	go func() {
		postSegment(t, ts.URL, reqB, "")
		done <- struct{}{}
	}()
	waitUntil(t, "request B to queue", func() bool { return s.queued.Load() == 1 })

	resp, _, werr := postSegment(t, ts.URL, reqC, "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-queue request: status %d, want 429", resp.StatusCode)
	}
	if werr.Error.Code != apiv1.CodeQueueFull {
		t.Errorf("code = %q, want queue_full", werr.Error.Code)
	}
	close(gate.release)
	<-done
	<-done
}

// TestDeadlineWhileQueued: a request whose deadline expires while
// waiting for an engine slot gets 504 deadline_exceeded.
func TestDeadlineWhileQueued(t *testing.T) {
	gate := newGate()
	_, ts := newTestServer(t, Config{Engine: engineConfig(gate, 1)})
	go postSegment(t, ts.URL, wireRequest(siteInput(t, "allegheny", 0), ""), "")
	<-gate.entered

	req := wireRequest(siteInput(t, "butler", 0), "")
	req.TimeoutMillis = 50
	resp, _, werr := postSegment(t, ts.URL, req, "")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
	if werr.Error.Code != apiv1.CodeDeadlineExceeded {
		t.Errorf("code = %q, want deadline_exceeded", werr.Error.Code)
	}
	close(gate.release)
}

// TestGracefulDrain: during drain an in-flight request completes
// normally, a queued-but-unadmitted one is released with a clean 503,
// new arrivals are rejected 503, and /healthz flips to 503.
func TestGracefulDrain(t *testing.T) {
	gate := newGate()
	s, err := New(Config{Engine: engineConfig(gate, 1)})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		code   apiv1.Code
	}
	results := make(chan result, 2)
	post := func(req *apiv1.SegmentRequest) {
		resp, ok, werr := postSegment(t, ts.URL, req, "")
		r := result{status: resp.StatusCode}
		if ok == nil && werr != nil {
			r.code = werr.Error.Code
		}
		results <- r
	}
	go post(wireRequest(siteInput(t, "allegheny", 0), "")) // in-flight
	<-gate.entered
	go post(wireRequest(siteInput(t, "butler", 0), "")) // queued
	waitUntil(t, "second request to queue", func() bool { return s.queued.Load() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	// The queued request must be released promptly with 503.
	r := <-results
	if r.status != http.StatusServiceUnavailable || r.code != apiv1.CodeDraining {
		t.Errorf("queued request during drain: status=%d code=%q, want 503 draining", r.status, r.code)
	}
	// A brand-new arrival is rejected outright.
	resp, _, werr := postSegment(t, ts.URL, wireRequest(siteInput(t, "michigan", 0), ""), "")
	if resp.StatusCode != http.StatusServiceUnavailable || werr.Error.Code != apiv1.CodeDraining {
		t.Errorf("new request during drain: status=%d, want 503 draining", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + apiv1.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz during drain: %d, want 503", hz.StatusCode)
	}
	// The in-flight request runs to completion.
	close(gate.release)
	r = <-results
	if r.status != http.StatusOK {
		t.Errorf("in-flight request during drain: status=%d, want 200", r.status)
	}
	if err := <-drained; err != nil {
		t.Errorf("drain: %v", err)
	}
	// Idempotent.
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// TestHealthzAndVarz: the operational endpoints serve liveness and a
// parseable metrics snapshot with per-stage histograms.
func TestHealthzAndVarz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	hz, err := http.Get(ts.URL + apiv1.PathHealthz)
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hz.StatusCode)
	}

	// The stage histograms are folded from each task's stats, so they
	// add up to what the responses report.
	calls, millis := map[string]int64{}, map[string]float64{}
	inputs := []core.Input{siteInput(t, "allegheny", 0), siteInput(t, "allegheny", 1), siteInput(t, "butler", 0)}
	for _, in := range inputs {
		req := wireRequest(in, "")
		req.WantStats = true
		_, ok, _ := postSegment(t, ts.URL, req, "")
		if ok == nil || ok.Stats == nil {
			t.Fatal("segmentation request failed or carries no stats")
		}
		for _, st := range ok.Stats.Stages {
			calls[st.Stage] += int64(st.Calls)
			millis[st.Stage] += st.Millis
		}
	}
	vz, err := http.Get(ts.URL + apiv1.PathVarz)
	if err != nil {
		t.Fatal(err)
	}
	defer vz.Body.Close()
	var m apiv1.Metrics
	if err := json.NewDecoder(vz.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	n := int64(len(inputs))
	if m.Requests.Total != n || m.Requests.OK != n {
		t.Errorf("request counters = %+v", m.Requests)
	}
	if m.Engine.TasksCompleted != n {
		t.Errorf("tasksCompleted = %d", m.Engine.TasksCompleted)
	}
	if m.Coalesce != (apiv1.CoalesceCounters{}) {
		t.Errorf("coalesce = %+v, want zeros", m.Coalesce)
	}
	if len(m.Stages) != len(calls) {
		t.Fatalf("varz has %d stage histograms, responses report %d stages", len(m.Stages), len(calls))
	}
	if m.Stages[0].Stage != stage.StageTokenize {
		t.Errorf("first histogram is %q, want pipeline order", m.Stages[0].Stage)
	}
	for _, h := range m.Stages {
		var sum int64
		for _, c := range h.Counts {
			sum += c
		}
		if sum+h.Overflow != h.Count {
			t.Errorf("stage %s: bucket sum %d+%d != count %d", h.Stage, sum, h.Overflow, h.Count)
		}
		if h.Count != calls[h.Stage] {
			t.Errorf("stage %s: count %d, responses report %d calls", h.Stage, h.Count, calls[h.Stage])
		}
		// Each response rounds its stage's total down to a microsecond;
		// the histogram rounds the sum once.
		if d := h.TotalMillis - millis[h.Stage]; d < -1e-6 || d > float64(n)*1e-3+1e-6 {
			t.Errorf("stage %s: totalMillis %.3f, responses report %.3f", h.Stage, h.TotalMillis, millis[h.Stage])
		}
	}
	if m.UptimeSeconds <= 0 {
		t.Error("uptime not reported")
	}
}

// TestStageHistogramsCountEachCall: a stage that ran several times in
// one task adds each call, in the bucket of the task's mean duration
// for the stage; a call past the last bound lands in the overflow.
func TestStageHistogramsCountEachCall(t *testing.T) {
	h := newStageHistograms()
	h.add([]core.StageTiming{
		{Name: stage.StageExtract, Duration: 6 * time.Millisecond, Calls: 2},
		{Name: stage.StageSegment, Duration: 20 * time.Second, Calls: 1},
	})
	h.add([]core.StageTiming{{Name: stage.StageExtract, Duration: 500 * time.Microsecond, Calls: 1}})
	counts := func(byBound map[int]int64) []int64 {
		out := make([]int64, len(histBoundsMillis))
		for i, n := range byBound {
			out[i] = n
		}
		return out
	}
	want := []apiv1.StageHistogram{
		{Stage: stage.StageExtract, Count: 3, TotalMillis: 6.5, BoundsMillis: histBoundsMillis, Counts: counts(map[int]int64{0: 1, 2: 2})},
		{Stage: stage.StageSegment, Count: 1, TotalMillis: 20000, BoundsMillis: histBoundsMillis, Counts: counts(nil), Overflow: 1},
	}
	if got := h.snapshot(); !reflect.DeepEqual(got, want) {
		t.Errorf("histograms = %+v, want %+v", got, want)
	}
}

// TestRequestErrors: malformed and unsegmentable requests map to their
// typed wire codes and statuses through the full HTTP stack.
func TestRequestErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, err := http.Post(ts.URL+apiv1.PathSegment, "application/json", strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: %d, want 400", resp.StatusCode)
	}

	get, err := http.Get(ts.URL + apiv1.PathSegment)
	if err != nil {
		t.Fatal(err)
	}
	get.Body.Close()
	if get.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: %d, want 405", get.StatusCode)
	}

	req := wireRequest(siteInput(t, "allegheny", 0), "quantum")
	r2, _, werr := postSegment(t, ts.URL, req, "")
	if r2.StatusCode != http.StatusBadRequest || werr.Error.Code != apiv1.CodeBadOptions {
		t.Errorf("unknown method: status=%d code=%q", r2.StatusCode, werr.Error.Code)
	}

	short := &apiv1.SegmentRequest{
		DetailPages: []apiv1.Page{{HTML: "<html><body>d</body></html>"}},
	}
	r3, _, werr3 := postSegment(t, ts.URL, short, "")
	if r3.StatusCode != http.StatusBadRequest || werr3.Error.Code != apiv1.CodeTooFewListPages {
		t.Errorf("no list pages: status=%d code=%q, want 400 too_few_list_pages", r3.StatusCode, werr3.Error.Code)
	}
}

// TestServerNoGoroutineLeak: a burst of mixed traffic followed by
// drain leaves no goroutines behind.
func TestServerNoGoroutineLeak(t *testing.T) {
	base := runtime.NumGoroutine()
	func() {
		s, err := New(Config{Engine: engineConfig(nil, 2)})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		var wg sync.WaitGroup
		req := wireRequest(siteInput(t, "allegheny", 0), "")
		for i := 0; i < 6; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				postSegment(t, ts.URL, req, "")
			}()
		}
		wg.Wait()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Fatal(err)
		}
	}()
	if n := settledGoroutines(base); n > base {
		t.Errorf("goroutines: %d before, %d after drain", base, n)
	}
}

func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestEffectiveTimeout pins deadline resolution: request deadlines are
// clamped to MaxTimeout and DefaultTimeout fills in absent ones.
func TestEffectiveTimeout(t *testing.T) {
	s := &Server{cfg: Config{DefaultTimeout: 2 * time.Second, MaxTimeout: 5 * time.Second}}
	cases := []struct {
		millis int64
		want   time.Duration
	}{
		{0, 2 * time.Second},
		{1000, time.Second},
		{60000, 5 * time.Second},
	}
	for _, c := range cases {
		if got := s.effectiveTimeout(c.millis); got != c.want {
			t.Errorf("effectiveTimeout(%d) = %v, want %v", c.millis, got, c.want)
		}
	}
	unclamped := &Server{cfg: Config{}}
	if got := unclamped.effectiveTimeout(0); got != 0 {
		t.Errorf("no default, no request deadline: %v, want 0", got)
	}
}

// TestLimiterRefill drives the token bucket with synthetic clocks.
func TestLimiterRefill(t *testing.T) {
	start := time.Unix(1000, 0)
	l := newLimiter(2, 2) // 2/s, burst 2
	if !l.allow("c", start) || !l.allow("c", start) {
		t.Fatal("burst tokens rejected")
	}
	if l.allow("c", start) {
		t.Fatal("empty bucket allowed a request")
	}
	if !l.allow("c", start.Add(500*time.Millisecond)) {
		t.Fatal("refilled token rejected")
	}
	if l.allow("c", start.Add(500*time.Millisecond)) {
		t.Fatal("double spend after single refill")
	}
}

// postRaw posts body verbatim to the segment endpoint and decodes the
// error envelope (nil on 200).
func postRaw(t *testing.T, url, body string) (int, *apiv1.Error) {
	t.Helper()
	resp, err := http.Post(url+apiv1.PathSegment, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		return resp.StatusCode, nil
	}
	var out apiv1.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Error == nil {
		t.Fatalf("status %d: undecodable error envelope (%v)", resp.StatusCode, err)
	}
	return resp.StatusCode, out.Error
}

// TestRequestBodyContract pins how the daemon reads request bodies
// that its own client never writes: each body's status, wire code and
// message, through the full HTTP stack. The first rows fail to decode;
// the rest decode, and the decoded value shows in what validation
// answers (the method or target each body carries).
func TestRequestBodyContract(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	badMethod := func(m string) string {
		return fmt.Sprintf("core: invalid options: unknown method %q (want csp, probabilistic or combined)", m)
	}
	const pages = `"listPages":[{"html":"<p>a</p>"},{"html":"<p>b</p>"}],"detailPages":[{"html":"<p>d</p>"}]`
	cases := []struct {
		name, body string
		status     int
		code       apiv1.Code
		msg        string
	}{
		{"empty", ``, 400, apiv1.CodeBadRequest, "decoding request: EOF"},
		{"truncated mid-string", `{"method":"cs`, 400, apiv1.CodeBadRequest, "decoding request: unexpected EOF"},
		{"string target", `{"target":"1"}`, 400, apiv1.CodeBadRequest,
			"decoding request: json: cannot unmarshal string into Go struct field SegmentRequest.target of type int"},
		{"exponent target", `{"target":1e2}`, 400, apiv1.CodeBadRequest,
			"decoding request: json: cannot unmarshal number 1e2 into Go struct field SegmentRequest.target of type int"},
		{"null page lists", `{"listPages":null,"target":0,"detailPages":null}`, 400, apiv1.CodeTooFewListPages,
			"core: too few list pages: need at least one"},
		{"unknown field", `{"method":"quantum","priority":7}`, 400, apiv1.CodeBadOptions, badMethod("quantum")},
		{"case-folded key", `{"Target":5,` + pages + `}`, 400, apiv1.CodeBadTarget, "core: target list page out of range: 5 of 2"},
		{"duplicate key", `{"method":"csp","method":"quantum"}`, 400, apiv1.CodeBadOptions, badMethod("quantum")},
		{"trailing bytes", `{"method":"quantum"} {"method":"csp"} ]]`, 400, apiv1.CodeBadOptions, badMethod("quantum")},
		{"surrogate pair escape", `{"method":"\ud83d\ude00"}`, 400, apiv1.CodeBadOptions, badMethod("\U0001F600")},
		{"raw invalid UTF-8", "{\"method\":\"q\xffq\"}", 400, apiv1.CodeBadOptions, badMethod("q\uFFFDq")},
	}
	for _, c := range cases {
		status, werr := postRaw(t, ts.URL, c.body)
		if werr == nil {
			t.Errorf("%s: status %d, want %d", c.name, status, c.status)
			continue
		}
		if status != c.status || werr.Code != c.code || werr.Message != c.msg {
			t.Errorf("%s: got %d %s %q, want %d %s %q", c.name, status, werr.Code, werr.Message, c.status, c.code, c.msg)
		}
	}
}

// TestBoundedBodyRead: a request that declares a 64 MiB body, sends a
// short prefix and half-closes its connection gets a 400 bad_request,
// and reading it does not reserve the declared size.
func TestBoundedBodyRead(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	addr := strings.TrimPrefix(ts.URL, "http://")
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST %s HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n%s",
		apiv1.PathSegment, addr, 64<<20, `{"listPages":[{"name":"a","html":"<p>`)
	if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out apiv1.ErrorResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || out.Error == nil {
		t.Fatalf("status %d: undecodable error envelope (%v)", resp.StatusCode, err)
	}
	runtime.ReadMemStats(&after)
	if resp.StatusCode != http.StatusBadRequest || out.Error.Code != apiv1.CodeBadRequest ||
		out.Error.Message != "decoding request: unexpected EOF" {
		t.Errorf("got %d %s %q, want 400 bad_request \"decoding request: unexpected EOF\"",
			resp.StatusCode, out.Error.Code, out.Error.Message)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 8<<20 {
		t.Errorf("reading a 64 MiB declaration allocated %d bytes", grew)
	}
}

// TestDecodeRequestReadError: when reading the body fails, the request
// fails with the read error and nothing decodes, whatever arrived
// before the failure.
func TestDecodeRequestReadError(t *testing.T) {
	const full = `{"method":"csp","target":1} and more`
	boom := errors.New("connection reset")
	cut := func(n int) io.Reader { return io.MultiReader(strings.NewReader(full[:n]), iotest.ErrReader(boom)) }
	capped := func(n int64) io.Reader { return http.MaxBytesReader(nil, io.NopCloser(strings.NewReader(full)), n) }
	for _, c := range []struct {
		name string
		body io.Reader
		want string
	}{
		{"nothing arrived", iotest.ErrReader(boom), "connection reset"},
		{"cut mid-value", cut(12), "connection reset"},
		{"cut after the value", cut(len(full)), "connection reset"},
		{"over the cap mid-value", capped(12), "http: request body too large"},
		{"over the cap after the value", capped(30), "http: request body too large"},
	} {
		var got apiv1.SegmentRequest
		err := decodeRequest(c.body, -1, &got)
		if fmt.Sprint(err) != c.want || !reflect.DeepEqual(got, apiv1.SegmentRequest{}) {
			t.Errorf("%s: got %+v, %v; want nothing decoded, %q", c.name, got, err, c.want)
		}
	}
}
