package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"

	"tableseg"
	apiv1 "tableseg/api/v1"
	"tableseg/internal/artifact"
	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/server"
	"tableseg/internal/stage"
)

// daemon-warm's fixed work. A run is a series of epochs; each builds a
// daemon, warms it with its own working set (the set-up), then times one
// block per method in which every working-set input is sent once more.
const (
	// daemonEpochsPer10s is the epochs per 10 s of --seconds, measured
	// on a 2-vCPU host; minDaemonEpochs keeps 100 or more pages per
	// method, so p90 has 10 samples beyond it.
	daemonEpochsPer10s = 4
	minDaemonEpochs    = 2
	// daemonSeeds is how many bulky-pages seeds make up one epoch's
	// working set: 64 inputs, whose artifacts (about 30 MB) fit the
	// default 64 MiB cache with room. Fresh working sets per epoch,
	// rather than one working set sent many times, are what keep the
	// CSP percentiles steady: about one input in ten needs a 20-60 ms
	// exact check where the rest need under 1 ms, so p90 sits where
	// that tail begins, and which inputs a run holds decides it.
	daemonSeeds = 4
	// daemonChecks is how many working-set responses per epoch are
	// compared with a local serial segmentation.
	daemonChecks = 2
)

// request is one working-set request: an input under one method, and
// the response the daemon gave it during warm-up. Both methods' bodies
// share one encoding of the input's fields.
type request struct {
	job    job
	method core.Method
	fields []byte
	want   []byte
}

// segmentRequest is the api/v1 request for an input, without a method.
func segmentRequest(j job) *apiv1.SegmentRequest {
	req := &apiv1.SegmentRequest{Target: j.in.Target}
	for _, p := range j.in.ListPages {
		req.ListPages = append(req.ListPages, apiv1.Page{Name: p.Name, HTML: p.HTML})
	}
	for _, p := range j.in.DetailPages {
		req.DetailPages = append(req.DetailPages, apiv1.Page{Name: p.Name, HTML: p.HTML})
	}
	return req
}

// encodeFields encodes an input's request fields the way the
// repository's Go client (internal/server/client) does, with
// json.Marshal, which escapes HTML, and drops the braces. Method is the
// request's first field and WantStats its last, so a body is the
// method, these fields and the closing part.
func encodeFields(j job) ([]byte, error) {
	b, err := json.Marshal(segmentRequest(j))
	if err != nil {
		return nil, err
	}
	return b[1 : len(b)-1], nil
}

// body returns the request's JSON body in three parts, together byte
// for byte what json.Marshal writes for the whole request; a traced
// request also asks for the engine's task stats.
func (rq *request) body(traced bool) (head string, fields []byte, tail string) {
	head, tail = fmt.Sprintf(`{"method":%q,`, rq.method.String()), "}"
	if traced {
		tail = `,"wantStats":true}`
	}
	return head, rq.fields, tail
}

// bodyLen is the length of the request's body.
func (rq *request) bodyLen(traced bool) int {
	head, fields, tail := rq.body(traced)
	return len(head) + len(fields) + len(tail)
}

// daemon is an in-process tablesegd on a loopback port.
type daemon struct {
	srv  *server.Server
	http *http.Server
	url  string
	done chan error
}

// startDaemon builds tablesegd with its default configuration (memory
// tier, no resume) and serves it on 127.0.0.1. A tracer, when given,
// observes the engine's stages, wraps its artifact store and wraps the
// HTTP handler.
func startDaemon(workers int, tr *tracer) (*daemon, error) {
	cfg := server.Config{Engine: engine.Config{Options: core.DefaultOptions(core.Probabilistic), Concurrency: workers}}
	if tr != nil {
		cfg.Engine.Observer = tr
		cfg.Engine.Store = tracedStore{Store: artifact.NewMemory(0), t: tr}
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	if tr != nil {
		h = tr.handler(h)
	}
	d := &daemon{srv: srv, http: &http.Server{Handler: h}, url: "http://" + ln.Addr().String() + apiv1.PathSegment, done: make(chan error, 1)}
	go func() { d.done <- d.http.Serve(ln) }()
	return d, nil
}

// stop shuts the listener down, drains the daemon and waits for the
// serving goroutine to return.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.http.Shutdown(ctx)
	if serr := <-d.done; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if derr := d.srv.Drain(ctx); derr != nil && err == nil {
		err = derr
	}
	return err
}

// post sends one request and reads the whole response.
func post(c *http.Client, url string, rq *request, traced bool) (int, []byte, error) {
	head, fields, tail := rq.body(traced)
	req, err := http.NewRequest(http.MethodPost, url, io.MultiReader(strings.NewReader(head), bytes.NewReader(fields), strings.NewReader(tail)))
	if err != nil {
		return 0, nil, err
	}
	req.ContentLength = int64(rq.bodyLen(traced))
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// exchange is one timed request and what came back.
type exchange struct {
	req        *request
	status     int
	resp       []byte
	err        error
	sent, recv time.Time
}

// walk runs one closed-loop client per share: each sends its requests
// in order, the next only after the previous response has been read.
// It returns every exchange and the wall time until the last client
// finished. before, when set, runs ahead of each send on its client's
// goroutine.
func walk(c *http.Client, url string, shares [][]*request, traced bool, before func(*request)) ([]exchange, time.Duration) {
	out := make([][]exchange, len(shares))
	var wg sync.WaitGroup
	start := time.Now()
	for ci, share := range shares {
		wg.Add(1)
		go func(ci int, share []*request) {
			defer wg.Done()
			for _, rq := range share {
				if before != nil {
					before(rq)
				}
				ex := exchange{req: rq, sent: time.Now()}
				ex.status, ex.resp, ex.err = post(c, url, rq, traced)
				ex.recv = time.Now()
				out[ci] = append(out[ci], ex)
			}
		}(ci, share)
	}
	wg.Wait()
	wall := time.Since(start)
	var all []exchange
	for _, o := range out {
		all = append(all, o...)
	}
	return all, wall
}

// workingSet builds epoch e's requests: every input of daemonSeeds
// bulky-pages seeds no other epoch uses, under both methods.
func workingSet(seed int64, e int) ([]*request, error) {
	var reqs []*request
	for k := 0; k < daemonSeeds; k++ {
		for _, j := range bulkyJobs(passSeed(seed, e*daemonSeeds+k)) {
			fields, err := encodeFields(j)
			if err != nil {
				return nil, err
			}
			for _, m := range methods {
				reqs = append(reqs, &request{job: j, method: m, fields: fields})
			}
		}
	}
	return reqs, nil
}

// halves splits the requests of one method into the clients' disjoint
// shares, each in a seeded order.
func halves(reqs []*request, m core.Method, clients int, rng *rand.Rand) [][]*request {
	var mine []*request
	for _, rq := range reqs {
		if rq.method == m {
			mine = append(mine, rq)
		}
	}
	shares := make([][]*request, clients)
	for i, rq := range mine {
		c := i * clients / len(mine)
		shares[c] = append(shares[c], rq)
	}
	for _, s := range shares {
		rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
	}
	return shares
}

// warm sends every working-set request once, each client its half
// with both methods, and returns the exchanges.
func warm(c *http.Client, d *daemon, reqs []*request, clients int, traced bool) []exchange {
	shares := make([][]*request, clients)
	for i, rq := range reqs {
		k := i * clients / len(reqs)
		shares[k] = append(shares[k], rq)
	}
	ex, _ := walk(c, d.url, shares, traced, nil)
	return ex
}

// checkWarm counts the warm-up exchanges and keeps each response as the
// one later responses must equal.
func (r *run) checkWarm(exs []exchange, keep bool) {
	for _, ex := range exs {
		r.attempted++
		if ex.err != nil || ex.status != http.StatusOK {
			r.fail("warm-up %s (%s): status %d, %v", ex.req.job.id, suffix(ex.req.method), ex.status, ex.err)
			continue
		}
		if keep {
			ex.req.want = ex.resp
		}
	}
}

// canonical re-encodes a response without its per-request fields, so
// responses compare by content.
func canonical(data []byte) ([]byte, error) {
	var resp apiv1.SegmentResponse
	if err := json.Unmarshal(data, &resp); err != nil {
		return nil, err
	}
	resp.Stats, resp.Coalesced = nil, false
	return json.Marshal(&resp)
}

// checkLocal compares the daemon's response to a request with a local
// serial segmentation of the same input, as scripts/serve-smoke.sh does.
func checkLocal(rq *request) error {
	seg, err := tableseg.Segment(rq.job.in, core.DefaultOptions(rq.method))
	if err != nil {
		return fmt.Errorf("%s (%s): local segmentation failed: %w", rq.job.id, suffix(rq.method), err)
	}
	local, err := json.Marshal(apiv1.ResponseFromSegmentation(seg, nil))
	if err != nil {
		return err
	}
	remote, err := canonical(rq.want)
	if err != nil {
		return fmt.Errorf("%s (%s): decoding response: %w", rq.job.id, suffix(rq.method), err)
	}
	if !bytes.Equal(local, remote) {
		return fmt.Errorf("%s (%s): daemon response differs from local segmentation", rq.job.id, suffix(rq.method))
	}
	return nil
}

func newClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: conns, DisableCompression: true}}
}

// epochs is the fixed work of an untraced daemon-warm run.
func epochs(cfg config) int {
	if cfg.passes > 0 {
		return cfg.passes
	}
	return max(minDaemonEpochs, cfg.seconds*daemonEpochsPer10s/10)
}

// runDaemon drives daemon-warm.
func runDaemon(r *run) error {
	cfg := r.cfg
	client := newClient(cfg.workers)
	defer client.CloseIdleConnections()
	if cfg.trace {
		return runDaemonTraced(r, client)
	}
	var setupS []float64
	byMethod := map[core.Method]*totals{}
	raw := map[core.Method]*totals{}
	for _, m := range methods {
		byMethod[m], raw[m] = &totals{}, &totals{}
	}
	var rawSetupS []float64
	sample := rand.New(rand.NewSource(shuffleSeed(cfg.seed, 1)))
	order := rand.New(rand.NewSource(shuffleSeed(cfg.seed, 2)))
	var misses int64
	var heap uint64
	n := epochs(cfg)
	r.repeatBudget = (1 + len(methods)) * n / 4
	for e := 0; e < n; e++ {
		reqs, err := workingSet(cfg.seed, e)
		if err != nil {
			return err
		}
		var d *daemon
		var exs []exchange
		var took time.Duration
		var sp speed
		err = r.calm(func() error {
			if d != nil {
				if err := d.stop(); err != nil {
					return err
				}
			}
			var err error
			sp, err = r.bracket(func() error {
				start := time.Now()
				var err error
				if d, err = startDaemon(cfg.workers, nil); err != nil {
					return err
				}
				exs = warm(client, d, reqs, cfg.workers, false)
				took = time.Since(start)
				return nil
			})
			if err != nil {
				return err
			}
			r.checkWarm(exs, true)
			return nil
		})
		if err != nil {
			return err
		}
		setupS = append(setupS, sp.dur(took).Seconds())
		rawSetupS = append(rawSetupS, took.Seconds())
		for _, i := range sample.Perm(len(reqs))[:daemonChecks] {
			if reqs[i].want == nil {
				continue
			}
			r.attempted++
			if err := checkLocal(reqs[i]); err != nil {
				r.fail("%v", err)
			}
		}

		cs0 := d.srv.Engine().CacheStats()
		if err := r.timedStart(); err != nil {
			return err
		}
		for _, m := range methodOrder(e) {
			shares := halves(reqs, m, cfg.workers, order)
			var lat []float64
			var wall time.Duration
			var alloc uint64
			var sp speed
			err := r.calm(func() error {
				var exs []exchange
				var err error
				sp, err = r.bracket(func() error {
					var before, after runtime.MemStats
					runtime.ReadMemStats(&before)
					exs, wall = walk(client, d.url, shares, false, nil)
					runtime.ReadMemStats(&after)
					alloc = after.TotalAlloc - before.TotalAlloc
					return nil
				})
				if err != nil {
					return err
				}
				lat = make([]float64, len(exs))
				for i, ex := range exs {
					lat[i] = ms(ex.recv.Sub(ex.sent))
					r.attempted++
					switch {
					case ex.err != nil || ex.status != http.StatusOK:
						r.fail("%s (%s): status %d, %v", ex.req.job.id, suffix(m), ex.status, ex.err)
					case !bytes.Equal(ex.resp, ex.req.want):
						r.fail("%s (%s): response differs from the warm-up response", ex.req.job.id, suffix(m))
					}
				}
				return nil
			})
			if err != nil {
				return err
			}
			byMethod[m].add(sp.lat(lat), sp.dur(wall), alloc)
			raw[m].add(lat, wall, alloc)
		}
		r.timedEnd()
		cs1 := d.srv.Engine().CacheStats()
		misses += cs1.TokenMisses - cs0.TokenMisses + cs1.TemplateMisses - cs0.TemplateMisses
		if e == n-1 {
			// The heap is what the daemon retains: drop the harness's
			// copies of the working set and its reference loop first.
			reqs, exs, r.ref = nil, nil, nil
			runtime.GC()
			var mem runtime.MemStats
			runtime.ReadMemStats(&mem)
			heap = mem.HeapAlloc
			runtime.KeepAlive(d)
		}
		if err := d.stop(); err != nil {
			return err
		}
	}
	r.metrics = endToEnd(setupS, byMethod, heap)
	r.note("%s", sampleLine(byMethod))
	r.note("epochs: %d; set-ups %.3f s at reference speed; timed token and template misses %d", n, setupS, misses)
	r.note("%s", r.speedLine(endToEnd(rawSetupS, raw, heap)))
	r.noteRepeats()
	return nil
}

// runDaemonTraced pairs every block on an untraced daemon with the same
// block on a traced one, one request at a time.
func runDaemonTraced(r *run, client *http.Client) error {
	cfg := r.cfg
	reqs, err := workingSet(cfg.seed, 0)
	if err != nil {
		return err
	}
	tr := newTracer()
	plainD, err := startDaemon(cfg.workers, nil)
	if err != nil {
		return err
	}
	defer func() {
		if err := plainD.stop(); err != nil {
			r.fail("stopping daemon: %v", err)
		}
	}()
	tracedD, err := startDaemon(cfg.workers, tr)
	if err != nil {
		return err
	}
	defer func() {
		if err := tracedD.stop(); err != nil {
			r.fail("stopping daemon: %v", err)
		}
	}()
	for _, rq := range reqs {
		tr.learnPages(rq.job.in)
	}
	r.checkWarm(warm(client, plainD, reqs, cfg.workers, false), true)
	r.checkWarm(warm(client, tracedD, reqs, cfg.workers, true), false)
	wantCanon := map[*request][]byte{}
	for _, rq := range reqs {
		if rq.want != nil {
			if wantCanon[rq], err = canonical(rq.want); err != nil {
				return err
			}
		}
	}

	blocks := tracedPasses(epochs(cfg))
	if cfg.passes > 0 {
		blocks = cfg.passes
	}
	order := rand.New(rand.NewSource(shuffleSeed(cfg.seed, 2)))
	var in layerInput
	var plain, traced totals
	var gc gcSample
	cs0, v0 := tracedD.srv.Engine().CacheStats(), tracedD.srv.Varz()
	id := 0
	ids := map[*request]int{}
	for b := 0; b < blocks; b++ {
		for _, m := range methodOrder(b) {
			walkOrder := halves(reqs, m, 1, order)
			runtime.GC()
			g0 := readGC()
			exs, wall := walk(client, plainD.url, walkOrder, false, nil)
			gc.add(g0)
			lat := make([]float64, len(exs))
			for i, ex := range exs {
				lat[i] = ms(ex.recv.Sub(ex.sent))
				r.attempted++
				if ex.err != nil || ex.status != http.StatusOK || !bytes.Equal(ex.resp, ex.req.want) {
					r.fail("%s (%s): untraced response differs (status %d, %v)", ex.req.job.id, suffix(m), ex.status, ex.err)
				}
			}
			plain.add(lat, wall, 0)

			runtime.GC()
			exs, wall = walk(client, tracedD.url, walkOrder, true, func(rq *request) {
				id++
				ids[rq] = id
				tr.begin(id)
			})
			lat = make([]float64, len(exs))
			for i, ex := range exs {
				lat[i] = ms(ex.recv.Sub(ex.sent))
				r.attempted++
				rec, err := tracedRecord(ex, tr)
				if err != nil {
					r.fail("%s (%s): %v", ex.req.job.id, suffix(m), err)
					continue
				}
				rec.id = ids[ex.req]
				in.tasks = append(in.tasks, rec)
				if got, _ := canonical(ex.resp); !bytes.Equal(got, wantCanon[ex.req]) {
					r.fail("%s (%s): traced response differs from the warm-up response", ex.req.job.id, suffix(m))
				}
			}
			traced.add(lat, wall, 0)
		}
	}
	cs1, v1 := tracedD.srv.Engine().CacheStats(), tracedD.srv.Varz()
	in.tokenHits, in.tokenMisses = cs1.TokenHits-cs0.TokenHits, cs1.TokenMisses-cs0.TokenMisses
	in.templateHits, in.templateMisses = cs1.TemplateHits-cs0.TemplateHits, cs1.TemplateMisses-cs0.TemplateMisses
	for i, t := range cs1.Tiers {
		in.evictions += t.Evictions - cs0.Tiers[i].Evictions
	}
	in.coalesceHits = v1.Coalesce.Hits - v0.Coalesce.Hits
	in.coalesceMisses = v1.Coalesce.Misses - v0.Coalesce.Misses
	in.rejected = (v1.Requests.RateLimited + v1.Requests.QueueFull + v1.Requests.DrainRejected) -
		(v0.Requests.RateLimited + v0.Requests.QueueFull + v0.Requests.DrainRejected)
	in.spans = tr.spans
	r.metrics = append(layerMetrics(in), gc.metrics(plain.pages())...)
	r.metrics = append(r.metrics, overhead(plain, traced))
	r.note("traced: %d blocks per method, %d requests one at a time, %d spans; timed token misses %d, template misses %d",
		blocks, len(in.tasks), len(in.spans), in.tokenMisses, in.templateMisses)
	r.note("%s", shares(in))
	return nil
}

// tracedRecord turns a traced exchange into the harness's task record,
// reading the engine's counters from the response's stats.
func tracedRecord(ex exchange, tr *tracer) (taskRec, error) {
	if ex.err != nil || ex.status != http.StatusOK {
		return taskRec{}, fmt.Errorf("status %d: %w", ex.status, ex.err)
	}
	var resp apiv1.SegmentResponse
	if err := json.Unmarshal(ex.resp, &resp); err != nil {
		return taskRec{}, err
	}
	if resp.Stats == nil {
		return taskRec{}, errors.New("response carries no stats")
	}
	rec := taskRec{
		method: ex.req.method,
		start:  int64(ex.sent.Sub(tr.epoch)), end: int64(ex.recv.Sub(tr.epoch)),
		wall:     time.Duration(resp.Stats.WallMillis * float64(time.Millisecond)),
		restarts: resp.Stats.WSATRestarts, flips: resp.Stats.WSATFlips, emIters: resp.Stats.EMIters,
		relaxed:  resp.CSPStatus == "solved-relaxed",
		reqBytes: ex.req.bodyLen(true),
	}
	for _, s := range resp.Stats.Stages {
		if s.Stage == stage.StageExtract {
			rec.extracts = s.Calls
		}
	}
	return rec, nil
}
