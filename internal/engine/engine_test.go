// Tests live in an external package because internal/experiments (used
// here for corpus building) itself imports the engine.
package engine_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
	"tableseg/internal/stage"
)

// corpusInputs builds one Input per list page of the full synthetic
// corpus (12 sites, 24 pages).
func corpusInputs(t testing.TB) []core.Input {
	t.Helper()
	var inputs []core.Input
	for _, p := range sitegen.Profiles() {
		site := sitegen.Generate(p, experiments.DefaultSeed)
		for pageIdx := range site.Lists {
			inputs = append(inputs, experiments.BuildInput(site, pageIdx))
		}
	}
	return inputs
}

// siteInput builds one Input for a single named site.
func siteInput(t testing.TB, slug string, pageIdx int) core.Input {
	t.Helper()
	p, err := sitegen.ProfileBySlug(slug)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.BuildInput(sitegen.Generate(p, experiments.DefaultSeed), pageIdx)
}

// tasksFor wraps each input in a Task under the engine's options.
func tasksFor(inputs []core.Input) []engine.Task {
	tasks := make([]engine.Task, len(inputs))
	for i := range inputs {
		tasks[i] = engine.Task{Input: inputs[i]}
	}
	return tasks
}

// runTasks runs a fixed batch through one Stream and returns the
// results in submission order (results[i] corresponds to tasks[i]).
func runTasks(ctx context.Context, eng *engine.Engine, tasks []engine.Task) []engine.Result {
	in := make(chan engine.Task, len(tasks))
	for _, t := range tasks {
		in <- t
	}
	close(in)
	results := make([]engine.Result, len(tasks))
	for r := range eng.Stream(ctx, in) {
		results[r.Index] = r
	}
	return results
}

// TestEngineMatchesSerial is the determinism contract: a concurrent
// batch over the whole corpus produces segmentations deeply equal to
// serial core.Segment calls, for both methods.
func TestEngineMatchesSerial(t *testing.T) {
	inputs := corpusInputs(t)
	for _, m := range []core.Method{core.Probabilistic, core.CSP} {
		opts := core.DefaultOptions(m)
		serial := make([]*core.Segmentation, len(inputs))
		for i, in := range inputs {
			seg, err := core.SegmentContext(context.Background(), in, opts)
			if err != nil {
				t.Fatalf("%v serial input %d: %v", m, i, err)
			}
			serial[i] = seg
		}
		eng, err := engine.New(engine.Config{Options: opts, Concurrency: 2 * runtime.GOMAXPROCS(0)})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range runTasks(context.Background(), eng, tasksFor(inputs)) {
			if r.Err != nil {
				t.Fatalf("%v engine input %d: %v", m, i, r.Err)
			}
			if !reflect.DeepEqual(r.Seg, serial[i]) {
				t.Errorf("%v input %d: engine segmentation differs from serial", m, i)
			}
		}
	}
}

// TestEngineTemplateCache verifies per-site template reuse: tasks
// sharing the same sample list pages hit the cache, distinct sites do
// not.
func TestEngineTemplateCache(t *testing.T) {
	inA0 := siteInput(t, "allegheny", 0)
	inA1 := siteInput(t, "allegheny", 1) // same site: same sample list pages
	inB0 := siteInput(t, "butler", 0)
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := runTasks(context.Background(), eng, []engine.Task{
		{ID: "a0", Input: inA0},
		{ID: "a1", Input: inA1},
		{ID: "a0-again", Input: inA0},
		{ID: "b0", Input: inB0},
	})
	wantHits := []bool{false, true, true, false}
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("task %s: %v", r.ID, r.Err)
		}
		if r.Stats.TemplateCacheHit != wantHits[i] {
			t.Errorf("task %s: TemplateCacheHit = %v, want %v", r.ID, r.Stats.TemplateCacheHit, wantHits[i])
		}
	}
	if got := eng.CachedSites(); got != 2 {
		t.Errorf("CachedSites() = %d, want 2", got)
	}
}

// TestEnginePerTaskOptions verifies that a task-level options override
// takes effect (the Table 4 harness relies on this to score one page
// under both methods against a shared site template).
func TestEnginePerTaskOptions(t *testing.T) {
	in := siteInput(t, "allegheny", 0)
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.Probabilistic), Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	cspOpts := core.DefaultOptions(core.CSP)
	results := runTasks(context.Background(), eng, []engine.Task{
		{ID: "prob", Input: in},
		{ID: "csp", Input: in, Options: &cspOpts},
	})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("task %s: %v", r.ID, r.Err)
		}
	}
	if results[0].Stats.EMIters == 0 {
		t.Error("probabilistic task ran no EM iterations")
	}
	if results[1].Stats.WSATRestarts == 0 {
		t.Error("CSP override task ran no WSAT restarts")
	}
}

// TestEngineStats verifies the instrumentation record is populated.
func TestEngineStats(t *testing.T) {
	in := siteInput(t, "allegheny", 0)
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.Probabilistic), Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	r := runTasks(context.Background(), eng, []engine.Task{{Input: in}})[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	st := r.Stats
	if st.Wall <= 0 {
		t.Error("Wall not recorded")
	}
	byName := map[string]time.Duration{}
	for _, s := range st.Stages {
		byName[s.Name] = s.Duration
	}
	tokenize := byName[stage.StageTokenize]
	extract := byName[stage.StageExtract] + byName[stage.StageObserve]
	solve := byName[stage.StageSegment]
	if tokenize <= 0 || extract <= 0 || solve <= 0 {
		t.Errorf("stage times not recorded: %+v", st.Stages)
	}
	if sum := tokenize + extract + solve; sum > st.Wall {
		t.Errorf("stage times %v exceed wall %v", sum, st.Wall)
	}
	if st.EMIters == 0 {
		t.Error("EMIters not recorded")
	}
}

// TestEngineStream exercises the channel API: results arrive in
// completion order but cover every submitted task exactly once, with
// indices and IDs intact.
func TestEngineStream(t *testing.T) {
	in := siteInput(t, "allegheny", 0)
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP)})
	if err != nil {
		t.Fatal(err)
	}
	const n = 6
	tasks := make(chan engine.Task)
	go func() {
		defer close(tasks)
		for i := 0; i < n; i++ {
			tasks <- engine.Task{ID: fmt.Sprintf("t%d", i), Input: in}
		}
	}()
	seen := make(map[int]string)
	for r := range eng.Stream(context.Background(), tasks) {
		if r.Err != nil {
			t.Fatalf("task %s: %v", r.ID, r.Err)
		}
		if prev, dup := seen[r.Index]; dup {
			t.Fatalf("index %d reported twice (%s, %s)", r.Index, prev, r.ID)
		}
		seen[r.Index] = r.ID
	}
	if len(seen) != n {
		t.Fatalf("got %d results, want %d", len(seen), n)
	}
	for i := 0; i < n; i++ {
		if want := fmt.Sprintf("t%d", i); seen[i] != want {
			t.Errorf("index %d carried ID %q, want %q", i, seen[i], want)
		}
	}
}

// TestEngineCancellation verifies batch accounting under cancellation:
// every submitted task is reported, unstarted tasks carry ctx.Err(),
// and any task that did complete is a valid segmentation.
func TestEngineCancellation(t *testing.T) {
	inputs := corpusInputs(t)
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.Probabilistic), Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	tasks := make(chan engine.Task)
	go func() {
		defer close(tasks)
		for _, in := range inputs {
			tasks <- engine.Task{Input: in}
		}
	}()
	out := eng.Stream(ctx, tasks)
	first := <-out // let the batch get under way, then pull the plug
	if first.Err != nil && !errors.Is(first.Err, context.Canceled) {
		t.Fatalf("first result: %v", first.Err)
	}
	cancel()
	got, canceled := 1, 0
	for r := range out {
		got++
		switch {
		case r.Err == nil:
			if r.Seg == nil {
				t.Errorf("task %d: nil segmentation without error", r.Index)
			}
		case errors.Is(r.Err, context.Canceled):
			canceled++
		default:
			t.Errorf("task %d: unexpected error %v", r.Index, r.Err)
		}
	}
	if got != len(inputs) {
		t.Fatalf("got %d results for %d tasks", got, len(inputs))
	}
	if canceled == 0 {
		t.Error("no task observed the cancellation")
	}
}

// TestEngineConfigValidation verifies typed rejection of bad configs.
func TestEngineConfigValidation(t *testing.T) {
	if _, err := engine.New(engine.Config{Concurrency: -1}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("negative concurrency: err = %v, want ErrBadOptions", err)
	}
	bad := core.DefaultOptions(core.CSP)
	bad.MinSlotQuality = 2
	if _, err := engine.New(engine.Config{Options: bad}); !errors.Is(err, core.ErrBadOptions) {
		t.Errorf("bad options: err = %v, want ErrBadOptions", err)
	}
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP)})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Concurrency() != runtime.GOMAXPROCS(0) {
		t.Errorf("default Concurrency() = %d, want GOMAXPROCS %d", eng.Concurrency(), runtime.GOMAXPROCS(0))
	}
}

// TestEngineTokenCache verifies the content-addressed token cache: a
// repeated input re-reads every page from cache, and the engine
// aggregates the counters.
func TestEngineTokenCache(t *testing.T) {
	in := siteInput(t, "allegheny", 0)
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	results := runTasks(context.Background(), eng, []engine.Task{
		{ID: "first", Input: in},
		{ID: "second", Input: in},
	})
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("task %s: %v", r.ID, r.Err)
		}
	}
	first, second := results[0].Stats, results[1].Stats
	if first.TokenCacheMisses == 0 {
		t.Errorf("first task: TokenCacheMisses = 0, want every page tokenized")
	}
	if first.TokenCacheHits != 0 {
		t.Errorf("first task: TokenCacheHits = %d, want 0 on a cold cache", first.TokenCacheHits)
	}
	// The second task re-reads every page, list and detail alike, from
	// the store.
	if second.TokenCacheMisses != 0 {
		t.Errorf("second task: TokenCacheMisses = %d, want 0", second.TokenCacheMisses)
	}
	if want := len(in.ListPages) + len(in.DetailPages); second.TokenCacheHits != want {
		t.Errorf("second task: TokenCacheHits = %d, want %d (lists+details)", second.TokenCacheHits, want)
	}
	cs := eng.CacheStats()
	wantHits := int64(first.TokenCacheHits + second.TokenCacheHits)
	wantMisses := int64(first.TokenCacheMisses + second.TokenCacheMisses)
	if cs.TokenHits != wantHits || cs.TokenMisses != wantMisses {
		t.Errorf("CacheStats token = %d/%d hits/misses, want %d/%d", cs.TokenHits, cs.TokenMisses, wantHits, wantMisses)
	}
	if cs.TemplateHits != 1 || cs.TemplateMisses != 1 {
		t.Errorf("CacheStats template = %d/%d hits/misses, want 1/1", cs.TemplateHits, cs.TemplateMisses)
	}
}

// TestEngineNoGoroutineLeak pins the goroleak contract at runtime: a
// completed batch and a cancelled batch must both wind their worker,
// feeder and closer goroutines down once the result stream is drained.
// The settle loop absorbs scheduler lag (goroutines that have returned
// but not yet been reaped from the count).
func TestEngineNoGoroutineLeak(t *testing.T) {
	inputs := corpusInputs(t)[:6]
	base := runtime.NumGoroutine()

	// Completed batch: every task runs to completion.
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.Probabilistic), Concurrency: 3})
	if err != nil {
		t.Fatal(err)
	}
	results := runTasks(context.Background(), eng, tasksFor(inputs))
	if len(results) != len(inputs) {
		t.Fatalf("got %d results for %d inputs", len(results), len(inputs))
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("task %d: %v", r.Index, r.Err)
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("completed batch leaked goroutines: %d before, %d after settling", base, n)
	}

	// Cancelled batch: the context dies mid-stream while the feeder
	// still holds undelivered tasks; the stream must still account for
	// every task and every goroutine must exit once it is drained.
	ctx, cancel := context.WithCancel(context.Background())
	tasks := make(chan engine.Task)
	go func() {
		defer close(tasks)
		for _, in := range inputs {
			tasks <- engine.Task{Input: in}
		}
	}()
	out := eng.Stream(ctx, tasks)
	<-out // let the batch get under way, then pull the plug
	cancel()
	got := 1
	for range out {
		got++
	}
	if got != len(inputs) {
		t.Fatalf("cancelled batch reported %d results for %d tasks", got, len(inputs))
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("cancelled batch leaked goroutines: %d before, %d after settling", base, n)
	}
}

// settledGoroutines polls runtime.NumGoroutine until it drops to the
// baseline or a deadline passes, returning the last observed count.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for i := 0; i < 200 && n > base; i++ {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestEngineSubmitMatchesSerial pins the Submit surface to the serial
// contract: results delivered through the one-off submission channel
// are deeply equal to serial core.Segment calls, and each channel is
// closed after its single result.
func TestEngineSubmitMatchesSerial(t *testing.T) {
	inputs := corpusInputs(t)[:4]
	opts := core.DefaultOptions(core.Probabilistic)
	eng, err := engine.New(engine.Config{Options: opts, Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	for i, in := range inputs {
		serial, err := core.SegmentContext(context.Background(), in, opts)
		if err != nil {
			t.Fatalf("serial input %d: %v", i, err)
		}
		ch, err := eng.Submit(context.Background(), engine.Task{ID: fmt.Sprint(i), Input: in})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		r, ok := <-ch
		if !ok {
			t.Fatalf("submit %d: channel closed without a result", i)
		}
		if r.Err != nil {
			t.Fatalf("submit %d: %v", i, r.Err)
		}
		if r.ID != fmt.Sprint(i) {
			t.Errorf("submit %d: ID = %q", i, r.ID)
		}
		if !reflect.DeepEqual(r.Seg, serial) {
			t.Errorf("submit %d: segmentation differs from serial", i)
		}
		if _, ok := <-ch; ok {
			t.Errorf("submit %d: channel delivered a second value", i)
		}
	}
}

// TestEngineSubmitAfterClose verifies the lifecycle contract: Close
// waits for admitted submissions, further Submits fail with ErrClosed,
// and Close is idempotent.
func TestEngineSubmitAfterClose(t *testing.T) {
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := eng.Submit(context.Background(), engine.Task{Input: siteInput(t, "allegheny", 0)})
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	// Close returned, so the admitted submission's result must already
	// be buffered.
	select {
	case r := <-ch:
		if r.Err != nil {
			t.Fatalf("admitted submission failed: %v", r.Err)
		}
	default:
		t.Fatal("Close returned before the admitted submission delivered")
	}
	if _, err := eng.Submit(context.Background(), engine.Task{Input: siteInput(t, "allegheny", 0)}); !errors.Is(err, engine.ErrClosed) {
		t.Fatalf("Submit after Close: err = %v, want ErrClosed", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}

// TestEngineSubmitCancelWhileQueued covers the slot-wait path: with one
// worker slot held by a long submission, a second submission whose
// context dies while queued reports ctx.Err() and frees its goroutine.
func TestEngineSubmitCancelWhileQueued(t *testing.T) {
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.Probabilistic), Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	first, err := eng.Submit(context.Background(), engine.Task{Input: siteInput(t, "allegheny", 0)})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	second, err := eng.Submit(ctx, engine.Task{ID: "queued", Input: siteInput(t, "butler", 0)})
	if err != nil {
		t.Fatal(err)
	}
	r := <-second
	if !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("queued submission: err = %v, want context.Canceled", r.Err)
	}
	if r.ID != "queued" {
		t.Errorf("queued submission: ID = %q", r.ID)
	}
	if r := <-first; r.Err != nil {
		t.Fatalf("running submission: %v", r.Err)
	}
}

// TestEngineStreamNoGoroutineLeak extends the goroleak contract to the
// redesigned surface: a drained Stream and a Closed engine with Submit
// traffic both wind every goroutine down.
func TestEngineStreamNoGoroutineLeak(t *testing.T) {
	inputs := corpusInputs(t)[:6]
	base := runtime.NumGoroutine()

	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 3})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make(chan engine.Task, len(inputs))
	for _, in := range inputs {
		tasks <- engine.Task{Input: in}
	}
	close(tasks)
	got := 0
	for r := range eng.Stream(context.Background(), tasks) {
		if r.Err != nil {
			t.Fatalf("task %d: %v", r.Index, r.Err)
		}
		got++
	}
	if got != len(inputs) {
		t.Fatalf("stream delivered %d results for %d tasks", got, len(inputs))
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("drained Stream leaked goroutines: %d before, %d after settling", base, n)
	}

	var chans []<-chan engine.Result
	for _, in := range inputs {
		ch, err := eng.Submit(context.Background(), engine.Task{Input: in})
		if err != nil {
			t.Fatal(err)
		}
		chans = append(chans, ch)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		if r := <-ch; r.Err != nil {
			t.Fatalf("submission %d: %v", i, r.Err)
		}
	}
	if n := settledGoroutines(base); n > base {
		t.Errorf("closed engine leaked goroutines: %d before, %d after settling", base, n)
	}
}

// TestEngineObserver verifies the Config.Observer seam: every task
// reports every pipeline stage to the configured observer, mirroring
// its own Stats breakdown.
func TestEngineObserver(t *testing.T) {
	var mu sync.Mutex
	counts := map[string]int{}
	obs := observerFunc{onEnd: func(name string, d time.Duration, err error) {
		mu.Lock()
		counts[name]++
		mu.Unlock()
	}}
	eng, err := engine.New(engine.Config{
		Options: core.DefaultOptions(core.Probabilistic), Concurrency: 2, Observer: obs,
	})
	if err != nil {
		t.Fatal(err)
	}
	inputs := corpusInputs(t)[:4]
	for _, r := range runTasks(context.Background(), eng, tasksFor(inputs)) {
		if r.Err != nil {
			t.Fatalf("task %d: %v", r.Index, r.Err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for _, name := range []string{"Tokenize", "InduceTemplate", "SelectSlot", "Extract", "Observe", "Segment", "PostProcess"} {
		if counts[name] < len(inputs) {
			t.Errorf("observer saw %d %s ends for %d tasks", counts[name], name, len(inputs))
		}
	}
}

// observerFunc adapts a function to stage.Observer for tests.
type observerFunc struct {
	onEnd func(name string, d time.Duration, err error)
}

func (o observerFunc) OnStageStart(name string) {}
func (o observerFunc) OnStageEnd(name string, d time.Duration, err error) {
	if o.onEnd != nil {
		o.onEnd(name, d, err)
	}
}

// TestEngineInputKey pins the coalescing key: identical content shares
// a key regardless of page names; any content, target or detail change
// separates keys, including a byte moving from one page to the next.
func TestEngineInputKey(t *testing.T) {
	in := siteInput(t, "allegheny", 0)
	same := siteInput(t, "allegheny", 0)
	for i := range same.ListPages {
		same.ListPages[i].Name = fmt.Sprintf("renamed-%d", i)
	}
	if engine.InputKey(in) != engine.InputKey(same) {
		t.Error("renaming pages changed the input key")
	}
	other := siteInput(t, "allegheny", 1)
	if engine.InputKey(in) == engine.InputKey(other) {
		t.Error("different target pages share an input key")
	}
	mutated := siteInput(t, "allegheny", 0)
	mutated.DetailPages[0].HTML += " "
	if engine.InputKey(in) == engine.InputKey(mutated) {
		t.Error("detail-page edit did not change the input key")
	}
	retargeted := siteInput(t, "allegheny", 0)
	retargeted.Target = 1
	if engine.InputKey(in) == engine.InputKey(retargeted) {
		t.Error("changing only the target did not change the input key")
	}
	// Moving the last byte of one page to the front of the next keeps
	// the concatenated bytes but must change the key.
	moveByte := func(pages []core.Page, i int) {
		a := pages[i].HTML
		pages[i].HTML, pages[i+1].HTML = a[:len(a)-1], a[len(a)-1:]+pages[i+1].HTML
	}
	lists := siteInput(t, "allegheny", 0)
	moveByte(lists.ListPages, 0)
	if engine.InputKey(in) == engine.InputKey(lists) {
		t.Error("a byte moved between list pages did not change the input key")
	}
	details := siteInput(t, "allegheny", 0)
	moveByte(details.DetailPages, 0)
	if engine.InputKey(in) == engine.InputKey(details) {
		t.Error("a byte moved between detail pages did not change the input key")
	}
}
