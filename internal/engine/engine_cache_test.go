// Tests for the content-addressed artifact store behind the engine:
// tier configuration, per-tier counters, and batch checkpoint/resume.
package engine_test

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync"
	"testing"

	"tableseg/internal/artifact"
	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/stage"
)

// tierByName extracts one tier's snapshot from a CacheStats.
func tierByName(t *testing.T, cs engine.CacheStats, name string) artifact.Stats {
	t.Helper()
	for _, tier := range cs.Tiers {
		if tier.Tier == name {
			return tier
		}
	}
	t.Fatalf("no %q tier in %+v", name, cs.Tiers)
	return artifact.Stats{}
}

// TestEngineCacheConfigValidation covers the new Config fields' typed
// rejection.
func TestEngineCacheConfigValidation(t *testing.T) {
	cases := map[string]engine.Config{
		"negative-memory": {CacheMemoryBytes: -1},
		"negative-disk":   {CacheDiskBytes: -1},
		"resume-no-cache": {Resume: true, DisableCache: true},
	}
	for name, cfg := range cases {
		cfg.Options = core.DefaultOptions(core.CSP)
		if _, err := engine.New(cfg); !errors.Is(err, core.ErrBadOptions) {
			t.Errorf("%s: err = %v, want ErrBadOptions", name, err)
		}
	}
	// An unusable cache directory must fail loudly, not degrade.
	cfg := engine.Config{Options: core.DefaultOptions(core.CSP), CacheDir: "/dev/null/not-a-dir"}
	if _, err := engine.New(cfg); err == nil {
		t.Error("unusable CacheDir did not error")
	}
}

// TestEngineMemoryTierBounded verifies the no-disk default: the token
// cache is a bounded LRU, and evictions surface in CacheStats.Tiers.
func TestEngineMemoryTierBounded(t *testing.T) {
	inputs := corpusInputs(t)
	// A budget far smaller than the corpus's token streams forces
	// evictions while the batch still completes correctly.
	eng, err := engine.New(engine.Config{
		Options:          core.DefaultOptions(core.CSP),
		Concurrency:      2,
		CacheMemoryBytes: 32 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runTasks(context.Background(), eng, tasksFor(inputs)) {
		if r.Err != nil {
			t.Fatalf("task %d: %v", r.Index, r.Err)
		}
	}
	mem := tierByName(t, eng.CacheStats(), "memory")
	if mem.Evictions == 0 {
		t.Errorf("no evictions under a %d-byte budget: %+v", 32<<10, mem)
	}
	if mem.Bytes > 32<<10 {
		t.Errorf("memory tier holds %d bytes, budget %d", mem.Bytes, 32<<10)
	}
}

// TestEngineWarmDiskCache is the warm-start contract: a second engine
// over the same cache directory re-tokenizes zero byte-identical pages
// — every lookup is served by the disk tier — and produces a deeply
// equal segmentation.
func TestEngineWarmDiskCache(t *testing.T) {
	dir := t.TempDir()
	in := siteInput(t, "allegheny", 0)

	cold, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r1 := runTasks(context.Background(), cold, []engine.Task{{Input: in}})[0]
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if cs := cold.CacheStats(); cs.TokenMisses == 0 {
		t.Fatalf("cold run tokenized nothing: %+v", cs)
	}

	warm, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r2 := runTasks(context.Background(), warm, []engine.Task{{Input: in}})[0]
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !reflect.DeepEqual(r2.Seg, r1.Seg) {
		t.Error("warm-cache segmentation differs from cold run")
	}
	cs := warm.CacheStats()
	if cs.TokenMisses != 0 {
		t.Errorf("warm run re-tokenized %d pages, want 0", cs.TokenMisses)
	}
	wantLookups := int64(len(in.ListPages) + len(in.DetailPages))
	if cs.TokenHits != wantLookups {
		t.Errorf("warm run TokenHits = %d, want %d", cs.TokenHits, wantLookups)
	}
	if cs.TemplateHits != 1 || cs.TemplateMisses != 0 {
		t.Errorf("warm run template = %d/%d hits/misses, want 1/0", cs.TemplateHits, cs.TemplateMisses)
	}
	// Per-tier: the fresh memory tier misses everything; the disk tier
	// serves every lookup (tokens + template) without a single miss.
	mem := tierByName(t, cs, "memory")
	disk := tierByName(t, cs, "disk")
	if disk.Misses != 0 || disk.Hits != wantLookups+1 {
		t.Errorf("disk tier = %d/%d hits/misses, want %d/0", disk.Hits, disk.Misses, wantLookups+1)
	}
	if mem.Hits != 0 || mem.Misses != wantLookups+1 {
		t.Errorf("memory tier = %d/%d hits/misses, want 0/%d", mem.Hits, mem.Misses, wantLookups+1)
	}
}

// TestEngineResumeSkipsFinishedTasks is the checkpoint contract: a
// second engine over the same store with Resume answers every already-
// journaled task from the journal — no pipeline stage runs — with
// results deeply equal to the first run's.
func TestEngineResumeSkipsFinishedTasks(t *testing.T) {
	dir := t.TempDir()
	inputs := corpusInputs(t)[:6]

	first, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 2, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	res1 := runTasks(context.Background(), first, tasksFor(inputs))

	second, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 2, CacheDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	res2 := runTasks(context.Background(), second, tasksFor(inputs))
	for i := range res2 {
		if res1[i].Err != nil || res2[i].Err != nil {
			t.Fatalf("task %d: errs %v / %v", i, res1[i].Err, res2[i].Err)
		}
		if !res2[i].Stats.ResultCacheHit {
			t.Errorf("task %d: not answered from the journal", i)
		}
		if !reflect.DeepEqual(res2[i].Seg, res1[i].Seg) {
			t.Errorf("task %d: resumed segmentation differs", i)
		}
	}
	cs := second.CacheStats()
	if cs.ResultHits != int64(len(inputs)) || cs.ResultMisses != 0 {
		t.Errorf("resume journal = %d/%d hits/misses, want %d/0", cs.ResultHits, cs.ResultMisses, len(inputs))
	}
	if cs.TokenHits+cs.TokenMisses != 0 {
		t.Errorf("resumed batch touched the token cache %d times, want 0", cs.TokenHits+cs.TokenMisses)
	}
}

// TestEngineResumeProbabilistic pins the documented PHMM exclusion:
// resumed probabilistic results drop the diagnostic model but match
// every output-bearing field.
func TestEngineResumeProbabilistic(t *testing.T) {
	dir := t.TempDir()
	in := siteInput(t, "allegheny", 0)
	opts := core.DefaultOptions(core.Probabilistic)

	first, err := engine.New(engine.Config{Options: opts, Concurrency: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r1 := runTasks(context.Background(), first, []engine.Task{{Input: in}})[0]
	if r1.Err != nil {
		t.Fatal(r1.Err)
	}
	if r1.Seg.PHMM == nil {
		t.Fatal("fresh probabilistic run carries no PHMM diagnostic")
	}

	second, err := engine.New(engine.Config{Options: opts, Concurrency: 1, CacheDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	r2 := runTasks(context.Background(), second, []engine.Task{{Input: in}})[0]
	if r2.Err != nil {
		t.Fatal(r2.Err)
	}
	if !r2.Stats.ResultCacheHit {
		t.Fatal("second run did not resume from the journal")
	}
	if r2.Seg.PHMM != nil {
		t.Error("resumed result carries a PHMM diagnostic (not journaled)")
	}
	want := *r1.Seg
	want.PHMM = nil
	if !reflect.DeepEqual(*r2.Seg, want) {
		t.Error("resumed segmentation differs beyond the PHMM field")
	}
}

// TestEngineResumeReplaysTypedErrors verifies that deterministic
// diagnostic failures are journaled and replayed with the identical
// message and sentinel, while the journal never captures cancellations.
func TestEngineResumeReplaysTypedErrors(t *testing.T) {
	dir := t.TempDir()
	in := siteInput(t, "allegheny", 0)
	in.DetailPages = nil // no detail pages: typed diagnostic error

	first, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	r1 := runTasks(context.Background(), first, []engine.Task{{Input: in}})[0]
	if !errors.Is(r1.Err, core.ErrNoDetailPages) {
		t.Fatalf("err = %v, want ErrNoDetailPages", r1.Err)
	}

	second, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 1, CacheDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	r2 := runTasks(context.Background(), second, []engine.Task{{Input: in}})[0]
	if !r2.Stats.ResultCacheHit {
		t.Fatal("typed error was not journaled")
	}
	if !errors.Is(r2.Err, core.ErrNoDetailPages) {
		t.Errorf("resumed err = %v, does not unwrap to the sentinel", r2.Err)
	}
	if r2.Err.Error() != r1.Err.Error() {
		t.Errorf("resumed message %q != original %q", r2.Err, r1.Err)
	}

	// A cancelled task must not be journaled: resuming after a
	// cancellation recomputes.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	good := siteInput(t, "butler", 0)
	if r := runTasks(ctx, second, []engine.Task{{Input: good}})[0]; !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("cancelled task err = %v", r.Err)
	}
	if r := runTasks(context.Background(), second, []engine.Task{{Input: good}})[0]; r.Err != nil {
		t.Fatalf("recompute after cancellation: %v", r.Err)
	} else if r.Stats.ResultCacheHit {
		t.Error("cancellation was journaled as a result")
	}
}

// TestEngineResumeKeysOnOptions verifies the journal key covers the
// effective options: the same input under different options is a
// journal miss, never a cross-method replay.
func TestEngineResumeKeysOnOptions(t *testing.T) {
	dir := t.TempDir()
	in := siteInput(t, "allegheny", 0)

	first, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 1, CacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if r := runTasks(context.Background(), first, []engine.Task{{Input: in}})[0]; r.Err != nil {
		t.Fatal(r.Err)
	}

	second, err := engine.New(engine.Config{Options: core.DefaultOptions(core.Probabilistic), Concurrency: 1, CacheDir: dir, Resume: true})
	if err != nil {
		t.Fatal(err)
	}
	r := runTasks(context.Background(), second, []engine.Task{{Input: in}})[0]
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.Stats.ResultCacheHit {
		t.Error("journal replayed a result across differing options")
	}
	if r.Seg.Method != core.Probabilistic {
		t.Errorf("method = %v, want Probabilistic", r.Seg.Method)
	}
}

// TestEngineCacheStatsConcurrentAccuracy is the counter-accuracy
// contract under contention: with many workers racing over shared
// pages, the aggregate counters equal the sum of per-task counters,
// and every engine-level lookup maps to exactly one store-tier lookup
// (hits + misses sum to lookups). Run under -race in CI.
func TestEngineCacheStatsConcurrentAccuracy(t *testing.T) {
	inputs := corpusInputs(t)
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Three interleaved copies of the corpus maximize cross-task
	// sharing of sites and detail pages.
	var tasks []engine.Task
	for round := 0; round < 3; round++ {
		tasks = append(tasks, tasksFor(inputs)...)
	}
	results := runTasks(context.Background(), eng, tasks)
	var taskHits, taskMisses int64
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("task %d: %v", r.Index, r.Err)
		}
		taskHits += int64(r.Stats.TokenCacheHits)
		taskMisses += int64(r.Stats.TokenCacheMisses)
	}
	cs := eng.CacheStats()
	if cs.TokenHits != taskHits || cs.TokenMisses != taskMisses {
		t.Errorf("aggregate token counters %d/%d != per-task sums %d/%d",
			cs.TokenHits, cs.TokenMisses, taskHits, taskMisses)
	}
	if cs.TemplateHits+cs.TemplateMisses != int64(len(tasks)) {
		t.Errorf("template lookups = %d, want one per task (%d)",
			cs.TemplateHits+cs.TemplateMisses, len(tasks))
	}
	// Every engine-level lookup performs exactly one store Get, so the
	// single memory tier's hits+misses must equal the engine totals.
	lookups := cs.TokenHits + cs.TokenMisses + cs.TemplateHits + cs.TemplateMisses +
		cs.ResultHits + cs.ResultMisses
	mem := tierByName(t, cs, "memory")
	if mem.Hits+mem.Misses != lookups {
		t.Errorf("memory tier saw %d lookups, engine counted %d", mem.Hits+mem.Misses, lookups)
	}
}

// keyRecorder is a store that records every key the engine looks up.
type keyRecorder struct {
	artifact.Store
	mu   sync.Mutex
	gets []artifact.Key
}

func (r *keyRecorder) Get(k artifact.Key) ([]byte, bool) {
	r.mu.Lock()
	r.gets = append(r.gets, k)
	r.mu.Unlock()
	return r.Store.Get(k)
}

// lookups runs one task per input, in order, on a fresh engine over a
// recording store and returns the keys of the given kind it looked up.
func lookups(t *testing.T, kind artifact.Kind, inputs ...core.Input) []artifact.Key {
	t.Helper()
	rec := &keyRecorder{Store: artifact.NewMemory(0)}
	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.CSP), Concurrency: 1, Store: rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range inputs {
		runTasks(context.Background(), eng, []engine.Task{{Input: in}})
	}
	var keys []artifact.Key
	for _, k := range rec.gets {
		if k.Kind == kind {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestEngineTokenKeyIsPageDigest pins the token key to the SHA-256 of
// the page's HTML, the value older builds wrote to the disk tier, so
// their token artifacts keep hitting.
func TestEngineTokenKeyIsPageDigest(t *testing.T) {
	in := siteInput(t, "allegheny", 0)
	want := map[[sha256.Size]byte]bool{}
	for _, p := range append(slices.Clone(in.ListPages), in.DetailPages...) {
		want[sha256.Sum256([]byte(p.HTML))] = true
	}
	got := map[[sha256.Size]byte]bool{}
	for _, k := range lookups(t, artifact.KindTokens, in) {
		if k.Version != stage.CodecVersion {
			t.Errorf("token key version %d, want %d", k.Version, stage.CodecVersion)
		}
		got[k.Hash] = true
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("token keys are not the pages' SHA-256 digests: got %d keys, want %d", len(got), len(want))
	}
}

// TestEngineTemplateKeyFollowsListBytes pins what the template key
// depends on: the list pages' bytes and their order, and nothing else.
func TestEngineTemplateKeyFollowsListBytes(t *testing.T) {
	in := siteInput(t, "allegheny", 0)
	withLists := func(lists ...string) core.Input {
		out := in
		out.ListPages = make([]core.Page, len(lists))
		for i, html := range lists {
			out.ListPages[i] = core.Page{Name: fmt.Sprintf("list-%d", i), HTML: html}
		}
		return out
	}
	a, b := in.ListPages[0].HTML, in.ListPages[1].HTML
	cases := []struct {
		name string
		in   core.Input
		same bool
	}{
		{"renamed list pages", withLists(a, b), true},
		{"other target and detail pages", siteInput(t, "allegheny", 1), true},
		{"list pages swapped", withLists(b, a), false},
		{"list page edited", withLists(a+" ", b), false},
		{"byte moved across the list-page boundary", withLists(a[:len(a)-1], a[len(a)-1:]+b), false},
		{"list page dropped", withLists(a), false},
	}
	inputs := []core.Input{in}
	for _, c := range cases {
		inputs = append(inputs, c.in)
	}
	keys := lookups(t, artifact.KindTemplate, inputs...)
	if len(keys) != len(inputs) {
		t.Fatalf("%d template lookups for %d tasks", len(keys), len(inputs))
	}
	for i, c := range cases {
		if same := keys[i+1] == keys[0]; same != c.same {
			t.Errorf("%s: template key unchanged = %v, want %v", c.name, same, c.same)
		}
	}
}
