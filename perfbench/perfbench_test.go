package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"tableseg"
	"tableseg/internal/core"
	"tableseg/internal/engine"
	"tableseg/internal/sitegen"
)

func TestQuantileKeepsTenBeyond(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // unsorted on purpose
		}
		return s
	}
	cases := []struct {
		n          int
		p          float64
		want       float64
		wantBeyond int
	}{
		{100, p90, 90, 10},
		{99, p90, 90, 9}, // fewer than minBeyond beyond: unsupported
		{120, p90, 108, 12},
		{100, 0.5, 50, 50},
		{1, p90, 1, 0},
	}
	for _, c := range cases {
		got, beyond := quantile(samples(c.n), c.p)
		if got != c.want || beyond != c.wantBeyond {
			t.Errorf("quantile(n=%d, p=%v) = %v, %d beyond; want %v, %d", c.n, c.p, got, beyond, c.want, c.wantBeyond)
		}
	}
	if v, n := quantile(nil, p90); v != 0 || n != 0 {
		t.Errorf("quantile(nil) = %v, %d", v, n)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v", got)
	}
}

func TestPerPageNormalisation(t *testing.T) {
	byMethod := map[core.Method]*totals{}
	for _, m := range methods {
		byMethod[m] = &totals{}
	}
	// Three phases: 4 pages in 1 s with 8 MB, 4 pages in 2 s with 4 MB,
	// 2 pages in 1 s with 10 MB: rates of 4, 2 and 2 pages/s.
	byMethod[core.Probabilistic].add([]float64{1, 2, 3, 4}, time.Second, 8*mb)
	byMethod[core.Probabilistic].add([]float64{5, 6, 7, 8}, 2*time.Second, 4*mb)
	byMethod[core.Probabilistic].add([]float64{9, 10}, time.Second, 10*mb)
	byMethod[core.CSP].add([]float64{10}, 4*time.Second, 0)
	got := map[string]float64{}
	for _, m := range endToEnd([]float64{3, 1, 2}, byMethod, 3*mb) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"setup_s":                2,   // the median of the set-ups, not their mean
		"pages_per_s.prob":       2,   // median phase, not 10 pages / 4 s
		"alloc_mb_per_page.prob": 2.2, // 22 MB over 10 pages
		"page_ms_p50.prob":       5,
		"page_ms_p90.prob":       9,
		"pages_per_s.csp":        0.25,
		"alloc_mb_per_page.csp":  0,
		"heap_mb":                3,
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if perPage(5, 0) != 0 || ratio(1, 0) != 0 {
		t.Error("empty bases must read 0, not NaN or Inf")
	}
}

func TestLatencyIsOverEveryPage(t *testing.T) {
	var tot totals
	// Ten phases of 40 pages, 1 to 40 ms each, except phase 4, where
	// every page took 100 ms: p50 and p90 rank all 400 pages together.
	for i := 0; i < 10; i++ {
		lat := make([]float64, 40)
		for j := range lat {
			lat[j] = float64(j + 1)
			if i == 3 {
				lat[j] = 100
			}
		}
		tot.add(lat, time.Second, 0)
	}
	if tot.pages() != 400 {
		t.Fatalf("%d pages, want 400", tot.pages())
	}
	// 360 pages of 1-40 ms (9 each) and 40 of 100 ms: rank 200 is 23
	// ms, rank 360 is the last 40 ms page.
	if got := tot.latency(0.5); got != 23 {
		t.Errorf("p50 = %v, want 23", got)
	}
	if got := tot.latency(p90); got != 40 {
		t.Errorf("p90 = %v, want 40", got)
	}
	if !strings.Contains(sampleLine(map[core.Method]*totals{core.Probabilistic: &tot, core.CSP: {}}), "prob=400 pages (40 beyond p90)") {
		t.Error("sample line does not count the pages beyond p90")
	}
}

func TestSpeedScalesToReference(t *testing.T) {
	// A host half as fast as the reference: the reference loop read 14
	// ms before the phase and 14 ms after it, against a nominal 7.
	slow := speedOf(2*refNominalMs, 2*refNominalMs)
	if slow != 0.5 {
		t.Fatalf("speed = %v, want 0.5", slow)
	}
	if got := slow.dur(2 * time.Second); got != time.Second {
		t.Errorf("2 s at half speed scales to %v, want 1s", got)
	}
	if got := slow.lat([]float64{10, 20}); got[0] != 5 || got[1] != 10 {
		t.Errorf("latencies scale to %v, want [5 10]", got)
	}
	// The same phase on a host at reference speed and on one at half of
	// it, where every page and the phase take twice as long, reports the
	// same figures.
	var fast, halved totals
	at := speedOf(refNominalMs, refNominalMs)
	fast.add(at.lat([]float64{4, 8, 12, 16}), at.dur(time.Second), 0)
	halved.add(slow.lat([]float64{8, 16, 24, 32}), slow.dur(2*time.Second), 0)
	if fast.pagesPerSec() != 4 || halved.pagesPerSec() != 4 || fast.latency(0.5) != 8 || halved.latency(0.5) != 8 {
		t.Errorf("pages/s %v and %v, p50 %v and %v; want 4 and 8 for both",
			fast.pagesPerSec(), halved.pagesPerSec(), fast.latency(0.5), halved.latency(0.5))
	}
	// Uneven readings: the mean of the two is the phase's.
	if got := speedOf(refNominalMs/2, 3*refNominalMs/2); got != 1 {
		t.Errorf("speed of readings around the nominal = %v, want 1", got)
	}
}

func TestReferenceLoopAllocatesNothing(t *testing.T) {
	l := newRefLoop()
	if n := testing.AllocsPerRun(3, l.pass); n != 0 {
		t.Errorf("a reference pass allocates %v times", n)
	}
	if r := newReference(2).reading(); r <= 0 {
		t.Errorf("reading = %v ms", r)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := interval{0, 100}
	cases := []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {30, 50}}, 70},
		{"overlapping", []interval{{10, 40}, {30, 60}, {35, 45}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}}, 20},
		{"clipped to parent", []interval{{-20, 10}, {95, 130}}, 85},
		{"unsorted", []interval{{60, 70}, {0, 10}, {5, 15}}, 75},
		{"outside", []interval{{100, 120}, {-5, 0}}, 100},
	}
	for _, c := range cases {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestLayerMetricsAttributesSpansToTasks(t *testing.T) {
	// One CSP task from 0 to 100 ns with a 90 ns engine wall: a template
	// miss (10-40) that tokenized a list page (15-25), then Tokenize
	// (40-50), Observe (50-70) and Segment (70-90). Spans of another
	// task must not leak in.
	in := layerInput{
		tasks: []taskRec{{id: 1, method: core.CSP, start: 0, end: 100, wall: 90, restarts: 2, extracts: 2}},
		spans: []span{
			{kind: spanTemplate, task: 1, start: 10, end: 40},
			{kind: spanTokens, task: 1, start: 15, end: 25, bytes: 1000},
			{kind: "Tokenize", task: 1, start: 40, end: 50},
			{kind: "Observe", task: 1, start: 50, end: 70},
			{kind: "Segment", task: 1, start: 70, end: 90},
			{kind: "Segment", task: 2, start: 0, end: 1000},
		},
	}
	got := map[string]float64{}
	for _, m := range layerMetrics(in) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"pagetemplate.ms_per_site": 20e-6, // 30 ns minus the 10 ns token span
		"token.ms_per_page":        10e-6, // 10 ns
		"csp.ms_per_page":          20e-6, // task 2's Segment is not ours
		"csp.ms_per_restart":       10e-6, // 20 ns over 2 restarts
		"engine.self_ms_per_page":  10e-6, // 90 ns wall minus 80 ns of children
		"engine.queue_ms":          10e-6, // 100 ns hand-off to result minus the wall
		"extract.retry_ratio":      1,     // a second Extract call
		"token.mb_per_s":           1000 / 1e6 / 10e-9,
	}
	for name, w := range want {
		if d := got[name] - w; d > 1e-9*w || d < -1e-9*w {
			t.Errorf("%s = %v, want %v", name, got[name], w)
		}
	}
	if s := shares(in); !strings.Contains(s, "front end 66.7% of csp task time") {
		t.Errorf("shares line %q", s)
	}
}

func TestStealRepeatsAreBounded(t *testing.T) {
	capacityMs := 1000 * float64(runtime.NumCPU()) // of a one-second measurement
	calm := hostDelta{wall: time.Second, stealMs: 0.005 * capacityMs}
	stolen := hostDelta{wall: time.Second, stealMs: 0.05 * capacityMs}
	for _, c := range []struct {
		name string
		d    hostDelta
		want bool
	}{
		{"calm host", calm, false},
		{"burst of steal", stolen, true},
		{"one tick is below the counter's resolution", hostDelta{wall: 10 * time.Millisecond, stealMs: 10}, false},
		{"steal unreadable", hostDelta{wall: time.Second, stealMs: -1}, false},
	} {
		if got := c.d.disturbed(); got != c.want {
			t.Errorf("%s: disturbed = %t, want %t", c.name, got, c.want)
		}
	}

	r := &run{repeatBudget: 5}
	tries := 1
	for r.again(stolen, tries) {
		tries++
	}
	if tries != maxTries || r.repeats != maxTries-1 {
		t.Errorf("one measurement took %d tries and %d repeats, want %d tries", tries, r.repeats, maxTries)
	}
	if r.again(calm, 1) {
		t.Error("a calm measurement was repeated")
	}
	for r.again(stolen, 1) {
	}
	if r.repeats != r.repeatBudget {
		t.Errorf("%d repeats spent of a budget of %d", r.repeats, r.repeatBudget)
	}
}

func TestBoilerplateIsDeterministicPerSeed(t *testing.T) {
	h1, t1 := boilerplate(7, boilerplateBytes)
	h2, t2 := boilerplate(7, boilerplateBytes)
	if h1 != h2 || t1 != t2 {
		t.Fatal("same seed gave different boilerplate")
	}
	h3, _ := boilerplate(8, boilerplateBytes)
	if h3 == h1 {
		t.Fatal("different seeds gave the same boilerplate")
	}
	if n := len(h1) + len(t1); n < boilerplateBytes || n > boilerplateBytes+boilerplateBytes/10 {
		t.Errorf("boilerplate is %d bytes, want about %d", n, boilerplateBytes)
	}
	page := wrapPage("<html><body>\n<p>x</p>\n</body></html>\n", h1, t1)
	if !strings.HasPrefix(page, "<html><body>"+h1) || !strings.HasSuffix(page, t1+"</body></html>\n") {
		t.Error("boilerplate not placed inside the body")
	}
	a, b := bulkyJobs(3), bulkyJobs(3)
	if len(a) != 16 || a[5].in.DetailPages[3].HTML != b[5].in.DetailPages[3].HTML {
		t.Error("bulky inputs are not deterministic per seed")
	}
}

func TestRequestBodyIsWhatTheClientSends(t *testing.T) {
	j := bulkyJobs(3)[0]
	fields, err := encodeFields(j)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range methods {
		for _, traced := range []bool{false, true} {
			rq := &request{job: j, method: m, fields: fields}
			head, f, tail := rq.body(traced)
			got := head + string(f) + tail
			req := segmentRequest(j)
			req.Method, req.WantStats = m.String(), traced
			want, err := json.Marshal(req)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("%s traced=%t: body is not json.Marshal of the request", suffix(m), traced)
			}
			if rq.bodyLen(traced) != len(want) {
				t.Errorf("%s traced=%t: bodyLen %d, body has %d bytes", suffix(m), traced, rq.bodyLen(traced), len(want))
			}
		}
	}
	if strings.Contains(string(fields), "<") || !strings.Contains(string(fields), `\u003c`) {
		t.Error("HTML in the body is not escaped")
	}
}

func TestOnlyPipelineDiagnosticsAreResults(t *testing.T) {
	for _, err := range []error{tableseg.ErrNoTableSlot, tableseg.ErrNoDetailEvidence, tableseg.ErrCSPUnsatisfiable} {
		if !isDiagnostic(fmt.Errorf("site: %w", err)) {
			t.Errorf("%v is a pipeline diagnostic", err)
		}
	}
	for _, err := range []error{tableseg.ErrTooFewListPages, tableseg.ErrNoDetailPages, tableseg.ErrBadTarget, errors.New("boom")} {
		if isDiagnostic(fmt.Errorf("site: %w", err)) {
			t.Errorf("%v must fail the run, not count as a result", err)
		}
	}
}

func TestTable4CheckFailsOnChangedSegmentations(t *testing.T) {
	jobs := corpusJobs(table4Seed)
	results := map[core.Method][]engine.Result{}
	for _, m := range methods {
		for _, j := range jobs {
			seg, err := tableseg.Segment(j.in, core.DefaultOptions(m))
			results[m] = append(results[m], engine.Result{Seg: seg, Err: err})
		}
	}
	r := newRun(config{root: ".."})
	if err := r.checkTable4(table4Seed, jobs, results); err != nil || r.failed != 0 || r.attempted != 2 {
		t.Fatalf("Table 4 corpus: err %v, %d of %d checks failed: %v", err, r.failed, r.attempted, r.problems)
	}
	// Drop one record of one page: the CSP totals no longer match.
	seg := *results[core.CSP][0].Seg
	seg.Records = seg.Records[1:]
	results[core.CSP][0].Seg = &seg
	r = newRun(config{root: ".."})
	if err := r.checkTable4(table4Seed, jobs, results); err != nil || r.failed != 1 {
		t.Errorf("changed segmentation: err %v, %d checks failed, want 1", err, r.failed)
	}
	// Passes at other seeds are not scored.
	r = newRun(config{root: ".."})
	if err := r.checkTable4(table4Seed+1, jobs, results); err != nil || r.attempted != 0 {
		t.Errorf("seed %d: err %v, %d checks attempted, want 0", table4Seed+1, err, r.attempted)
	}
}

func TestTable4Totals(t *testing.T) {
	got, err := table4Totals("..")
	if err != nil {
		t.Fatal(err)
	}
	// Every record of the 24 pages is counted once per method.
	records := 0
	for _, p := range sitegen.Profiles() {
		records += p.RecordsPerList[0] + p.RecordsPerList[1]
	}
	for _, m := range methods {
		if c := got[m]; c.Total() != records {
			t.Errorf("%s: %+v covers %d records, want %d", suffix(m), c, c.Total(), records)
		}
	}
}

// TestSmokeAllWorkloads runs every workload at minimal size, untraced
// and traced, and checks that each prints every metric BENCHMARK.json
// names for its mode, with its unit, and passes its output checks. The
// seed is not 42, so paper-corpus must still score its Table 4 set-up.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		for _, traced := range []bool{false, true} {
			want := bench.EndToEnd
			if traced {
				want = bench.PerLayer
			}
			var out bytes.Buffer
			cfg := config{workload: w.Name, seed: 1, seconds: 1, trace: traced, root: "..", workers: 2, passes: 1, setups: 1, stdout: &out}
			r := newRun(cfg)
			if err := workloads[w.Name](r); err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, traced, err)
			}
			if err := r.finish(); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s trace=%t: last line is not a report: %v", w.Name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d: %v", w.Name, traced, rep.Correct, rep.Attempted, rep.Failed, r.problems)
			}
			if scored := strings.Contains(out.String(), "table4: pass at seed 42 reproduces results/table4.txt totals: true"); scored != (w.Name == "paper-corpus") {
				t.Errorf("%s trace=%t: Table 4 scored %t", w.Name, traced, scored)
			}
			if len(rep.Metrics) != len(want) {
				t.Errorf("%s trace=%t: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(rep.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := rep.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%t: metric %s printed as %+v (present %t), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}
