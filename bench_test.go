package tableseg

// The benchmark harness regenerates every table and figure of the
// paper's evaluation (see DESIGN.md's per-experiment index):
//
//	go test -bench=. -benchmem
//
// Benchmarks named BenchmarkTableN / BenchmarkFigureN correspond to the
// paper's artifacts; BenchmarkPerPageLatency checks §6.1's "the
// algorithms took only a few seconds per page"; BenchmarkAblation*
// exercises the DESIGN.md ablations.

import (
	"context"
	"testing"

	"tableseg/internal/classify"
	"tableseg/internal/core"
	"tableseg/internal/csp"
	"tableseg/internal/engine"
	"tableseg/internal/experiments"
	"tableseg/internal/extract"
	"tableseg/internal/pagetemplate"
	"tableseg/internal/phmm"
	"tableseg/internal/sitegen"
	"tableseg/internal/token"
	"tableseg/internal/wrapper"
)

// workedExample tokenizes the §3 Superpages example once.
func workedExample(b *testing.B) (list []token.Token, details [][]token.Token) {
	b.Helper()
	listHTML, detailHTML := experiments.ExamplePages()
	list = token.Tokenize(listHTML)
	for _, d := range detailHTML {
		details = append(details, token.Tokenize(d))
	}
	return list, details
}

// BenchmarkTable1ObservationMatrix measures building the Table 1
// observation matrix (extract matching across detail pages).
func BenchmarkTable1ObservationMatrix(b *testing.B) {
	list, details := workedExample(b)
	ex := extract.Split(list, 0, len(list))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		obs := extract.Observe(ex, details, nil)
		if len(obs) != len(ex) {
			b.Fatal("bad observation count")
		}
	}
}

// BenchmarkTable2Assignment measures the §4 CSP solve that produces the
// Table 2 record assignment.
func BenchmarkTable2Assignment(b *testing.B) {
	ex := benchExample(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, _ := csp.SolveSegmentationContext(context.Background(), ex.Input, csp.SolveParams{})
		if res.Status != csp.Solved {
			b.Fatalf("status %v", res.Status)
		}
	}
}

// BenchmarkTable3Positions measures the position-index construction
// behind Table 3.
func BenchmarkTable3Positions(b *testing.B) {
	list, details := workedExample(b)
	ex := extract.Split(list, 0, len(list))
	obs := extract.Observe(ex, details, nil)
	analyzed := extract.InformativeSubset(obs, len(details))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groups := extract.PositionGroups(obs, analyzed, len(details))
		if len(groups) == 0 {
			b.Fatal("no position groups")
		}
	}
}

// BenchmarkTable4Probabilistic regenerates the probabilistic column of
// Table 4 (12 sites, 24 list pages).
func BenchmarkTable4Probabilistic(b *testing.B) {
	benchTable4(b, core.Probabilistic)
}

// BenchmarkTable4CSP regenerates the CSP column of Table 4.
func BenchmarkTable4CSP(b *testing.B) {
	benchTable4(b, core.CSP)
}

func benchTable4(b *testing.B, method core.Method) {
	type page struct {
		in core.Input
	}
	var pages []page
	for _, p := range sitegen.Profiles() {
		site := sitegen.Generate(p, experiments.DefaultSeed)
		for pageIdx := range site.Lists {
			pages = append(pages, page{in: experiments.BuildInput(site, pageIdx)})
		}
	}
	opts := core.DefaultOptions(method)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pg := range pages {
			if _, err := core.SegmentContext(context.Background(), pg.in, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkEngineThroughput compares serial Segment calls against the
// batch engine over the full 24-page corpus (probabilistic method).
// The engine's edge comes from the worker pool plus the per-site
// template/token cache; on 4+ cores it should exceed 1.5x the serial
// throughput.
func BenchmarkEngineThroughput(b *testing.B) {
	var inputs []core.Input
	for _, p := range sitegen.Profiles() {
		site := sitegen.Generate(p, experiments.DefaultSeed)
		for pageIdx := range site.Lists {
			inputs = append(inputs, experiments.BuildInput(site, pageIdx))
		}
	}
	opts := core.DefaultOptions(core.Probabilistic)
	pages := int64(len(inputs))
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, in := range inputs {
				if _, err := core.SegmentContext(context.Background(), in, opts); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(pages)/b.Elapsed().Seconds(), "pages/s")
	})
	b.Run("engine", func(b *testing.B) {
		eng, err := engine.New(engine.Config{Options: opts})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tasks := make(chan engine.Task, len(inputs))
			for _, in := range inputs {
				tasks <- engine.Task{Input: in}
			}
			close(tasks)
			for r := range eng.Stream(context.Background(), tasks) {
				if r.Err != nil {
					b.Fatal(r.Err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(pages)/b.Elapsed().Seconds(), "pages/s")
	})
}

// BenchmarkPerPageLatency measures one representative list page per
// method — the paper's §6.1 claim is "a few seconds to run in all
// cases" on 2004 hardware.
func BenchmarkPerPageLatency(b *testing.B) {
	site := sitegen.Generate(mustProfile(b, "allegheny"), experiments.DefaultSeed)
	in := experiments.BuildInput(site, 0)
	for _, m := range []core.Method{core.Probabilistic, core.CSP} {
		opts := core.DefaultOptions(m)
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SegmentContext(context.Background(), in, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func mustProfile(b *testing.B, slug string) sitegen.Profile {
	b.Helper()
	p, err := sitegen.ProfileBySlug(slug)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// phmmInstance builds a representative learning instance (20 records x
// 4 fields).
func phmmInstance() phmm.Instance {
	types := []token.Type{
		token.TypeOf("John") | token.TypeOf("Smith"),
		token.TypeOf("221") | token.TypeOf("Washington"),
		token.TypeOf("Findlay,") | token.TypeOf("OH"),
		token.TypeOf("(740)") | token.TypeOf("335-5555"),
	}
	var inst phmm.Instance
	inst.NumRecords = 20
	for r := 0; r < 20; r++ {
		for f := 0; f < 4; f++ {
			inst.TypeVecs = append(inst.TypeVecs, types[f].Vector())
			inst.Candidates = append(inst.Candidates, []int{r})
		}
	}
	return inst
}

// BenchmarkFigure2Model measures EM inference under the flat-hazard
// model of Figure 2 (no period model).
func BenchmarkFigure2Model(b *testing.B) {
	inst := phmmInstance()
	params := phmm.DefaultParams()
	params.PeriodModel = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phmm.SegmentContext(context.Background(), inst, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure3PeriodModel measures EM inference with the explicit
// record-period model of Figure 3.
func BenchmarkFigure3PeriodModel(b *testing.B) {
	inst := phmmInstance()
	params := phmm.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := phmm.SegmentContext(context.Background(), inst, params); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationRelaxation measures the CSP with and without the
// relaxation ladder on the dirtiest site.
func BenchmarkAblationRelaxation(b *testing.B) {
	site := sitegen.Generate(mustProfile(b, "canada411"), experiments.DefaultSeed)
	in := experiments.BuildInput(site, 1)
	for _, noRelax := range []bool{false, true} {
		name := "ladder"
		if noRelax {
			name = "strict-only"
		}
		opts := core.DefaultOptions(core.CSP)
		opts.CSPParams.NoRelax = noRelax
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SegmentContext(context.Background(), in, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationEpsilon measures the probabilistic method under hard
// vs soft detail-page evidence on a dirty site.
func BenchmarkAblationEpsilon(b *testing.B) {
	site := sitegen.Generate(mustProfile(b, "michigan"), experiments.DefaultSeed)
	in := experiments.BuildInput(site, 1)
	for _, eps := range []float64{1e-12, 1e-3} {
		name := "soft"
		if eps < 1e-6 {
			name = "near-hard"
		}
		opts := core.DefaultOptions(core.Probabilistic)
		opts.PHMMParams.Epsilon = eps
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SegmentContext(context.Background(), in, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkTokenize measures the shared tokenizer front end on a full
// generated list page.
func BenchmarkTokenize(b *testing.B) {
	site := sitegen.Generate(mustProfile(b, "allegheny"), experiments.DefaultSeed)
	html := site.Lists[0].HTML
	b.SetBytes(int64(len(html)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if toks := token.Tokenize(html); len(toks) == 0 {
			b.Fatal("no tokens")
		}
	}
}

// BenchmarkTemplateInduction measures §3.1 template finding over the
// two sample pages of a site.
func BenchmarkTemplateInduction(b *testing.B) {
	site := sitegen.Generate(mustProfile(b, "allegheny"), experiments.DefaultSeed)
	pages := [][]token.Token{
		token.Tokenize(site.Lists[0].HTML),
		token.Tokenize(site.Lists[1].HTML),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpl := pagetemplate.Induce(pages)
		if len(tpl.Skeleton) == 0 {
			b.Fatal("empty skeleton")
		}
	}
}

// BenchmarkWSAT measures the raw local-search solver on the worked
// example's constraint problem.
func BenchmarkWSAT(b *testing.B) {
	ex := benchExample(b)
	enc := csp.Encode(ex.Input, csp.Strict)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, _ := csp.SolveWSATContext(context.Background(), enc.Problem, csp.WSATParams{Seed: int64(i)})
		if !sol.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkExactSolver measures the complete DFS solver on the worked
// example (UNSAT certification path).
func BenchmarkExactSolver(b *testing.B) {
	ex := benchExample(b)
	enc := csp.Encode(ex.Input, csp.Strict)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, sat, err := csp.SolveExact(context.Background(), enc.Problem); err != nil || !sat {
			b.Fatalf("sat=%v err=%v", sat, err)
		}
	}
}

// BenchmarkPHMMSegment measures one whole probabilistic segmentation
// of a 20-record instance: the EM fit to convergence plus the MAP
// decode (BenchmarkSolverEMIteration times one EM iteration alone).
func BenchmarkPHMMSegment(b *testing.B) {
	inst := phmmInstance()
	params := phmm.DefaultParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := phmm.SegmentContext(context.Background(), inst, params)
		if err != nil || len(res.Records) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkClassification measures detail-page identification over one
// site's linked pages (§6.1 extension).
func BenchmarkClassification(b *testing.B) {
	site := sitegen.Generate(mustProfile(b, "allegheny"), experiments.DefaultSeed)
	var linked [][]token.Token
	for _, d := range site.Lists[0].Details {
		linked = append(linked, token.Tokenize(d))
	}
	for _, a := range site.Lists[0].Ads {
		linked = append(linked, token.Tokenize(a))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sel := classify.DetailPages(linked, 0); len(sel) == 0 {
			b.Fatal("no selection")
		}
	}
}

// BenchmarkWrapperTransfer measures wrapper learning plus application
// to a fresh page (the post-segmentation fast path).
func BenchmarkWrapperTransfer(b *testing.B) {
	site := sitegen.Generate(mustProfile(b, "butler"), experiments.DefaultSeed)
	in := experiments.BuildInput(site, 0)
	seg, err := core.SegmentContext(context.Background(), in, core.DefaultOptions(core.Probabilistic))
	if err != nil {
		b.Fatal(err)
	}
	page0 := token.Tokenize(site.Lists[0].HTML)
	page1 := token.Tokenize(site.Lists[1].HTML)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := wrapper.Learn(page0, seg)
		if err != nil {
			b.Fatal(err)
		}
		if got := w.Extract(page1); len(got.Records) == 0 {
			b.Fatal("no records")
		}
	}
}

// BenchmarkLargePage stresses the full pipeline on a 200-record list
// page (an order of magnitude beyond the paper's pages) to demonstrate
// the pipeline's scaling headroom.
func BenchmarkLargePage(b *testing.B) {
	profile := sitegen.Profile{
		Name: "Large Scale County", Slug: "largescale",
		Domain: sitegen.PropertyTax, Layout: sitegen.Grid,
		RecordsPerList: [2]int{200, 200},
	}
	site := sitegen.Generate(profile, experiments.DefaultSeed)
	in := experiments.BuildInput(site, 0)
	for _, m := range []core.Method{core.Probabilistic, core.CSP} {
		opts := core.DefaultOptions(m)
		b.Run(m.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				seg, err := core.SegmentContext(context.Background(), in, opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(seg.Records) != 200 {
					b.Fatalf("%d records", len(seg.Records))
				}
			}
		})
	}
}

// benchExample runs the worked example for benchmark setup.
func benchExample(b *testing.B) *experiments.Example {
	b.Helper()
	ex, err := experiments.RunExample(context.Background())
	if err != nil {
		b.Fatal(err)
	}
	return ex
}
