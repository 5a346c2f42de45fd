package tableseg

// Per-stage microbenchmarks over the stage graph (internal/stage): one
// benchmark per pipeline stage on a representative generated site, one
// for decoding a cached token stream, one solver benchmark per name in
// solvers.Names on the same Problem, one WSAT restart inside the CSP
// solver, the CSP's column solve and one EM iteration inside the
// probabilistic solver. `make bench` exports their results as
// BENCH_stages.json (via cmd/benchjson) so stage-level regressions show
// up as structured diffs; `make bench-check` fails when allocs/op grow
// past it, and CI smoke-runs them with -benchtime=1x.

import (
	"context"
	"testing"

	"tableseg/internal/core"
	"tableseg/internal/csp"
	"tableseg/internal/experiments"
	"tableseg/internal/phmm"
	"tableseg/internal/sitegen"
	"tableseg/internal/solvers"
	"tableseg/internal/stage"
	"tableseg/internal/token"
)

// stageFixture carries every intermediate artifact of one pipeline run,
// so each stage benchmark measures exactly its own stage.
type stageFixture struct {
	in     core.Input
	opts   core.Options
	toks   stage.TokenizeOut
	tpl    stage.Template
	slot   stage.Slot
	exs    stage.Extracts
	matrix *stage.ObservationMatrix
	prob   *stage.Problem
	asg    *stage.Assignment
}

// newStageFixture runs the stage graph once over list page page of the
// generated site slug and keeps all the artifacts. The stage benchmarks
// use allegheny's first page, as the whole-pipeline benchmarks do.
func newStageFixture(b *testing.B, slug string, page int) *stageFixture {
	b.Helper()
	ctx := context.Background()
	p, err := sitegen.ProfileBySlug(slug)
	if err != nil {
		b.Fatal(err)
	}
	site := sitegen.Generate(p, experiments.DefaultSeed)
	f := &stageFixture{
		in:   experiments.BuildInput(site, page),
		opts: core.DefaultOptions(core.CSP),
	}
	if f.toks, err = stage.Tokenize(ctx, f.tokenizeIn()); err != nil {
		b.Fatal(err)
	}
	if f.tpl, err = stage.InduceTemplate(ctx, f.templateIn()); err != nil {
		b.Fatal(err)
	}
	if f.slot, err = stage.SelectSlot(ctx, f.slotIn()); err != nil {
		b.Fatal(err)
	}
	if f.exs, err = stage.Extract(ctx, f.extractIn()); err != nil {
		b.Fatal(err)
	}
	if f.matrix, err = stage.Observe(ctx, f.observeIn()); err != nil {
		b.Fatal(err)
	}
	if len(f.matrix.Analyzed) == 0 {
		b.Fatal("fixture has no analyzed extracts")
	}
	f.prob = stage.BuildProblem(f.matrix)
	res, err := f.solver(b, "csp").Solve(ctx, f.prob)
	if err != nil {
		b.Fatal(err)
	}
	f.asg = &res.Assignment
	return f
}

func (f *stageFixture) tokenizeIn() stage.TokenizeIn {
	return stage.TokenizeIn{ListPages: f.in.ListPages, DetailPages: f.in.DetailPages}
}

func (f *stageFixture) templateIn() stage.TemplateIn {
	return stage.TemplateIn{Lists: f.toks.Lists}
}

func (f *stageFixture) slotIn() stage.SlotIn {
	return stage.SlotIn{
		Template: f.tpl, Lists: f.toks.Lists, Target: f.in.Target,
		MinSlotQuality: 0.5, StripEnumeration: f.opts.StripEnumeration,
	}
}

func (f *stageFixture) extractIn() stage.ExtractIn {
	return stage.ExtractIn{Target: f.toks.Lists[f.in.Target], Slot: f.slot}
}

func (f *stageFixture) observeIn() stage.ObserveIn {
	var others [][]token.Token
	for i := range f.toks.Lists {
		if i != f.in.Target {
			others = append(others, f.toks.Lists[i].Tokens)
		}
	}
	return stage.ObserveIn{
		Extracts: f.exs, Details: f.toks.Details, OtherLists: others,
		DetectVertical: f.opts.DetectVertical,
	}
}

func (f *stageFixture) postIn() stage.PostIn {
	return stage.PostIn{
		Extracts: f.exs, Matrix: f.matrix, Assignment: f.asg,
		Details: f.toks.Details, MineLabels: true,
	}
}

// solver builds the named solver under the default reproduction
// parameters.
func (f *stageFixture) solver(b *testing.B, name string) solvers.Solver {
	b.Helper()
	s, err := solvers.New(name, solvers.Config{
		CSP:        core.DefaultOptions(core.CSP).CSPParams,
		PHMM:       core.DefaultOptions(core.Probabilistic).PHMMParams,
		CSPColumns: core.DefaultOptions(core.CSP).CSPColumns,
	})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func BenchmarkStageTokenize(b *testing.B) {
	f := newStageFixture(b, "allegheny", 0)
	in := f.tokenizeIn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := stage.Tokenize(context.Background(), in)
		if err != nil || len(out.Lists) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkStageDecodeTokens decodes a list page's token payload: what
// a warm token-cache hit costs in place of tokenizing the page.
func BenchmarkStageDecodeTokens(b *testing.B) {
	f := newStageFixture(b, "allegheny", 0)
	payload := stage.EncodeTokens(f.toks.Lists[f.in.Target].Tokens)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := stage.DecodeTokens(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageInduceTemplate(b *testing.B) {
	f := newStageFixture(b, "allegheny", 0)
	in := f.templateIn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tpl, err := stage.InduceTemplate(context.Background(), in)
		if err != nil || tpl.Tpl == nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageSelectSlot(b *testing.B) {
	f := newStageFixture(b, "allegheny", 0)
	in := f.slotIn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		slot, err := stage.SelectSlot(context.Background(), in)
		if err != nil || slot.End <= slot.Start {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageExtract(b *testing.B) {
	f := newStageFixture(b, "allegheny", 0)
	in := f.extractIn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		exs, err := stage.Extract(context.Background(), in)
		if err != nil || len(exs.Items) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkStageObserve(b *testing.B) {
	f := newStageFixture(b, "allegheny", 0)
	in := f.observeIn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := stage.Observe(context.Background(), in)
		if err != nil || len(m.Analyzed) == 0 {
			b.Fatal(err)
		}
	}
}

func BenchmarkStagePostProcess(b *testing.B) {
	f := newStageFixture(b, "allegheny", 0)
	in := f.postIn()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := stage.PostProcess(context.Background(), in)
		if err != nil || len(out.Records) == 0 {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolver runs every solver over the fixture's Problem (the
// Segment stage with each algorithm). Solvers may exhaust their
// fallbacks on this input (Exhausted is a result, not an error); only
// hard errors fail the benchmark.
func BenchmarkSolver(b *testing.B) {
	f := newStageFixture(b, "allegheny", 0)
	for _, name := range solvers.Names() {
		s := f.solver(b, name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := s.Solve(context.Background(), f.prob)
				if err != nil || res == nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSolverWSATRestart times one WSAT restart inside the CSP
// solver. The instance is the relaxed-rung encoding of Superpages'
// second Table 4 page (123 variables): its soft penalty cannot reach 0,
// so the restart always runs its whole flip budget.
func BenchmarkSolverWSATRestart(b *testing.B) {
	f := newStageFixture(b, "superpages", 1)
	enc := csp.Encode(csp.SegmentInput{
		NumRecords:     f.prob.NumRecords,
		Candidates:     f.prob.Candidates,
		PositionGroups: f.prob.PositionGroups,
	}, csp.Relaxed)
	params := f.opts.CSPParams.WSAT
	params.Restarts = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sol, err := csp.SolveWSATContext(context.Background(), enc.Problem, params)
		if err != nil || !sol.Feasible || sol.SoftPenalty == 0 {
			b.Fatalf("err %v, solution %+v", err, sol)
		}
	}
}

// BenchmarkSolverColumns times the §6.3 column solve of Sprint
// Canada's first Table 4 page: csp.AssignColumns over the records the
// fixture's CSP solve (outside the timer) found.
func BenchmarkSolverColumns(b *testing.B) {
	f := newStageFixture(b, "sprintcanada", 0)
	params := f.opts.CSPParams.WSAT
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cols, _, _, err := csp.AssignColumns(context.Background(), f.asg.Records, f.prob.FirstTypes, params)
		if err != nil || len(cols) != len(f.asg.Records) {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolverEMIteration times the probabilistic solver's lattice
// workspace set-up plus one EM iteration (an E-step and an M-step):
// phmm.NewModel and FitContext with MaxIter 1, on the fixture's Problem
// with the column count the solver derives for it.
func BenchmarkSolverEMIteration(b *testing.B) {
	f := newStageFixture(b, "allegheny", 0)
	inst := phmm.Instance{
		NumRecords: f.prob.NumRecords,
		Candidates: f.prob.Candidates,
		TypeVecs:   f.prob.TypeVecs,
	}
	params := core.DefaultOptions(core.Probabilistic).PHMMParams
	res, err := phmm.SegmentContext(context.Background(), inst, params)
	if err != nil {
		b.Fatal(err)
	}
	params.MaxIter = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := phmm.NewModel(inst.NumRecords, res.Model.C, params)
		if _, iters, err := m.FitContext(context.Background(), inst); err != nil || iters != 1 {
			b.Fatalf("iters %d, err %v", iters, err)
		}
	}
}
