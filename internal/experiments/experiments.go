// Package experiments reproduces every table and figure of the paper's
// evaluation (§6): the Superpages worked example of Tables 1–3, the
// twelve-site segmentation study of Table 4 (with the clean-subset
// metrics of §6.3), and the ablations DESIGN.md calls out. The same
// entry points back cmd/experiments and the benchmark suite.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"tableseg/internal/core"
	"tableseg/internal/csp"
	"tableseg/internal/engine"
	"tableseg/internal/eval"
	"tableseg/internal/sitegen"
)

// DefaultSeed is the fixed generator seed used for the headline tables,
// so every run of the harness reproduces the same numbers.
const DefaultSeed = 42

// BuildInput assembles a core.Input for one page of a generated site.
func BuildInput(site *sitegen.Site, pageIdx int) core.Input {
	in := core.Input{Target: pageIdx}
	for li := range site.Lists {
		in.ListPages = append(in.ListPages, core.Page{
			Name: fmt.Sprintf("%s-list%d", site.Profile.Slug, li),
			HTML: site.Lists[li].HTML,
		})
	}
	for di, d := range site.Lists[pageIdx].Details {
		in.DetailPages = append(in.DetailPages, core.Page{
			Name: fmt.Sprintf("%s-detail%d", site.Profile.Slug, di),
			HTML: d,
		})
	}
	return in
}

// PageRow is one row of Table 4: one list page scored under both
// methods.
type PageRow struct {
	Site string
	Page int
	Prob eval.Counts
	CSP  eval.Counts
	// Notes uses the paper's letters: a = page template problem,
	// b = entire page used, c = no strict CSP solution, d = constraints
	// relaxed.
	Notes         string
	UsedWholePage bool
	CSPStatus     csp.Status
}

// Table4Result aggregates the full study.
type Table4Result struct {
	Rows      []PageRow
	ProbTotal eval.Counts
	CSPTotal  eval.Counts
	// Clean subset: the pages on which the strict CSP succeeded
	// (§6.3 excludes the pages where the CSP could find no solution).
	CleanProb, CleanCSP eval.Counts
	CleanPages          int
}

// corpusJob is one list page of the Table 4 corpus.
type corpusJob struct {
	site    *sitegen.Site
	pageIdx int
}

// corpusRun is the Table 4 workload after one pass through the batch
// engine: results[2*j] is jobs[j] under the probabilistic method and
// results[2*j+1] under the CSP.
type corpusRun struct {
	jobs    []corpusJob
	results []engine.Result
	cache   engine.CacheStats
}

// runCorpus runs the 48 Table 4 tasks (24 list pages, each under both
// methods) through one batch engine: the two runs of a page share one
// cached site preparation, and the pool keeps every core busy. Each
// run is pure for a fixed seed, so the results are deterministic
// regardless of scheduling.
func runCorpus(ctx context.Context, seed int64) (*corpusRun, error) {
	run := &corpusRun{}
	for _, profile := range sitegen.Profiles() {
		site := sitegen.Generate(profile, seed)
		for pageIdx := range site.Lists {
			run.jobs = append(run.jobs, corpusJob{site, pageIdx})
		}
	}

	eng, err := engine.New(engine.Config{Options: core.DefaultOptions(core.Probabilistic)})
	if err != nil {
		return nil, err
	}
	probOpts := core.DefaultOptions(core.Probabilistic)
	cspOpts := core.DefaultOptions(core.CSP)
	tasks := make(chan engine.Task, 2*len(run.jobs))
	for _, j := range run.jobs {
		in := BuildInput(j.site, j.pageIdx)
		id := fmt.Sprintf("%s-%d", j.site.Profile.Slug, j.pageIdx)
		tasks <- engine.Task{ID: id + "-prob", Input: in, Options: &probOpts}
		tasks <- engine.Task{ID: id + "-csp", Input: in, Options: &cspOpts}
	}
	close(tasks)
	run.results = make([]engine.Result, 2*len(run.jobs))
	for r := range eng.Stream(ctx, tasks) {
		run.results[r.Index] = r
	}
	run.cache = eng.CacheStats()
	return run, nil
}

// RunTable4 reproduces Table 4 for a generator seed from one corpus
// run (see runCorpus).
func RunTable4(ctx context.Context, seed int64) (*Table4Result, error) {
	run, err := runCorpus(ctx, seed)
	if err != nil {
		return nil, err
	}

	res := &Table4Result{}
	for ji, j := range run.jobs {
		prob, cspRes := run.results[2*ji], run.results[2*ji+1]
		if prob.Err != nil {
			return nil, fmt.Errorf("%s page %d: %w", j.site.Profile.Slug, j.pageIdx, prob.Err)
		}
		if cspRes.Err != nil {
			return nil, fmt.Errorf("%s page %d: %w", j.site.Profile.Slug, j.pageIdx, cspRes.Err)
		}
		probSeg, cspSeg := prob.Seg, cspRes.Seg
		truth := j.site.Lists[j.pageIdx].Truth
		row := PageRow{
			Site:          j.site.Profile.Name,
			Page:          j.pageIdx + 1,
			Prob:          eval.Score(probSeg, truth),
			CSP:           eval.Score(cspSeg, truth),
			UsedWholePage: probSeg.UsedWholePage,
			CSPStatus:     cspSeg.CSPStatus,
		}
		var notes []string
		if probSeg.UsedWholePage || cspSeg.UsedWholePage {
			notes = append(notes, "a", "b")
		}
		switch cspSeg.CSPStatus {
		case csp.SolvedRelaxed:
			notes = append(notes, "c", "d")
		case csp.Failed:
			notes = append(notes, "c")
		}
		row.Notes = strings.Join(notes, ",")

		res.Rows = append(res.Rows, row)
		res.ProbTotal = res.ProbTotal.Add(row.Prob)
		res.CSPTotal = res.CSPTotal.Add(row.CSP)
		if row.CSPStatus == csp.Solved {
			res.CleanProb = res.CleanProb.Add(row.Prob)
			res.CleanCSP = res.CleanCSP.Add(row.CSP)
			res.CleanPages++
		}
	}
	return res, nil
}

// RenderTable4 formats the study in the layout of the paper's Table 4.
func RenderTable4(r *Table4Result) string {
	var b strings.Builder
	b.WriteString("Table 4: automatic record segmentation, probabilistic vs CSP\n\n")
	fmt.Fprintf(&b, "%-28s | %-22s | %-22s | %s\n", "", "Probabilistic", "CSP", "")
	fmt.Fprintf(&b, "%-28s | %4s %4s %4s %4s | %4s %4s %4s %4s | %s\n",
		"Site (page)", "Cor", "InC", "FN", "FP", "Cor", "InC", "FN", "FP", "notes")
	b.WriteString(strings.Repeat("-", 92) + "\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-28s | %4d %4d %4d %4d | %4d %4d %4d %4d | %s\n",
			fmt.Sprintf("%s (%d)", row.Site, row.Page),
			row.Prob.Cor, row.Prob.InCor, row.Prob.FN, row.Prob.FP,
			row.CSP.Cor, row.CSP.InCor, row.CSP.FN, row.CSP.FP,
			row.Notes)
	}
	b.WriteString(strings.Repeat("-", 92) + "\n")
	fmt.Fprintf(&b, "%-28s | P=%.2f R=%.2f F=%.2f | P=%.2f R=%.2f F=%.2f |\n",
		"All 24 pages",
		r.ProbTotal.Precision(), r.ProbTotal.Recall(), r.ProbTotal.F(),
		r.CSPTotal.Precision(), r.CSPTotal.Recall(), r.CSPTotal.F())
	fmt.Fprintf(&b, "%-28s | P=%.2f R=%.2f F=%.2f | P=%.2f R=%.2f F=%.2f |\n",
		fmt.Sprintf("Clean subset (%d pages)", r.CleanPages),
		r.CleanProb.Precision(), r.CleanProb.Recall(), r.CleanProb.F(),
		r.CleanCSP.Precision(), r.CleanCSP.Recall(), r.CleanCSP.F())
	b.WriteString("\nPaper reference: probabilistic P=0.74 R=0.99 F=0.85; CSP P=0.85 R=0.84 F=0.84.\n")
	b.WriteString("Clean 17-page subset: CSP P=0.99 R=0.92 F=0.95; probabilistic P=0.78 R=1.0 F=0.88.\n")
	b.WriteString("Notes: a page-template problem, b entire page used, c no strict CSP solution, d constraints relaxed.\n")
	return b.String()
}
