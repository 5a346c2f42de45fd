// Command tableseg segments the records of a list page using its detail
// pages, from HTML files on disk:
//
//	tableseg -method prob -list l1.html -list l2.html -target 0 \
//	         -detail d1.html -detail d2.html -detail d3.html
//
// List pages are the sampled results pages of one site (at least two
// enable template finding); detail pages are the pages linked from the
// target list page, in link order. Output is one block per segmented
// record; -columns additionally prints the reconstructed relational
// table (probabilistic method only). -timeout bounds the run (the
// solvers abort at their next restart/iteration boundary) and -stats
// reports per-stage timing and solver effort on stderr.
//
// -batch runs a JSON manifest of many such tasks through the engine's
// worker pool, emitting results in manifest order. -cache-dir adds a
// persistent artifact cache (tokenized pages, induced templates, and a
// result journal); -resume replays journaled results so an interrupted
// batch continues where it stopped with byte-identical output.
package main

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"tableseg"
	apiv1 "tableseg/api/v1"
)

// multiFlag collects repeated -list/-detail flags.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, ",") }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with its dependencies injected, so the flag handling and
// output shapes are testable in-process. It returns the process exit
// code: 0 success, 1 segmentation failure, 2 usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tableseg", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var lists, details multiFlag
	fs.Var(&lists, "list", "list page HTML file (repeatable; >=2 enables template finding)")
	fs.Var(&details, "detail", "detail page HTML file (repeatable; in link order)")
	target := fs.Int("target", 0, "index of the list page to segment")
	method := fs.String("method", "prob", "segmentation method: prob, csp or combined")
	columns := fs.Bool("columns", false, "print the reconstructed relational table")
	jsonOut := fs.Bool("json", false, "emit the segmentation as JSON")
	csvOut := fs.Bool("csv", false, "emit the reconstructed table as CSV")
	stats := fs.Bool("stats", false, "print per-stage timing and solver effort to stderr")
	timeout := fs.Duration("timeout", 0, "abort the segmentation after this duration (0 = no limit)")
	remote := fs.String("remote", "", "base URL of a tablesegd daemon (e.g. http://localhost:8844); segment there instead of in-process")
	cacheDir := fs.String("cache-dir", "", "persistent artifact-cache directory (adds a disk tier behind the in-memory cache)")
	cacheMem := fs.Int64("cache-mem", 0, "in-memory artifact-cache budget in bytes (0 = default)")
	resume := fs.Bool("resume", false, "replay journaled results from -cache-dir instead of recomputing finished tasks")
	batch := fs.String("batch", "", "JSON task manifest; segment every task through the engine pool")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *resume && *cacheDir == "" {
		fmt.Fprintln(stderr, "tableseg: -resume requires -cache-dir (the result journal lives in the disk cache)")
		fs.Usage()
		return 2
	}
	if *batch != "" {
		if len(lists) > 0 || len(details) > 0 || *remote != "" {
			fmt.Fprintln(stderr, "tableseg: -batch conflicts with -list/-detail/-remote")
			fs.Usage()
			return 2
		}
	} else if len(lists) == 0 || len(details) == 0 {
		fmt.Fprintln(stderr, "tableseg: need at least one -list and one -detail file")
		fs.Usage()
		return 2
	}

	in := tableseg.Input{Target: *target}
	for _, f := range lists {
		page, err := readPage(f)
		if err != nil {
			fmt.Fprintln(stderr, "tableseg:", err)
			return 1
		}
		in.ListPages = append(in.ListPages, page)
	}
	for _, f := range details {
		page, err := readPage(f)
		if err != nil {
			fmt.Fprintln(stderr, "tableseg:", err)
			return 1
		}
		in.DetailPages = append(in.DetailPages, page)
	}

	m, err := apiv1.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(stderr, "tableseg:", err)
		return 2
	}

	if *timeout < 0 {
		fmt.Fprintf(stderr, "tableseg: negative -timeout %v\n", *timeout)
		return 2
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	out := outputMode{json: *jsonOut, csv: *csvOut, columns: *columns}
	if *remote != "" {
		resp, err := segmentRemote(ctx, *remote, in, *method, *timeout, *stats, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "tableseg:", err)
			return 1
		}
		return render(stdout, stderr, resp, out)
	}

	eng, err := tableseg.NewEngine(tableseg.EngineConfig{
		Options:          tableseg.DefaultOptions(m),
		CacheDir:         *cacheDir,
		CacheMemoryBytes: *cacheMem,
		Resume:           *resume,
	})
	if err != nil {
		fmt.Fprintln(stderr, "tableseg:", err)
		return 2
	}

	if *batch != "" {
		return runBatch(ctx, eng, *batch, out, *stats, stdout, stderr)
	}

	res := eng.Run(ctx, tableseg.Task{Input: in})
	if *stats {
		printStats(stderr, res.Stats, eng.CacheStats())
	}
	if res.Err != nil {
		if errors.Is(res.Err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "tableseg: timed out after %v\n", *timeout)
		} else {
			fmt.Fprintln(stderr, "tableseg:", res.Err)
		}
		return 1
	}
	return render(stdout, stderr, apiv1.ResponseFromSegmentation(res.Seg, nil), out)
}

// outputMode is the rendering selected by -json, -csv and -columns.
type outputMode struct {
	json, csv, columns bool
}

// render writes one segmentation in the selected mode and returns the
// exit code. Every run renders from the wire response — built locally
// for in-process runs, received for -remote ones — so the two paths
// cannot drift apart.
func render(stdout, stderr io.Writer, resp *apiv1.SegmentResponse, out outputMode) int {
	var err error
	switch {
	case out.json:
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		err = enc.Encode(jsonOutputFrom(resp))
	case out.csv:
		err = writeCSV(stdout, resp)
	default:
		printText(stdout, resp, out.columns)
	}
	if err != nil {
		fmt.Fprintln(stderr, "tableseg:", err)
		return 1
	}
	return 0
}

// printText writes the human-readable segmentation report shared by
// the single-site and -batch text modes.
func printText(w io.Writer, resp *apiv1.SegmentResponse, columns bool) {
	fmt.Fprintf(w, "method=%s analyzed=%d/%d extracts", resp.Method, resp.AnalyzedExtracts, resp.TotalExtracts)
	if resp.UsedWholePage {
		fmt.Fprintf(w, " (page template problem: entire page used)")
	}
	if resp.Method == tableseg.CSP.String() {
		fmt.Fprintf(w, " csp=%s", resp.CSPStatus)
	}
	fmt.Fprintln(w)
	for _, rec := range resp.Records {
		fmt.Fprintf(w, "record %d (detail page %d):\n", rec.Record, rec.Record)
		for i, text := range rec.Extracts {
			col := ""
			if i < len(rec.Columns) && rec.Columns[i] >= 0 {
				col = fmt.Sprintf("  [L%d]", rec.Columns[i]+1)
			}
			fmt.Fprintf(w, "  %s%s\n", text, col)
		}
	}
	if columns {
		fmt.Fprintln(w, "\nreconstructed table:")
		if len(resp.ColumnLabels) > 0 {
			fmt.Fprintf(w, "     | %s\n", strings.Join(resp.ColumnLabels, " | "))
		}
		for i, row := range resp.Table {
			fmt.Fprintf(w, "  %2d | %s\n", i+1, strings.Join(row, " | "))
		}
	}
}

// writeCSV emits the reconstructed table as CSV, exactly as
// tableseg.WriteCSV does for a Segmentation: a header from the column
// labels (with L<n> fallbacks), every row padded to the wider of the
// header and the widest row.
func writeCSV(w io.Writer, resp *apiv1.SegmentResponse) error {
	cw := csv.NewWriter(w)
	if len(resp.ColumnLabels) > 0 {
		header := make([]string, len(resp.ColumnLabels))
		for i, l := range resp.ColumnLabels {
			if l == "" {
				l = "L" + strconv.Itoa(i+1)
			}
			header[i] = l
		}
		if err := cw.Write(header); err != nil {
			return err
		}
	}
	width := len(resp.ColumnLabels)
	for _, row := range resp.Table {
		if len(row) > width {
			width = len(row)
		}
	}
	for _, row := range resp.Table {
		padded := make([]string, width)
		copy(padded, row)
		if err := cw.Write(padded); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// jsonRecord is the JSON shape of one segmented record.
type jsonRecord struct {
	Record   int      `json:"record"`
	Extracts []string `json:"extracts"`
	Columns  []int    `json:"columns,omitempty"`
}

// jsonOutput is the JSON shape of a segmentation: the CLI's own field
// order, which predates the wire format and is kept byte-stable.
type jsonOutput struct {
	Method        string       `json:"method"`
	Analyzed      int          `json:"analyzedExtracts"`
	Total         int          `json:"totalExtracts"`
	UsedWholePage bool         `json:"usedWholePage"`
	CSPStatus     string       `json:"cspStatus,omitempty"`
	ColumnLabels  []string     `json:"columnLabels,omitempty"`
	Records       []jsonRecord `json:"records"`
	Table         [][]string   `json:"table"`
}

// jsonOutputFrom assembles the JSON shape shared by the single-site
// (indented) and -batch (JSONL) modes.
func jsonOutputFrom(resp *apiv1.SegmentResponse) jsonOutput {
	out := jsonOutput{
		Method:        resp.Method,
		Analyzed:      resp.AnalyzedExtracts,
		Total:         resp.TotalExtracts,
		UsedWholePage: resp.UsedWholePage,
		CSPStatus:     resp.CSPStatus,
		ColumnLabels:  resp.ColumnLabels,
		Table:         resp.Table,
	}
	for _, rec := range resp.Records {
		out.Records = append(out.Records, jsonRecord{
			Record:   rec.Record,
			Extracts: rec.Extracts,
			Columns:  rec.Columns,
		})
	}
	return out
}

// printStats reports the engine's per-stage instrumentation and cache
// counters.
func printStats(w io.Writer, st tableseg.TaskStats, cs tableseg.CacheStats) {
	fmt.Fprintf(w, "stats: wall=%v\n", st.Wall.Round(time.Microsecond))
	for _, s := range st.Stages {
		fmt.Fprintf(w, "stats: stage=%s calls=%d time=%v\n",
			s.Name, s.Calls, s.Duration.Round(time.Microsecond))
	}
	fmt.Fprintf(w, "stats: wsat restarts=%d flips=%d cutRounds=%d emIters=%d\n",
		st.WSATRestarts, st.WSATFlips, st.CutRounds, st.EMIters)
	printCacheStats(w, cs)
}

// printCacheStats reports the engine-level cache counters plus one line
// per artifact-store tier. The token/template line shape is load-bearing
// (tests and smoke scripts match it); new counters go on their own
// lines.
func printCacheStats(w io.Writer, cs tableseg.CacheStats) {
	fmt.Fprintf(w, "stats: cache tokenHits=%d tokenMisses=%d templateHits=%d templateMisses=%d\n",
		cs.TokenHits, cs.TokenMisses, cs.TemplateHits, cs.TemplateMisses)
	fmt.Fprintf(w, "stats: cache resultHits=%d resultMisses=%d\n", cs.ResultHits, cs.ResultMisses)
	for _, t := range cs.Tiers {
		fmt.Fprintf(w, "stats: cache tier=%s hits=%d misses=%d puts=%d evictions=%d errors=%d entries=%d bytes=%d\n",
			t.Tier, t.Hits, t.Misses, t.Puts, t.Evictions, t.Errors, t.Entries, t.Bytes)
	}
}

func readPage(path string) (tableseg.Page, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return tableseg.Page{}, err
	}
	return tableseg.Page{Name: path, HTML: string(data)}, nil
}
