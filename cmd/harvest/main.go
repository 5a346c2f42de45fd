// Command harvest implements the paper's §3 vision end to end: point it
// at a site's sampled list pages, and it fetches every linked page,
// classifies the detail pages away from advertisements, and extracts
// the records — no manual page selection at all.
//
//	harvest -dir corpus/superpages -list /list1.html -list /list2.html
//	harvest -base http://host:port -list /list1.html -list /list2.html
//
// -dir crawls a directory written by cmd/sitegen; -base crawls a live
// HTTP server.
package main

import (
	"context"
	"encoding/csv"
	"flag"
	"fmt"
	"os"

	apiv1 "tableseg/api/v1"
	"tableseg/internal/core"
	"tableseg/internal/crawl"
)

type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint(*m) }

func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var lists multiFlag
	dir := flag.String("dir", "", "crawl a directory of pages (as written by cmd/sitegen)")
	base := flag.String("base", "", "crawl a live site at this base URL")
	flag.Var(&lists, "list", "list page URL/path (repeatable; >=2 enables template finding)")
	entry := flag.String("entry", "", "single entry URL/path: discover further list pages by following Next links")
	all := flag.Bool("all", false, "with -entry: harvest every discovered list page and emit the merged relation as CSV")
	target := flag.Int("target", 0, "index of the list page to harvest")
	method := flag.String("method", "prob", "segmentation method: prob, csp or combined")
	flag.Parse()

	if (len(lists) == 0 && *entry == "") || (*dir == "") == (*base == "") {
		fmt.Fprintln(os.Stderr, "harvest: need -list pages (or -entry) and exactly one of -dir or -base")
		flag.Usage()
		os.Exit(2)
	}

	var fetcher crawl.Fetcher
	urls := make([]string, len(lists))
	if *dir != "" {
		fetcher = crawl.DirFetcher{Root: *dir}
		copy(urls, lists)
	} else {
		fetcher = crawl.HTTPFetcher{}
		for i, l := range lists {
			urls[i] = *base + l
		}
	}

	m, err := apiv1.ParseMethod(*method)
	if err != nil {
		fmt.Fprintln(os.Stderr, "harvest:", err)
		os.Exit(2)
	}

	ctx := context.Background()
	h := &crawl.Harvester{Fetcher: fetcher, Options: core.DefaultOptions(m)}
	entryURL := *entry
	if entryURL != "" && *base != "" {
		entryURL = *base + entryURL
	}
	if *all {
		if entryURL == "" {
			fmt.Fprintln(os.Stderr, "harvest: -all requires -entry")
			os.Exit(2)
		}
		table, results, err := h.HarvestAll(ctx, entryURL)
		if err != nil {
			fmt.Fprintln(os.Stderr, "harvest:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "harvested %d list pages into %d rows x %d columns\n",
			len(results), table.NumRows(), len(table.Columns))
		for c, sch := range table.Schema() {
			fmt.Fprintf(os.Stderr, "  %-12s %s\n", table.Columns[c], sch)
		}
		w := csv.NewWriter(os.Stdout)
		_ = w.Write(table.Columns)
		for _, row := range table.Rows {
			_ = w.Write(row)
		}
		w.Flush()
		if err := w.Error(); err != nil {
			fmt.Fprintln(os.Stderr, "harvest:", err)
			os.Exit(1)
		}
		return
	}

	var res *crawl.Result
	if entryURL != "" {
		res, err = h.HarvestFrom(ctx, entryURL)
	} else {
		res, err = h.Harvest(ctx, urls, *target)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "harvest:", err)
		os.Exit(1)
	}

	fmt.Printf("harvested %s\n", res.ListURL)
	fmt.Printf("  detail pages: %d, rejected links: %d\n", len(res.DetailURLs), len(res.RejectedURLs))
	for _, u := range res.RejectedURLs {
		fmt.Printf("  rejected: %s\n", u)
	}
	seg := res.Segmentation
	if seg.UsedWholePage {
		fmt.Println("  page template problem: entire page used")
	}
	if labels := seg.ColumnLabels; len(labels) > 0 {
		fmt.Printf("  columns: %v\n", labels)
	}
	fmt.Println()
	for _, rec := range seg.Records {
		fmt.Printf("record %2d: %v\n", rec.Index+1, rec.Texts())
	}
}
