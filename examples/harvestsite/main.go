// Harvestsite: the §3 vision through the public API — from one entry
// URL to the site's relation as CSV.
//
// A generated twelve-record county site is served as an in-memory map
// (swap in tableseg.HTTPFetcher{} for a live site); the harvester
// follows the Next link to find the second result page, fetches every
// linked page, rejects the advertisements, segments both pages, and
// merges them into one deduplicated relation with mined column names
// and inferred schema patterns.
//
//	go run ./examples/harvestsite
package main

import (
	"context"
	"fmt"
	"log"

	"tableseg"
	"tableseg/internal/sitegen"
)

func main() {
	site, err := sitegen.GenerateBySlug("butler", 7)
	if err != nil {
		log.Fatal(err)
	}

	h := &tableseg.Harvester{
		Fetcher: tableseg.MapFetcher(site.SiteMap()),
		Options: tableseg.DefaultOptions(tableseg.Probabilistic),
	}
	table, results, err := h.HarvestAll(context.Background(), "/list1.html")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("harvested %d result pages\n", len(results))
	for _, res := range results {
		fmt.Printf("  %s: %d detail pages, %d links rejected\n",
			res.ListURL, len(res.DetailURLs), len(res.RejectedURLs))
	}

	fmt.Printf("\nrelation: %d rows x %d columns\n", table.NumRows(), len(table.Columns))
	schema := table.Schema()
	for c, name := range table.Columns {
		fmt.Printf("  %-10s %s\n", name, schema[c])
	}

	fmt.Println("\nCSV:")
	fmt.Print(renderCSV(table))
}

// renderCSV is a minimal inline CSV writer for the demo (the library's
// WriteCSV operates on a single Segmentation; the merged relation is a
// plain rows×columns table).
func renderCSV(t *tableseg.RelationTable) string {
	out := ""
	out += join(t.Columns) + "\n"
	for i, row := range t.Rows {
		if i == 5 {
			out += "...\n"
			break
		}
		out += join(row) + "\n"
	}
	return out
}

func join(cells []string) string {
	out := ""
	for i, c := range cells {
		if i > 0 {
			out += ","
		}
		out += c
	}
	return out
}
