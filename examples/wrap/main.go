// Wrap: from unsupervised segmentation to a site wrapper.
//
// The expensive step of the paper's pipeline — fetching every detail
// page — only has to happen once per site. This example segments a
// county property-tax site's first result page using its detail pages,
// learns a record-start wrapper from that segmentation, and then
// extracts the site's second result page from its layout alone: no
// detail fetches, no model fitting, microseconds per page.
//
//	go run ./examples/wrap
package main

import (
	"fmt"
	"log"
	"strings"

	"tableseg"
	"tableseg/internal/sitegen"
	"tableseg/internal/token"
	"tableseg/internal/wrapper"
)

func main() {
	site, err := sitegen.GenerateBySlug("allegheny", 7)
	if err != nil {
		log.Fatal(err)
	}

	// Phase 1: unsupervised segmentation of page 1 (needs details).
	in := tableseg.Input{Target: 0}
	for _, l := range site.Lists {
		in.ListPages = append(in.ListPages, tableseg.Page{HTML: l.HTML})
	}
	for _, d := range site.Lists[0].Details {
		in.DetailPages = append(in.DetailPages, tableseg.Page{HTML: d})
	}
	seg, err := tableseg.Segment(in, tableseg.DefaultOptions(tableseg.Probabilistic))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 1: segmented %d records using %d detail pages\n",
		len(seg.Records), len(in.DetailPages))

	// Phase 2: learn the wrapper from the segmented page.
	page0 := token.Tokenize(site.Lists[0].HTML)
	w, err := wrapper.Learn(page0, seg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("phase 2: learned record-start signature %s\n", strings.Join(w.Signature, ""))

	// Phase 3: extract the second page with layout only.
	page1 := token.Tokenize(site.Lists[1].HTML)
	got := w.Extract(page1)
	fmt.Printf("phase 3: extracted %d records from page 2 with no detail fetches\n\n", len(got.Records))
	for i, rec := range got.Records {
		fmt.Printf("%2d | %s\n", i+1, strings.Join(rec.Texts(), " | "))
		if i == 4 {
			fmt.Println("   | ...")
			break
		}
	}

	// Sanity: the wrapper output matches the generator's ground truth.
	match := 0
	for ri, tr := range site.Lists[1].Truth {
		if ri < len(got.Records) && strings.Contains(strings.Join(got.Records[ri].Texts(), " "), tr.Values[0]) {
			match++
		}
	}
	fmt.Printf("\nrecords whose first field matches ground truth: %d/%d\n", match, len(site.Lists[1].Truth))
}
