// Corrections: the Michigan dirty-data scenario of §6.3.
//
// One inmate's status reads "Parole" on the list page but "Parolee" on
// the detail page, and the bare word "Parole" appears in an unrelated
// context on a different inmate's detail page. The strict CSP becomes
// unsatisfiable and must descend the relaxation ladder; the
// probabilistic model absorbs the inconsistency through its soft
// detail-page evidence. This example surfaces both behaviours.
//
//	go run ./examples/corrections
package main

import (
	"fmt"
	"log"

	"tableseg"
	"tableseg/internal/sitegen"
)

func main() {
	site, err := sitegen.GenerateBySlug("michigan", 42)
	if err != nil {
		log.Fatal(err)
	}
	pageIdx := 1 // the page carrying the Parole/Parolee mismatch
	lp := site.Lists[pageIdx]

	in := tableseg.Input{Target: pageIdx}
	for _, l := range site.Lists {
		in.ListPages = append(in.ListPages, tableseg.Page{HTML: l.HTML})
	}
	for _, d := range lp.Details {
		in.DetailPages = append(in.DetailPages, tableseg.Page{HTML: d})
	}

	cspSeg, err := tableseg.Segment(in, tableseg.DefaultOptions(tableseg.CSP))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CSP status: %s (relaxed=%v)\n", cspSeg.CSPStatus, cspSeg.Relaxed)
	fmt.Printf("CSP segmented %d of %d records\n\n", len(cspSeg.Records), len(lp.Truth))

	probSeg, err := tableseg.Segment(in, tableseg.DefaultOptions(tableseg.Probabilistic))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("probabilistic segmented %d of %d records (EM iterations: %d, loglik %.1f)\n\n",
		len(probSeg.Records), len(lp.Truth), probSeg.PHMM.Iters, probSeg.PHMM.LogLik)

	// Show the record carrying the mismatch: its "Parole" status string
	// has no support on its own detail page, yet both methods keep the
	// record intact (the CSP by attaching the unassignable extract to
	// the last assigned one, the PHMM by paying the epsilon evidence).
	for _, rec := range probSeg.Records {
		for _, ex := range rec.Extracts {
			if ex.Text() == "Parole" {
				fmt.Printf("mismatch record (detail page %d): %v\n", rec.Index+1, rec.Texts())
			}
		}
	}
}
