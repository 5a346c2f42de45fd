package experiments

import (
	"context"
	"fmt"
	"strings"

	"tableseg/internal/csp"
	"tableseg/internal/extract"
	"tableseg/internal/token"
)

// The worked example of §3–§4: the Superpages list page of Figure 1 with
// the three records of Table 1 (two "John Smith" entries sharing a phone
// number, plus "George W. Smith"). Reproducing Tables 1, 2 and 3 runs
// the real pipeline over these pages.

// superpagesExampleList is the list page; the three rows carry the
// extracts E1..E11 of Table 1.
const superpagesExampleList = `<html><head><title>Superpages</title></head><body>
<h1>Superpages</h1><p>Results - 3 Matching Listings</p>
<div><b>John Smith</b><br>221 Washington<br>New Holland<br>(740) 335-5555 <a href="d1">More Info</a></div>
<div><b>John Smith</b><br>221R Washington<br>Washington<br>(740) 335-5555 <a href="d2">More Info</a></div>
<div><b>George W. Smith</b><br>Findlay, OH<br>(419) 423-1212 <a href="d3">More Info</a></div>
<p>Copyright Superpages</p></body></html>`

// superpagesExampleDetails are the three detail pages r1..r3.
var superpagesExampleDetails = []string{
	`<html><body><h1>Superpages</h1><h2>Listing Detail</h2><p>John Smith</p><p>221 Washington</p><p>New Holland</p><p>(740) 335-5555</p><p>Map It</p></body></html>`,
	`<html><body><h1>Superpages</h1><h2>Listing Detail</h2><p>John Smith</p><p>221R Washington</p><p>Washington</p><p>(740) 335-5555</p><p>Map It</p></body></html>`,
	`<html><body><h1>Superpages</h1><h2>Listing Detail</h2><p>George W. Smith</p><p>Findlay, OH</p><p>(419) 423-1212</p><p>Map It</p></body></html>`,
}

// Example bundles the worked-example artifacts.
type Example struct {
	Extracts     []extract.Extract
	Observations []extract.Observation
	Analyzed     []int
	Input        csp.SegmentInput
	Result       *csp.SegmentResult
}

// RunExample executes the §3 pipeline on the worked example and solves
// the §4 CSP, reproducing Tables 1–3 (observations, assignment,
// positions). The error is non-nil only when ctx is cancelled.
func RunExample(ctx context.Context) (*Example, error) {
	list := token.Tokenize(superpagesExampleList)
	details := make([][]token.Token, len(superpagesExampleDetails))
	for i, d := range superpagesExampleDetails {
		details[i] = token.Tokenize(d)
	}
	ex := &Example{}
	ex.Extracts = extract.Split(list, 0, len(list))
	ex.Observations = extract.Observe(ex.Extracts, details, nil)
	ex.Analyzed = extract.InformativeSubset(ex.Observations, len(details))
	ex.Input = csp.SegmentInput{
		NumRecords:     len(details),
		Candidates:     make([][]int, len(ex.Analyzed)),
		PositionGroups: extract.PositionGroups(ex.Observations, ex.Analyzed, len(details)),
	}
	for ai, oi := range ex.Analyzed {
		ex.Input.Candidates[ai] = ex.Observations[oi].Pages
	}
	res, err := csp.SolveSegmentationContext(ctx, ex.Input, csp.SolveParams{})
	if err != nil {
		return nil, err
	}
	ex.Result = res
	return ex, nil
}

// RenderTable1 formats the observation matrix (extracts × detail pages).
func (ex *Example) RenderTable1() string {
	var b strings.Builder
	b.WriteString("Table 1: observations of extracts on detail pages\n\n")
	for ai, oi := range ex.Analyzed {
		o := &ex.Observations[oi]
		pages := make([]string, 0, len(o.Pages))
		for _, p := range o.Pages {
			pages = append(pages, fmt.Sprintf("r%d", p+1))
		}
		fmt.Fprintf(&b, "E%-3d %-22s D = {%s}\n", ai+1, o.Extract.Text(), strings.Join(pages, ","))
	}
	return b.String()
}

// RenderTable2 formats the record assignment found by the CSP.
func (ex *Example) RenderTable2() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: assignment of extracts to records (status: %s)\n\n", ex.Result.Status)
	for ai, oi := range ex.Analyzed {
		r := ex.Result.Records[ai]
		lbl := "-"
		if r >= 0 {
			lbl = fmt.Sprintf("r%d", r+1)
		}
		fmt.Fprintf(&b, "E%-3d %-22s -> %s\n", ai+1, ex.Observations[oi].Extract.Text(), lbl)
	}
	return b.String()
}

// RenderTable3 formats the position index (which extracts share a
// position on which detail page).
func (ex *Example) RenderTable3() string {
	var b strings.Builder
	b.WriteString("Table 3: shared positions of extracts on detail pages\n\n")
	for page := 0; page < ex.Input.NumRecords; page++ {
		groups := ex.Input.PositionGroups[page]
		for _, grp := range groups {
			names := make([]string, 0, len(grp))
			for _, ai := range grp {
				names = append(names, fmt.Sprintf("E%d", ai+1))
			}
			fmt.Fprintf(&b, "page r%d: {%s} occupy one field slot\n", page+1, strings.Join(names, ","))
		}
	}
	if b.Len() == 0 {
		b.WriteString("(no shared positions)\n")
	}
	return b.String()
}

// ExamplePages exposes the worked-example HTML (Figure 1's list/detail
// pair) for the sitegen CLI and documentation.
func ExamplePages() (list string, details []string) {
	return superpagesExampleList, append([]string(nil), superpagesExampleDetails...)
}
