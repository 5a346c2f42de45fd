package tableseg_test

import (
	"fmt"
	"log"
	"os"

	"tableseg"
)

// Two sampled list pages from one (imaginary) site plus the detail
// pages linked from the first: the only inputs the algorithms need.
const exList1 = `<html><body><h1>People Finder</h1>
<p>Search Results Below - Refine Query Anytime</p>
<table>
<tr><td>Ann Lee</td><td>12 Oak St</td><td>(555) 283-9922</td></tr>
<tr><td>Bob Day</td><td>99 Elm Rd</td><td>(555) 761-0301</td></tr>
<tr><td>Cal Roe</td><td>7 Pine Ave</td><td>(555) 440-1188</td></tr>
</table>
<p>Copyright 2004 PeopleFinder Inc</p></body></html>`

const exList2 = `<html><body><h1>People Finder</h1>
<p>Search Results Below - Refine Query Anytime</p>
<table>
<tr><td>Dee Fox</td><td>4 Elm Ct</td><td>(555) 019-3321</td></tr>
<tr><td>Eli Orr</td><td>31 Ash Ln</td><td>(555) 678-4410</td></tr>
</table>
<p>Copyright 2004 PeopleFinder Inc</p></body></html>`

var exDetails = []string{
	`<html><body><h2>Listing</h2><p>Name: Ann Lee</p><p>Street: 12 Oak St</p><p>Phone: (555) 283-9922</p></body></html>`,
	`<html><body><h2>Listing</h2><p>Name: Bob Day</p><p>Street: 99 Elm Rd</p><p>Phone: (555) 761-0301</p></body></html>`,
	`<html><body><h2>Listing</h2><p>Name: Cal Roe</p><p>Street: 7 Pine Ave</p><p>Phone: (555) 440-1188</p></body></html>`,
}

func exampleInput() tableseg.Input {
	in := tableseg.Input{
		ListPages: []tableseg.Page{{Name: "l1", HTML: exList1}, {Name: "l2", HTML: exList2}},
		Target:    0,
	}
	for i, d := range exDetails {
		in.DetailPages = append(in.DetailPages, tableseg.Page{Name: fmt.Sprintf("d%d", i+1), HTML: d})
	}
	return in
}

// The probabilistic method segments the list page and labels columns.
func ExampleSegment_probabilistic() {
	seg, err := tableseg.Segment(exampleInput(), tableseg.DefaultOptions(tableseg.Probabilistic))
	if err != nil {
		log.Fatal(err)
	}
	for _, rec := range seg.Records {
		fmt.Println(rec.Index+1, rec.Texts())
	}
	// Output:
	// 1 [Ann Lee 12 Oak St (555) 283-9922]
	// 2 [Bob Day 99 Elm Rd (555) 761-0301]
	// 3 [Cal Roe 7 Pine Ave (555) 440-1188]
}

// The CSP method solves the same instance with hard constraints.
func ExampleSegment_csp() {
	seg, err := tableseg.Segment(exampleInput(), tableseg.DefaultOptions(tableseg.CSP))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("status:", seg.CSPStatus)
	fmt.Println("records:", len(seg.Records))
	// Output:
	// status: solved
	// records: 3
}

// ReconstructTable rebuilds the relational view; WriteCSV exports it
// with the column names mined from the detail-page captions.
func ExampleWriteCSV() {
	seg, err := tableseg.Segment(exampleInput(), tableseg.DefaultOptions(tableseg.Probabilistic))
	if err != nil {
		log.Fatal(err)
	}
	if err := tableseg.WriteCSV(os.Stdout, seg); err != nil {
		log.Fatal(err)
	}
	// Output:
	// Name,Street,Phone
	// Ann Lee,12 Oak St,(555) 283-9922
	// Bob Day,99 Elm Rd,(555) 761-0301
	// Cal Roe,7 Pine Ave,(555) 440-1188
}
