package tableseg

import (
	"context"
	"encoding/csv"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"tableseg/internal/extract"
	"tableseg/internal/sitegen"
)

func exampleInput(t *testing.T) Input {
	t.Helper()
	site, err := sitegen.GenerateBySlug("butler", 42)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Target: 0}
	for _, l := range site.Lists {
		in.ListPages = append(in.ListPages, Page{HTML: l.HTML})
	}
	for _, d := range site.Lists[0].Details {
		in.DetailPages = append(in.DetailPages, Page{HTML: d})
	}
	return in
}

func TestPublicAPISegment(t *testing.T) {
	in := exampleInput(t)
	prob, err := Segment(in, DefaultOptions(Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	cspSeg, err := Segment(in, DefaultOptions(CSP))
	if err != nil {
		t.Fatal(err)
	}
	if len(prob.Records) != 15 || len(cspSeg.Records) != 15 {
		t.Fatalf("records: prob %d, csp %d, want 15", len(prob.Records), len(cspSeg.Records))
	}
	for i := range prob.Records {
		a := strings.Join(prob.Records[i].Texts(), "|")
		b := strings.Join(cspSeg.Records[i].Texts(), "|")
		if a != b {
			t.Errorf("record %d: methods disagree on clean data:\n  prob %s\n  csp  %s", i, a, b)
		}
	}
}

func TestSegmentWithOptions(t *testing.T) {
	in := exampleInput(t)
	opts := DefaultOptions(Probabilistic)
	opts.PHMMParams.MaxIter = 3
	seg, err := Segment(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seg.PHMM.Iters > 3 {
		t.Errorf("EM ran %d iterations, cap was 3", seg.PHMM.Iters)
	}
}

func TestReconstructTable(t *testing.T) {
	in := exampleInput(t)
	seg, err := Segment(in, DefaultOptions(Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	table := ReconstructTable(seg)
	if len(table) != 15 {
		t.Fatalf("%d rows", len(table))
	}
	// Every row's first column holds the record's first extract (the
	// parcel id for this site).
	for i, row := range table {
		if row[0] == "" {
			t.Errorf("row %d has empty first column: %v", i, row)
		}
		if !strings.Contains(row[0], "-") {
			t.Errorf("row %d first column %q does not look like a parcel id", i, row[0])
		}
	}
}

func TestReconstructTableWithoutColumns(t *testing.T) {
	in := exampleInput(t)
	opts := DefaultOptions(CSP)
	opts.CSPColumns = false // ablate §6.3 column extraction
	seg, err := Segment(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	table := ReconstructTable(seg)
	if len(table) != 15 {
		t.Fatalf("%d rows", len(table))
	}
	for i, row := range table {
		if len(row) != len(seg.Records[i].Extracts) {
			t.Errorf("row %d: %d cells for %d extracts (CSP rows are one cell per extract)", i, len(row), len(seg.Records[i].Extracts))
		}
	}
}

func TestWriteCSV(t *testing.T) {
	in := exampleInput(t)
	seg, err := Segment(in, DefaultOptions(Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	if err := WriteCSV(&buf, seg); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 16 { // header + 15 records
		t.Fatalf("%d CSV lines, want 16", len(lines))
	}
	if !strings.Contains(lines[0], "Parcel") || !strings.Contains(lines[0], "Owner") {
		t.Errorf("header = %q", lines[0])
	}
	// Every data row has the same number of fields as the header.
	want := strings.Count(lines[0], ",")
	for i, line := range lines[1:] {
		if strings.Count(line, ",") < want {
			t.Errorf("row %d has fewer fields: %q", i+1, line)
		}
	}
}

func TestLabelName(t *testing.T) {
	if labelName(0) != "L1" || labelName(11) != "L12" {
		t.Errorf("labelName: %s %s", labelName(0), labelName(11))
	}
}

func TestPublicHarvestAPI(t *testing.T) {
	site, err := sitegen.GenerateBySlug("ohio", 42)
	if err != nil {
		t.Fatal(err)
	}
	h := &Harvester{
		Fetcher: MapFetcher(site.SiteMap()),
		Options: DefaultOptions(Probabilistic),
	}
	table, results, err := h.HarvestAll(context.Background(), "/list1.html")
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("%d pages", len(results))
	}
	want := len(site.Lists[0].Truth) + len(site.Lists[1].Truth)
	if table.NumRows() != want {
		t.Errorf("%d rows, want %d", table.NumRows(), want)
	}
	if len(table.Schema()) != len(table.Columns) {
		t.Error("schema incomplete")
	}
	// MergeRelation over the raw segmentations agrees with HarvestAll.
	var segs []*Segmentation
	for _, r := range results {
		segs = append(segs, r.Segmentation)
	}
	if m := MergeRelation(segs); m.NumRows() != table.NumRows() {
		t.Errorf("MergeRelation rows %d vs %d", m.NumRows(), table.NumRows())
	}
}

func TestPublicLinksAndDiscovery(t *testing.T) {
	site, err := sitegen.GenerateBySlug("lee", 42)
	if err != nil {
		t.Fatal(err)
	}
	f := MapFetcher(site.SiteMap())
	urls, _, err := DiscoverListPages(f, "/list1.html", 0)
	if err != nil || len(urls) != 2 {
		t.Fatalf("urls=%v err=%v", urls, err)
	}
	links := Links("/list1.html", site.Lists[0].HTML)
	if len(links) < len(site.Lists[0].Truth) {
		t.Errorf("only %d links", len(links))
	}
}

// TestWriteCSVRoundTrip verifies that parsing WriteCSV's output
// recovers exactly the reconstructed table (padded to uniform width)
// under the header row, for both a labeled (probabilistic) and an
// unlabeled (CSP, no columns) segmentation.
func TestWriteCSVRoundTrip(t *testing.T) {
	in := exampleInput(t)
	prob, err := Segment(in, DefaultOptions(Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	noCols := DefaultOptions(CSP)
	noCols.CSPColumns = false
	noCols.MineLabels = false
	cspSeg, err := Segment(in, noCols)
	if err != nil {
		t.Fatal(err)
	}
	for name, seg := range map[string]*Segmentation{"prob": prob, "csp": cspSeg} {
		var buf strings.Builder
		if err := WriteCSV(&buf, seg); err != nil {
			t.Fatalf("%s: WriteCSV: %v", name, err)
		}
		rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
		if err != nil {
			t.Fatalf("%s: parsing our own CSV: %v", name, err)
		}
		if len(seg.ColumnLabels) > 0 {
			header := rows[0]
			rows = rows[1:]
			if len(header) != len(seg.ColumnLabels) {
				t.Fatalf("%s: header width %d, want %d", name, len(header), len(seg.ColumnLabels))
			}
			for i, l := range seg.ColumnLabels {
				if l == "" {
					l = "L" + strconv.Itoa(i+1)
				}
				if header[i] != l {
					t.Errorf("%s: header[%d] = %q, want %q", name, i, header[i], l)
				}
			}
		}
		table := ReconstructTable(seg)
		width := 0
		for _, row := range table {
			if len(row) > width {
				width = len(row)
			}
		}
		if len(rows) != len(table) {
			t.Fatalf("%s: %d CSV rows for %d table rows", name, len(rows), len(table))
		}
		for i, row := range table {
			padded := make([]string, width)
			copy(padded, row)
			if !reflect.DeepEqual(rows[i], padded) {
				t.Errorf("%s: row %d = %q, want %q", name, i, rows[i], padded)
			}
		}
	}
}

// TestWriteCSVPadsToHeader is a regression test: when label mining
// produces more column labels than any record's widest assigned
// column, data rows must still be padded to the header's width so the
// CSV stays rectangular.
func TestWriteCSVPadsToHeader(t *testing.T) {
	seg := &Segmentation{
		Method:       Probabilistic,
		ColumnLabels: []string{"Name", "Address", "Phone"},
		Records: []Record{
			{
				Index:    0,
				Extracts: []extract.Extract{{Words: []string{"Ann"}}},
				Columns:  []int{0},
			},
			{
				Index:    1,
				Extracts: []extract.Extract{{Words: []string{"Bob"}}, {Words: []string{"12 Elm St"}}},
				Columns:  []int{0, 1},
			},
		},
	}
	var buf strings.Builder
	if err := WriteCSV(&buf, seg); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatalf("output is not rectangular CSV: %v", err)
	}
	if len(rows) != 3 {
		t.Fatalf("%d rows, want header + 2 records", len(rows))
	}
	for i, row := range rows {
		if len(row) != 3 {
			t.Errorf("row %d has %d fields, want 3 (header width)", i, len(row))
		}
	}
	if rows[1][2] != "" || rows[2][2] != "" {
		t.Error("padding cells are not empty")
	}
}

// TestProbabilisticSingleColumn segments with one column under the
// Figure 2 flat hazard, options Validate accepts. That hazard, 1/C, is
// 1 at one column and would leave no path through a record of two or
// more extracts; it must be clamped like the period model's.
func TestProbabilisticSingleColumn(t *testing.T) {
	opts := DefaultOptions(Probabilistic)
	opts.PHMMParams.MaxColumns = 1
	opts.PHMMParams.PeriodModel = false
	if err := opts.Validate(); err != nil {
		t.Fatal(err)
	}
	seg, err := Segment(exampleInput(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Records) != 15 {
		t.Fatalf("%d records, want 15", len(seg.Records))
	}
}
