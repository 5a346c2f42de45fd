package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"tableseg/internal/csp"
)

// buildSite makes a small two-list-page site with grid rows and matching
// detail pages.
func buildSite(rows1, rows2 [][]string) (lists []Page, details []Page) {
	render := func(rows [][]string) string {
		var b strings.Builder
		b.WriteString("<html><body><h1>Test Site Directory</h1><p>Search Results Below Refine Query Advanced Options</p><table>")
		for _, r := range rows {
			b.WriteString("<tr>")
			for _, c := range r {
				b.WriteString("<td>" + c + "</td>")
			}
			b.WriteString("</tr>")
		}
		b.WriteString("</table><p>Copyright 2004 Test Site Inc Terms Privacy Contact</p></body></html>")
		return b.String()
	}
	lists = []Page{{Name: "l1", HTML: render(rows1)}, {Name: "l2", HTML: render(rows2)}}
	for i, r := range rows1 {
		details = append(details, Page{
			Name: fmt.Sprintf("d%d", i),
			HTML: "<html><body><h2>Detail View</h2><p>" + strings.Join(r, "</p><p>") + "</p><p>Common Detail Footer</p></body></html>",
		})
	}
	return lists, details
}

var rows1 = [][]string{
	{"Ann Lee", "12 Oak St", "(555) 283-9922"},
	{"Bob Day", "99 Elm Rd", "(555) 761-0301"},
	{"Cal Roe", "7 Pine Ave", "(555) 440-1188"},
}
var rows2 = [][]string{
	{"Dee Fox", "4 Elm Ct", "(555) 019-3321"},
	{"Eli Orr", "31 Ash Ln", "(555) 678-4410"},
}

func TestSegmentBothMethods(t *testing.T) {
	lists, details := buildSite(rows1, rows2)
	in := Input{ListPages: lists, Target: 0, DetailPages: details}
	for _, m := range []Method{CSP, Probabilistic} {
		seg, err := segment(in, DefaultOptions(m))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if seg.UsedWholePage {
			t.Errorf("%v: unexpected whole-page fallback (quality %.2f)", m, seg.TemplateQuality)
		}
		if len(seg.Records) != 3 {
			t.Fatalf("%v: %d records, want 3", m, len(seg.Records))
		}
		for ri, rec := range seg.Records {
			if rec.Index != ri {
				t.Errorf("%v: record %d has index %d", m, ri, rec.Index)
			}
			got := strings.Join(rec.Texts(), " ")
			want := strings.Join(rows1[ri], " ")
			if got != want {
				t.Errorf("%v: record %d = %q, want %q", m, ri, got, want)
			}
		}
	}
}

func TestSegmentColumnsFromPHMM(t *testing.T) {
	lists, details := buildSite(rows1, rows2)
	in := Input{ListPages: lists, Target: 0, DetailPages: details}
	seg, err := segment(in, DefaultOptions(Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range seg.Records {
		for i := 1; i < len(rec.Columns); i++ {
			if rec.Columns[i] <= rec.Columns[i-1] {
				t.Errorf("record %d columns not increasing: %v", rec.Index, rec.Columns)
			}
		}
		if rec.Columns[0] != 0 {
			t.Errorf("record %d starts at column %d", rec.Index, rec.Columns[0])
		}
	}
	if seg.PHMM == nil {
		t.Error("PHMM result not attached")
	}
}

func TestSegmentValidation(t *testing.T) {
	lists, details := buildSite(rows1, rows2)
	if _, err := segment(Input{}, DefaultOptions(CSP)); err == nil {
		t.Error("empty input must fail")
	}
	if _, err := segment(Input{ListPages: lists, Target: 5, DetailPages: details}, DefaultOptions(CSP)); err == nil {
		t.Error("out-of-range target must fail")
	}
	if _, err := segment(Input{ListPages: lists, Target: 0}, DefaultOptions(CSP)); err == nil {
		t.Error("missing detail pages must fail")
	}
	if _, err := segment(Input{ListPages: lists, Target: 0, DetailPages: details}, Options{Method: Method(9)}); err == nil {
		t.Error("unknown method must fail")
	}
}

func TestSegmentSingleListPage(t *testing.T) {
	// With only one sample page, cross-page template induction is
	// impossible; the pipeline falls back to single-page row-structure
	// analysis, which on a grid page still bounds the table.
	lists, details := buildSite(rows1, rows2)
	in := Input{ListPages: lists[:1], Target: 0, DetailPages: details}
	seg, err := segment(in, DefaultOptions(Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	if seg.UsedWholePage {
		t.Error("repeated-row page should get a single-page slot, not the whole page")
	}
	if len(seg.Records) != 3 {
		t.Errorf("%d records, want 3", len(seg.Records))
	}
	for ri, rec := range seg.Records {
		got := strings.Join(rec.Texts(), " ")
		want := strings.Join(rows1[ri], " ")
		if got != want {
			t.Errorf("record %d = %q, want %q", ri, got, want)
		}
	}

	// A single page with no repeated row structure falls back to the
	// whole page; with a single detail page no extract is informative
	// (everything appears on all detail pages), which the redesigned
	// API reports as the typed ErrNoDetailEvidence while still
	// returning the diagnostics.
	oneOff := Page{HTML: `<html><body><p>Ann Lee</p><span>12 Oak St</span><i>(555) 283-9922</i></body></html>`}
	in2 := Input{ListPages: []Page{oneOff}, Target: 0, DetailPages: details[:1]}
	seg2, err := segment(in2, DefaultOptions(Probabilistic))
	if !errors.Is(err, ErrNoDetailEvidence) {
		t.Fatalf("err = %v, want ErrNoDetailEvidence", err)
	}
	if seg2 == nil || !seg2.UsedWholePage {
		t.Error("structureless page must use the whole page")
	}
}

func TestSegmentForceWholePage(t *testing.T) {
	lists, details := buildSite(rows1, rows2)
	in := Input{ListPages: lists, Target: 0, DetailPages: details}
	opts := DefaultOptions(CSP)
	opts.ForceWholePage = true
	seg, err := segment(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !seg.UsedWholePage {
		t.Error("ForceWholePage ignored")
	}
	if len(seg.Records) != 3 {
		t.Errorf("%d records, want 3", len(seg.Records))
	}
}

// The §6.2 attachment rule: a string with no detail-page evidence joins
// the record of the last assigned extract.
func TestAttachmentRule(t *testing.T) {
	// "view map" appears on the list page only (after each phone),
	// like the paper's "More Info"/"Send Flowers" extras — but only on
	// list page 1, so the all-list-pages filter does not remove it.
	r1 := [][]string{
		{"Ann Lee", "12 Oak St", "(555) 283-9922", "view map"},
		{"Bob Day", "99 Elm Rd", "(555) 761-0301", "view map"},
	}
	render := func(rows [][]string, footer string) string {
		var b strings.Builder
		b.WriteString("<html><body><h1>Test Site Directory</h1><p>Search Results Below Refine Query Advanced Options</p><table>")
		for _, r := range rows {
			b.WriteString("<tr>")
			for _, c := range r {
				b.WriteString("<td>" + c + "</td>")
			}
			b.WriteString("</tr>")
		}
		b.WriteString("</table>" + footer + "</body></html>")
		return b.String()
	}
	lists := []Page{
		{Name: "l1", HTML: render(r1, "<p>Copyright 2004 Test Site Inc Terms Privacy Contact</p>")},
		{Name: "l2", HTML: render([][]string{{"Dee Fox", "4 Elm Ct", "(555) 019-3321", "directions"}}, "<p>Copyright 2004 Test Site Inc Terms Privacy Contact</p>")},
	}
	details := []Page{
		{Name: "d0", HTML: "<html><body><h2>Detail View</h2><p>Ann Lee</p><p>12 Oak St</p><p>(555) 283-9922</p></body></html>"},
		{Name: "d1", HTML: "<html><body><h2>Detail View</h2><p>Bob Day</p><p>99 Elm Rd</p><p>(555) 761-0301</p></body></html>"},
	}
	in := Input{ListPages: lists, Target: 0, DetailPages: details}
	seg, err := segment(in, DefaultOptions(CSP))
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Records) != 2 {
		t.Fatalf("%d records", len(seg.Records))
	}
	for ri, rec := range seg.Records {
		texts := rec.Texts()
		if texts[len(texts)-1] != "view map" {
			t.Errorf("record %d: 'view map' not attached: %v", ri, texts)
		}
		// The attached extract must be flagged as non-analyzed.
		if rec.Analyzed[len(rec.Analyzed)-1] {
			t.Errorf("record %d: attached extract marked analyzed", ri)
		}
		if !rec.Analyzed[0] {
			t.Errorf("record %d: anchor extract not marked analyzed", ri)
		}
	}
}

func TestNumberedEntriesWholePageFallback(t *testing.T) {
	render := func(rows []string) string {
		var b strings.Builder
		b.WriteString("<html><body><h1>Numbered Books Store Results</h1><p>Many Fine Titles Available Here Daily</p>")
		for i, r := range rows {
			fmt.Fprintf(&b, "<p><b>%d.</b> <a href=\"d\">%s</a></p>", i+1, r)
		}
		b.WriteString("<p>Copyright 2004 Numbered Books Inc Terms Privacy</p></body></html>")
		return b.String()
	}
	lists := []Page{
		{Name: "l1", HTML: render([]string{"Alpha Tale", "Beta Story", "Gamma Saga", "Delta Myth"})},
		{Name: "l2", HTML: render([]string{"Epsilon Epic", "Zeta Fable", "Eta Legend", "Theta Yarn"})},
	}
	var details []Page
	for _, tl := range []string{"Alpha Tale", "Beta Story", "Gamma Saga", "Delta Myth"} {
		details = append(details, Page{HTML: "<html><body><h2>Book Detail</h2><p>" + tl + "</p></body></html>"})
	}
	in := Input{ListPages: lists, Target: 0, DetailPages: details}
	seg, err := segment(in, DefaultOptions(CSP))
	if err != nil {
		t.Fatal(err)
	}
	if !seg.UsedWholePage {
		t.Errorf("numbered entries should force whole-page fallback (quality %.2f)", seg.TemplateQuality)
	}
	if len(seg.Records) != 4 {
		t.Errorf("%d records, want 4", len(seg.Records))
	}
}

func TestCSPStatusPropagates(t *testing.T) {
	lists, details := buildSite(rows1, rows2)
	in := Input{ListPages: lists, Target: 0, DetailPages: details}
	seg, err := segment(in, DefaultOptions(CSP))
	if err != nil {
		t.Fatal(err)
	}
	if seg.CSPStatus != csp.Solved {
		t.Errorf("status %v, want Solved", seg.CSPStatus)
	}
	if seg.Relaxed {
		t.Error("clean input should not relax")
	}
}

func TestMethodString(t *testing.T) {
	if CSP.String() != "csp" || Probabilistic.String() != "probabilistic" {
		t.Error("method strings")
	}
}

func TestSentinelErrors(t *testing.T) {
	lists, details := buildSite(rows1, rows2)
	if _, err := segment(Input{DetailPages: details}, DefaultOptions(CSP)); !errors.Is(err, ErrTooFewListPages) {
		t.Errorf("err = %v, want ErrTooFewListPages", err)
	}
	if _, err := segment(Input{ListPages: lists, Target: 9, DetailPages: details}, DefaultOptions(CSP)); !errors.Is(err, ErrBadTarget) {
		t.Errorf("err = %v, want ErrBadTarget", err)
	}
	if _, err := segment(Input{ListPages: lists}, DefaultOptions(CSP)); !errors.Is(err, ErrNoDetailPages) {
		t.Errorf("err = %v, want ErrNoDetailPages", err)
	}
}

// Extracts before the first method-assigned extract belong to no record
// (page prologue); extracts after the last assigned one attach to it.
func TestPrologueDroppedEpilogueAttached(t *testing.T) {
	// The page has leading junk ("Intro Words Here") that matches no
	// detail page and trailing junk after the last record.
	list1 := `<html><body><p>Intro Words Here</p>` +
		`<table><tr><td>Ann Lee</td><td>(555) 283-9922</td></tr>` +
		`<tr><td>Bob Day</td><td>(555) 761-0301</td></tr></table>` +
		`<p>trailing epilogue words</p></body></html>`
	in := Input{
		ListPages: []Page{{HTML: list1}},
		Target:    0,
		DetailPages: []Page{
			{HTML: `<p>Ann Lee</p><p>(555) 283-9922</p>`},
			{HTML: `<p>Bob Day</p><p>(555) 761-0301</p>`},
		},
	}
	opts := DefaultOptions(CSP)
	opts.ForceWholePage = true // keep junk in scope deliberately
	seg, err := segment(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(seg.Records) != 2 {
		t.Fatalf("%d records", len(seg.Records))
	}
	joined0 := strings.Join(seg.Records[0].Texts(), " ")
	if strings.Contains(joined0, "Intro") {
		t.Errorf("prologue attached to record 1: %q", joined0)
	}
	joined1 := strings.Join(seg.Records[1].Texts(), " ")
	if !strings.Contains(joined1, "trailing epilogue words") {
		t.Errorf("epilogue not attached to last record: %q", joined1)
	}
}
