package core

import (
	"strings"
	"testing"

	"tableseg/internal/csp"
	"tableseg/internal/sitegen"
)

func siteInput(t *testing.T, slug string, pageIdx int) (Input, *sitegen.Site) {
	t.Helper()
	site, err := sitegen.GenerateBySlug(slug, 42)
	if err != nil {
		t.Fatal(err)
	}
	in := Input{Target: pageIdx}
	for _, l := range site.Lists {
		in.ListPages = append(in.ListPages, Page{HTML: l.HTML})
	}
	for _, d := range site.Lists[pageIdx].Details {
		in.DetailPages = append(in.DetailPages, Page{HTML: d})
	}
	return in, site
}

func TestCombinedUsesCSPOnCleanData(t *testing.T) {
	in, site := siteInput(t, "butler", 0)
	seg, err := segment(in, DefaultOptions(Combined))
	if err != nil {
		t.Fatal(err)
	}
	if seg.CSPStatus != csp.Solved {
		t.Errorf("clean site: CSP status %v, want Solved (combined should trust the CSP)", seg.CSPStatus)
	}
	if seg.PHMM != nil {
		t.Error("combined ran the probabilistic model on clean data")
	}
	if len(seg.Records) != len(site.Lists[0].Truth) {
		t.Errorf("%d records", len(seg.Records))
	}
	// CSP-based columns must be present.
	hasCols := false
	for _, rec := range seg.Records {
		for _, c := range rec.Columns {
			if c >= 0 {
				hasCols = true
			}
		}
	}
	if !hasCols {
		t.Error("no CSP column labels in combined output")
	}
}

func TestCombinedFallsBackOnDirtyData(t *testing.T) {
	in, site := siteInput(t, "michigan", 1) // Parole/Parolee page
	seg, err := segment(in, DefaultOptions(Combined))
	if err != nil {
		t.Fatal(err)
	}
	if seg.CSPStatus == csp.Solved {
		t.Fatal("dirty page unexpectedly satisfied the strict CSP; pathology lost")
	}
	if seg.PHMM == nil {
		t.Error("combined did not fall back to the probabilistic model")
	}
	if seg.Relaxed {
		t.Error("Relaxed is true, but combined runs only the strict CSP rung")
	}
	if len(seg.Records) != len(site.Lists[1].Truth) {
		t.Errorf("%d records, want %d", len(seg.Records), len(site.Lists[1].Truth))
	}
}

func TestStripEnumerationOptionInPipeline(t *testing.T) {
	in, site := siteInput(t, "bnbooks", 0)
	opts := DefaultOptions(Probabilistic)
	opts.StripEnumeration = true
	seg, err := segment(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seg.EnumerationStripped == 0 {
		t.Fatal("enumeration heuristic did not fire on a numbered site")
	}
	if seg.UsedWholePage {
		t.Error("whole-page fallback fired despite enumeration stripping")
	}
	if len(seg.Records) != len(site.Lists[0].Truth) {
		t.Errorf("%d records, want %d", len(seg.Records), len(site.Lists[0].Truth))
	}

	// Without the option the same site uses the whole page.
	opts.StripEnumeration = false
	seg2, err := segment(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !seg2.UsedWholePage || seg2.EnumerationStripped != 0 {
		t.Error("baseline behaviour changed")
	}
}

func TestColumnLabelsMined(t *testing.T) {
	in, _ := siteInput(t, "allegheny", 0)
	for _, m := range []Method{CSP, Probabilistic} {
		seg, err := segment(in, DefaultOptions(m))
		if err != nil {
			t.Fatal(err)
		}
		if len(seg.ColumnLabels) == 0 {
			t.Fatalf("%v: no column labels", m)
		}
		joined := strings.Join(seg.ColumnLabels, " ")
		for _, want := range []string{"Parcel", "Owner"} {
			if !strings.Contains(joined, want) {
				t.Errorf("%v: labels %v missing %q", m, seg.ColumnLabels, want)
			}
		}
	}
	// Disabled mining yields no labels.
	opts := DefaultOptions(CSP)
	opts.MineLabels = false
	seg, err := segment(in, opts)
	if err != nil {
		t.Fatal(err)
	}
	if seg.ColumnLabels != nil {
		t.Errorf("labels mined despite MineLabels=false: %v", seg.ColumnLabels)
	}
}

func TestMethodStringAll(t *testing.T) {
	cases := map[Method]string{
		CSP: "csp", Probabilistic: "probabilistic", Combined: "combined", Method(9): "unknown",
	}
	for m, want := range cases {
		if m.String() != want {
			t.Errorf("Method(%d).String() = %q, want %q", m, m.String(), want)
		}
	}
}

func TestCoversAllPages(t *testing.T) {
	in, _ := siteInput(t, "butler", 0)
	seg, err := segment(in, DefaultOptions(CSP))
	if err != nil {
		t.Fatal(err)
	}
	// Clean grid: the table slot covers every detail page, so the
	// structural fallback must not have fired.
	if seg.UsedWholePage {
		t.Error("coverage fallback fired on a clean site")
	}
}

func TestConfidencePropagation(t *testing.T) {
	in, _ := siteInput(t, "butler", 0)
	seg, err := segment(in, DefaultOptions(Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	for ri, rec := range seg.Records {
		if len(rec.Confidence) != len(rec.Extracts) {
			t.Fatalf("record %d: %d confidences for %d extracts", ri, len(rec.Confidence), len(rec.Extracts))
		}
		for k, c := range rec.Confidence {
			if rec.Analyzed[k] {
				if c < 0 || c > 1+1e-9 {
					t.Errorf("record %d extract %d: confidence %f", ri, k, c)
				}
			} else if c != -1 {
				t.Errorf("record %d extract %d: attached extract has confidence %f", ri, k, c)
			}
		}
	}
	// CSP output carries no posterior confidences.
	cspSeg, err := segment(in, DefaultOptions(CSP))
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range cspSeg.Records {
		for _, c := range rec.Confidence {
			if c != -1 {
				t.Errorf("CSP record has confidence %f", c)
			}
		}
	}
}
