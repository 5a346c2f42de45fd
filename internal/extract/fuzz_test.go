package extract

import (
	"reflect"
	"testing"

	"tableseg/internal/token"
)

// FuzzExtracts drives the §3 extraction front end — tokenize, split
// into extracts, observe against a detail page — with arbitrary HTML
// and checks the structural invariants every downstream solver relies
// on: extracts are non-empty, ordered, non-overlapping, and their
// token/byte spans stay inside the page. Observe must also agree
// exactly with the reference implementation.
func FuzzExtracts(f *testing.F) {
	f.Add("<html><body><b>John Smith</b><br>221 Washington<br>(740) 335-5555</body></html>",
		"<html><body><p>John Smith</p><p>221 Washington</p></body></html>")
	f.Add("<div>a<div>b</div>c</div>", "<p>a b c</p>")
	f.Add("", "")
	f.Add("plain text, no tags & a (555) 123-4567 number", "<p>(555) 123-4567</p>")
	f.Add("<a href=\"x\">1. First</a><a href=\"y\">2. Second</a>", "<h1>First</h1>")

	f.Fuzz(func(t *testing.T, listHTML, detailHTML string) {
		page := token.Tokenize(listHTML)
		extracts := Split(page, 0, len(page))

		prevEnd := 0
		for i, e := range extracts {
			if e.Index != i {
				t.Fatalf("extract %d has Index %d", i, e.Index)
			}
			if len(e.Words) == 0 {
				t.Fatalf("extract %d is empty", i)
			}
			if len(e.Words) != len(e.Types) {
				t.Fatalf("extract %d: %d words but %d types", i, len(e.Words), len(e.Types))
			}
			if e.TokenStart < prevEnd || e.TokenEnd <= e.TokenStart || e.TokenEnd > len(page) {
				t.Fatalf("extract %d has span [%d,%d) (previous end %d, page %d tokens)",
					i, e.TokenStart, e.TokenEnd, prevEnd, len(page))
			}
			if e.ByteStart < 0 || e.ByteEnd < e.ByteStart || e.ByteEnd > len(listHTML) {
				t.Fatalf("extract %d has byte span [%d,%d) in a %d-byte page",
					i, e.ByteStart, e.ByteEnd, len(listHTML))
			}
			prevEnd = e.TokenEnd
		}

		// Observation against an arbitrary detail page must not panic
		// and must reference only that page (index 0).
		detail := token.Tokenize(detailHTML)
		obs := Observe(extracts, [][]token.Token{detail}, nil)
		if len(obs) != len(extracts) {
			t.Fatalf("%d observations for %d extracts", len(obs), len(extracts))
		}
		for i, o := range obs {
			for _, p := range o.Pages {
				if p != 0 {
					t.Fatalf("observation %d references detail page %d (only page 0 exists)", i, p)
				}
			}
		}
		for _, ai := range InformativeSubset(obs, 1) {
			if ai < 0 || ai >= len(obs) {
				t.Fatalf("InformativeSubset index %d out of range [0,%d)", ai, len(obs))
			}
		}

		// The list page doubles as a second detail page, where every
		// extract matches at least once, and the detail page as the
		// other list page.
		details := [][]token.Token{detail, page}
		others := [][]token.Token{detail}
		if got, want := Observe(extracts, details, others), referenceObserve(extracts, details, others); !reflect.DeepEqual(got, want) {
			t.Fatalf("Observe differs from the reference:\ngot  %+v\nwant %+v", got, want)
		}
	})
}
