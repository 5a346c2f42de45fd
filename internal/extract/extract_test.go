package extract

import (
	"reflect"
	"strings"
	"testing"

	"tableseg/internal/token"
)

func TestIsSeparator(t *testing.T) {
	cases := []struct {
		text string
		want bool
	}{
		{"<td>", true},
		{"</tr>", true},
		{"<br/>", true},
		{"|", true},
		{"*", true},
		{"~", true},
		{"-", false}, // in the safe set .,()-
		{"--", false},
		{"(", false},
		{".", false},
		{"word", false},
		{"123", false},
		{"a|b", false}, // contains letters: not pure punctuation
	}
	for _, c := range cases {
		toks := token.Tokenize(c.text)
		if len(toks) != 1 {
			t.Fatalf("%q tokenized to %d tokens", c.text, len(toks))
		}
		if got := IsSeparator(toks[0]); got != c.want {
			t.Errorf("IsSeparator(%q) = %v, want %v", c.text, got, c.want)
		}
	}
}

func TestSplitBasic(t *testing.T) {
	page := token.Tokenize(`<tr><td>John Smith</td><td>New Holland</td><td>(740) 335-5555</td></tr>`)
	ex := Split(page, 0, len(page))
	want := []string{"John Smith", "New Holland", "(740) 335-5555"}
	if len(ex) != len(want) {
		t.Fatalf("got %d extracts, want %d: %+v", len(ex), len(want), ex)
	}
	for i, w := range want {
		if ex[i].Text() != w {
			t.Errorf("extract %d = %q, want %q", i, ex[i].Text(), w)
		}
		if ex[i].Index != i {
			t.Errorf("extract %d has Index %d", i, ex[i].Index)
		}
	}
}

func TestSplitPunctuationSeparators(t *testing.T) {
	// '~' and '|' are separators; ',' and '-' are not.
	page := token.Tokenize(`Findlay, OH ~ 419-423-1212 | Smith`)
	ex := Split(page, 0, len(page))
	want := []string{"Findlay, OH", "419-423-1212", "Smith"}
	if len(ex) != len(want) {
		t.Fatalf("got %v", texts(ex))
	}
	for i, w := range want {
		if ex[i].Text() != w {
			t.Errorf("extract %d = %q, want %q", i, ex[i].Text(), w)
		}
	}
}

func texts(ex []Extract) []string {
	out := make([]string, len(ex))
	for i := range ex {
		out[i] = ex[i].Text()
	}
	return out
}

func TestSplitRangeClamping(t *testing.T) {
	page := token.Tokenize(`a b c`)
	if got := Split(page, -5, 99); len(got) != 1 || got[0].Text() != "a b c" {
		t.Errorf("clamped split: %v", texts(got))
	}
	if got := Split(page, 2, 2); len(got) != 0 {
		t.Errorf("empty range: %v", texts(got))
	}
}

func TestSplitTokenRanges(t *testing.T) {
	page := token.Tokenize(`<b>x y</b><i>z</i>`)
	ex := Split(page, 0, len(page))
	if len(ex) != 2 {
		t.Fatalf("extracts: %v", texts(ex))
	}
	// Token ranges must index back into the page stream.
	if page[ex[0].TokenStart].Text != "x" || page[ex[0].TokenEnd-1].Text != "y" {
		t.Errorf("extract 0 range [%d,%d)", ex[0].TokenStart, ex[0].TokenEnd)
	}
	if page[ex[1].TokenStart].Text != "z" {
		t.Errorf("extract 1 range [%d,%d)", ex[1].TokenStart, ex[1].TokenEnd)
	}
}

func TestExtractTypeAccessors(t *testing.T) {
	page := token.Tokenize(`<b>John 335-5555</b>`)
	ex := Split(page, 0, len(page))
	if len(ex) != 1 {
		t.Fatal(texts(ex))
	}
	if !ex[0].FirstType().Has(token.Capitalized) {
		t.Errorf("FirstType = %v", ex[0].FirstType())
	}
	v := ex[0].TypeVector()
	// The union vector must include both Capitalized and Numeric bits.
	u := token.Capitalized | token.Numeric
	for _, bit := range u.Bits() {
		if !v[bit] {
			t.Errorf("type vector missing bit %d: %v", bit, v)
		}
	}
	var empty Extract
	if empty.FirstType() != 0 {
		t.Errorf("empty extract FirstType = %v", empty.FirstType())
	}
}

// observeWords runs Observe for one extract per query (built straight
// from its words) against a single detail page.
func observeWords(detail []token.Token, queries ...[]string) []Observation {
	ex := make([]Extract, len(queries))
	for i, q := range queries {
		ex[i] = Extract{Index: i, Words: q}
	}
	return Observe(ex, [][]token.Token{detail}, nil)
}

func TestObserveIgnoresSeparators(t *testing.T) {
	// The paper's footnote: "FirstName LastName" on the list page must
	// match "FirstName <br> LastName" on the detail page.
	detail := token.Tokenize(`<html><body>John<br>Smith lives at<br>221 Washington</body></html>`)
	obs := observeWords(detail,
		[]string{"John", "Smith"},
		[]string{"221", "Washington"},
		[]string{"Smith", "John"},
		[]string{"Jane"},
		nil,
	)
	for i, want := range []bool{true, true, false, false, false} {
		if got := len(obs[i].Pages) > 0; got != want {
			t.Errorf("%q matched = %v, want %v (observation %+v)", obs[i].Extract.Words, got, want, obs[i])
		}
	}
	// The separator-intervened match is reported at the stream position
	// of its first word.
	if occ := obs[0].Occurrences; len(occ) != 1 || detail[occ[0].Pos].Text != "John" {
		t.Errorf("John Smith occurrences = %v", occ)
	}
}

func TestObservePositions(t *testing.T) {
	detail := token.Tokenize(`x John Smith y John Smith`)
	obs := observeWords(detail, []string{"John", "Smith"})
	occ := obs[0].Occurrences
	if len(occ) != 2 {
		t.Fatalf("occurrences: %v", occ)
	}
	if occ[0].Pos >= occ[1].Pos {
		t.Errorf("positions not ascending: %v", occ)
	}
	// Two sightings on one page list the page once.
	if !reflect.DeepEqual(obs[0].Pages, []int{0}) {
		t.Errorf("pages = %v, want [0]", obs[0].Pages)
	}
}

func TestObserveSuperpagesExample(t *testing.T) {
	// Reconstruction of the paper's Table 1: 3 records; extracts
	// E1/E4/E5/E8 shared between records 1 and 2.
	list := token.Tokenize(`<table>` +
		`<tr><td>John Smith</td><td>221 Washington</td><td>New Holland</td><td>(740) 335-5555</td></tr>` +
		`<tr><td>John Smith</td><td>221R Washington</td><td>Washington</td><td>(740) 335-5555</td></tr>` +
		`<tr><td>George W. Smith</td><td>Findlay, OH</td><td>(419) 423-1212</td></tr>` +
		`</table>`)
	detail := func(fields ...string) []token.Token {
		return token.Tokenize(`<html><body><h2>Detail</h2><p>` + strings.Join(fields, `</p><p>`) + `</p></body></html>`)
	}
	details := [][]token.Token{
		detail("John Smith", "221 Washington", "New Holland", "(740) 335-5555"),
		detail("John Smith", "221R Washington", "Washington", "(740) 335-5555"),
		detail("George W. Smith", "Findlay, OH", "(419) 423-1212"),
	}
	ex := Split(list, 0, len(list))
	if len(ex) != 11 {
		t.Fatalf("want 11 extracts (E1..E11), got %d: %v", len(ex), texts(ex))
	}
	obs := Observe(ex, details, nil)

	wantPages := [][]int{
		{0, 1}, // E1 John Smith
		{0},    // E2 221 Washington
		{0},    // E3 New Holland
		{0, 1}, // E4 (740) 335-5555
		{0, 1}, // E5 John Smith
		{1},    // E6 221R Washington
		{0, 1}, // E7 Washington — also matches inside "221 Washington" on page 0
		{0, 1}, // E8 phone
		{2},    // E9 George W. Smith
		{2},    // E10 Findlay, OH
		{2},    // E11 (419) 423-1212
	}
	for i, want := range wantPages {
		got := obs[i].Pages
		if len(got) != len(want) {
			t.Errorf("E%d pages = %v, want %v", i+1, got, want)
			continue
		}
		for k := range want {
			if got[k] != want[k] {
				t.Errorf("E%d pages = %v, want %v", i+1, got, want)
			}
		}
	}
	// Observations must be informative (3 detail pages, none on all).
	analyzed := InformativeSubset(obs, len(details))
	if len(analyzed) != 11 {
		t.Errorf("analyzed = %v, want all 11", analyzed)
	}
}

func TestObserveFiltersBoilerplate(t *testing.T) {
	list := token.Tokenize(`<p>More Info</p><p>Alpha</p><p>Beta</p>`)
	otherList := token.Tokenize(`<p>More Info</p><p>Gamma</p>`)
	details := [][]token.Token{
		token.Tokenize(`<p>Alpha</p><p>More Info</p><p>Common Footer</p>`),
		token.Tokenize(`<p>Beta</p><p>More Info</p><p>Common Footer</p>`),
	}
	ex := Split(list, 0, len(list))
	obs := Observe(ex, details, [][]token.Token{otherList})

	byText := map[string]*Observation{}
	for i := range obs {
		byText[obs[i].Extract.Text()] = &obs[i]
	}
	if o := byText["More Info"]; !o.OnAllListPages {
		t.Error("More Info should be flagged on all list pages")
	}
	if o := byText["More Info"]; o.Informative(len(details)) {
		t.Error("More Info must be filtered (all list pages AND all detail pages)")
	}
	if o := byText["Alpha"]; !o.Informative(len(details)) {
		t.Errorf("Alpha should be informative: %+v", o)
	}
	if o := byText["Beta"]; len(o.Pages) != 1 || o.Pages[0] != 1 {
		t.Errorf("Beta pages = %v", o.Pages)
	}
}

func TestObservationOnPage(t *testing.T) {
	o := Observation{Pages: []int{0, 2, 5}}
	for _, j := range []int{0, 2, 5} {
		if !o.OnPage(j) {
			t.Errorf("OnPage(%d) = false", j)
		}
	}
	for _, j := range []int{1, 3, 4, 6, -1} {
		if o.OnPage(j) {
			t.Errorf("OnPage(%d) = true", j)
		}
	}
}

func TestPositionGroups(t *testing.T) {
	// Two detail pages; "John Smith" and "Jane Smith" both start at the
	// same token position on page 0 (they are alternatives for the same
	// field slot).
	d0 := token.Tokenize(`<p>John Smith</p>`)
	d1 := token.Tokenize(`<p>Jane Smith</p>`)
	list := token.Tokenize(`<p>John Smith</p><p>Jane Smith</p>`)
	ex := Split(list, 0, len(list))
	obs := Observe(ex, [][]token.Token{d0, d1}, nil)
	analyzed := InformativeSubset(obs, 2)
	groups := PositionGroups(obs, analyzed, 2)
	// Each page has only one extract, so no shared-position groups.
	if len(groups) != 0 {
		t.Errorf("unexpected groups: %v", groups)
	}

	// Now a page where two extracts genuinely collide: page contains
	// "John Smith" twice, and the list has two "John Smith" extracts.
	dd := token.Tokenize(`<p>John Smith</p><p>John Smith</p>`)
	list2 := token.Tokenize(`<p>John Smith</p><p>Jane Roe</p><p>John Smith</p>`)
	ex2 := Split(list2, 0, len(list2))
	obs2 := Observe(ex2, [][]token.Token{dd, d1}, nil)
	analyzed2 := InformativeSubset(obs2, 2)
	groups2 := PositionGroups(obs2, analyzed2, 2)
	if len(groups2[0]) == 0 {
		t.Fatalf("expected shared-position groups on page 0: %v", groups2)
	}
	for _, g := range groups2[0] {
		if len(g) < 2 {
			t.Errorf("degenerate group %v", g)
		}
	}
}

func TestInformativeEdgeCases(t *testing.T) {
	o := Observation{} // no pages
	if o.Informative(3) {
		t.Error("extract with empty D must be uninformative")
	}
	all := Observation{Pages: []int{0, 1, 2}}
	if all.Informative(3) {
		t.Error("extract on all detail pages must be uninformative")
	}
	some := Observation{Pages: []int{0, 1}}
	if !some.Informative(3) {
		t.Error("extract on a strict subset must be informative")
	}
}
