package extract

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tableseg/internal/token"
)

// The reference Observe below indexes every detail page and probes the
// index once per extract. It is the straightforward reading of §3.2
// that Observe's single-pass extract index must agree with exactly:
// the differential tests compare the two with reflect.DeepEqual.

// refPage is a detail page prepared for matching: its non-separator
// words, each word's original stream position, and a word → indices
// map.
type refPage struct {
	words   []string
	streams []int
	starts  map[string][]int
}

func refIndex(page []token.Token) *refPage {
	rp := &refPage{starts: make(map[string][]int)}
	for i, t := range page {
		if IsSeparator(t) {
			continue
		}
		rp.starts[t.Text] = append(rp.starts[t.Text], len(rp.words))
		rp.words = append(rp.words, t.Text)
		rp.streams = append(rp.streams, i)
	}
	return rp
}

// find returns the stream positions at which words occurs contiguously
// in the page's visible text.
func (rp *refPage) find(words []string) []int {
	if len(words) == 0 {
		return nil
	}
	var out []int
	for _, w0 := range rp.starts[words[0]] {
		if w0+len(words) > len(rp.words) {
			continue
		}
		ok := true
		for k := 1; k < len(words); k++ {
			if rp.words[w0+k] != words[k] {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, rp.streams[w0])
		}
	}
	return out
}

func referenceObserve(extracts []Extract, details [][]token.Token, otherLists [][]token.Token) []Observation {
	idx := make([]*refPage, len(details))
	for j, d := range details {
		idx[j] = refIndex(d)
	}
	otherIdx := make([]*refPage, len(otherLists))
	for j, p := range otherLists {
		otherIdx[j] = refIndex(p)
	}
	obs := make([]Observation, len(extracts))
	for i, e := range extracts {
		o := Observation{Extract: e}
		for j := range idx {
			positions := idx[j].find(e.Words)
			if len(positions) == 0 {
				continue
			}
			o.Pages = append(o.Pages, j)
			for _, p := range positions {
				o.Occurrences = append(o.Occurrences, Occurrence{Page: j, Pos: p})
			}
		}
		if len(otherIdx) > 0 {
			onAll := true
			for _, li := range otherIdx {
				if len(li.find(e.Words)) == 0 {
					onAll = false
					break
				}
			}
			o.OnAllListPages = onAll
		}
		obs[i] = o
	}
	return obs
}

// refWords are the words random Observe inputs draw from. Most are
// plain, so matches, repeats and overlaps are common; the rest are
// words that a joined-string key would confuse with a two-word
// sequence ("a b", "a\x00b") and the empty word.
var refWords = []string{"a", "a", "a", "b", "b", "c", "-", "a b", "a\x00b", "a\x00", ""}

// refSeparators are tokens that IsSeparator drops.
var refSeparators = []token.Token{{Text: "<br>", Type: token.HTML}, {Text: "</td>", Type: token.HTML}, {Text: "|", Type: token.Punct}}

func refWord(rng *rand.Rand) string { return refWords[rng.Intn(len(refWords))] }

// refPageTokens draws a page of up to 12 tokens; one page in ten holds
// separators only.
func refPageTokens(rng *rand.Rand) []token.Token {
	n := rng.Intn(13)
	wordless := rng.Intn(10) == 0
	page := make([]token.Token, 0, n)
	for i := 0; i < n; i++ {
		if wordless || rng.Intn(4) == 0 {
			page = append(page, refSeparators[rng.Intn(len(refSeparators))])
			continue
		}
		w := refWord(rng)
		page = append(page, token.Token{Text: w, Type: token.TypeOf(w), Offset: i})
	}
	return page
}

// visibleWords returns the page's non-separator words.
func visibleWords(page []token.Token) []string {
	var out []string
	for _, t := range page {
		if !IsSeparator(t) {
			out = append(out, t.Text)
		}
	}
	return out
}

// refExtracts draws up to 8 extracts: fresh random words, copies of an
// earlier extract, an earlier extract's first word with a new tail, or
// a run of visible words cut from a detail page.
func refExtracts(rng *rand.Rand, details [][]token.Token) []Extract {
	n := rng.Intn(9)
	ex := make([]Extract, 0, n)
	for i := 0; i < n; i++ {
		var words []string
		switch k := rng.Intn(10); {
		case k < 2 && len(ex) > 0:
			words = slices.Clone(ex[rng.Intn(len(ex))].Words)
		case k < 4 && len(ex) > 0:
			if src := ex[rng.Intn(len(ex))].Words; len(src) > 0 {
				words = []string{src[0]}
				for m := rng.Intn(3); m > 0; m-- {
					words = append(words, refWord(rng))
				}
			}
		case k < 7 && len(details) > 0:
			vis := visibleWords(details[rng.Intn(len(details))])
			if len(vis) > 0 {
				a := rng.Intn(len(vis))
				b := a + 1 + rng.Intn(min(3, len(vis)-a))
				words = slices.Clone(vis[a:b])
			}
		default:
			for m := rng.Intn(5); m > 0; m-- {
				words = append(words, refWord(rng))
			}
		}
		ex = append(ex, Extract{Index: i, Words: words, TokenStart: i, TokenEnd: i + len(words)})
	}
	return ex
}

// refInput draws one Observe input: 0–4 detail pages, up to 8
// extracts and 0–3 other list pages.
func refInput(seed int64) (extracts []Extract, details, others [][]token.Token) {
	rng := rand.New(rand.NewSource(seed))
	for n := rng.Intn(5); n > 0; n-- {
		details = append(details, refPageTokens(rng))
	}
	extracts = refExtracts(rng, details)
	for n := rng.Intn(4); n > 0; n-- {
		others = append(others, refPageTokens(rng))
	}
	return extracts, details, others
}

// refShapes names the input shapes TestObserveMatchesReference must
// cover, and reports which of them one input has.
func refShapes(extracts []Extract, details, others [][]token.Token) []string {
	var shapes []string
	add := func(s string) {
		if !slices.Contains(shapes, s) {
			shapes = append(shapes, s)
		}
	}
	add(fmt.Sprintf("%d other list pages", len(others)))
	for i, a := range extracts {
		for _, b := range extracts[:i] {
			switch {
			case len(a.Words) > 0 && slices.Equal(a.Words, b.Words):
				add("duplicate extracts")
			case len(a.Words) > 0 && len(b.Words) > 0 && a.Words[0] == b.Words[0]:
				add("extracts sharing a first word")
			}
		}
	}
	for _, page := range append(slices.Clone(details), others...) {
		vis := visibleWords(page)
		if len(vis) == 0 {
			add("page with no words")
		}
		for _, e := range extracts {
			if len(e.Words) > len(vis) {
				add("extract longer than a page")
			}
			// Two matches closer together than the extract is long.
			last := -len(e.Words)
			for w := 0; w+len(e.Words) <= len(vis) && len(e.Words) > 1; w++ {
				if slices.Equal(vis[w:w+len(e.Words)], e.Words) {
					if w-last < len(e.Words) {
						add("self-overlapping matches")
					}
					last = w
				}
			}
		}
	}
	return shapes
}

// TestObserveMatchesReference is the differential test for Observe: on
// seeded random inputs its observations must deep-equal the reference
// implementation's, nil-versus-empty slices included.
func TestObserveMatchesReference(t *testing.T) {
	const inputs = 3000
	seen := map[string]int{}
	for seed := int64(0); seed < inputs; seed++ {
		extracts, details, others := refInput(seed)
		for _, s := range refShapes(extracts, details, others) {
			seen[s]++
		}
		got := Observe(extracts, details, others)
		want := referenceObserve(extracts, details, others)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Observe differs from the reference\nextracts %q\ndetails %v\nothers %v\ngot  %+v\nwant %+v",
				seed, wordsOf(extracts), details, others, got, want)
		}
	}
	for _, s := range []string{
		"duplicate extracts", "extracts sharing a first word", "self-overlapping matches",
		"extract longer than a page", "page with no words",
		"0 other list pages", "1 other list pages", "2 other list pages", "3 other list pages",
	} {
		if seen[s] == 0 {
			t.Errorf("no input had shape %q", s)
		}
	}
}

func wordsOf(ex []Extract) [][]string {
	out := make([][]string, len(ex))
	for i := range ex {
		out[i] = ex[i].Words
	}
	return out
}
