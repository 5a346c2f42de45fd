package extract

import (
	"slices"
	"sort"

	"tableseg/internal/token"
)

// Occurrence records one sighting of an extract on a detail page.
type Occurrence struct {
	// Page is the detail-page index (record number candidate r_j).
	Page int
	// Pos is the position of the sighting: the page-stream token index
	// of the first matched word on the detail page (the pos_j^k of
	// Table 3).
	Pos int
}

// Observation couples an extract with everything the detail pages say
// about it.
type Observation struct {
	Extract Extract
	// Pages is D_i: the sorted set of detail-page indices on which the
	// extract was observed.
	Pages []int
	// Occurrences lists every sighting (a page may appear several
	// times if the string occurs at several positions on it).
	Occurrences []Occurrence
	// OnAllListPages is true when the extract's text appears on every
	// sample list page — boilerplate to be ignored per §3.2.
	OnAllListPages bool
}

// OnPage reports whether the extract was observed on detail page j.
func (o *Observation) OnPage(j int) bool {
	k := sort.SearchInts(o.Pages, j)
	return k < len(o.Pages) && o.Pages[k] == j
}

// Informative reports whether the observation should participate in
// record segmentation: §3.2 ignores extracts that appear on all list
// pages or on all detail pages, and extracts seen on no detail page
// carry no record evidence.
func (o *Observation) Informative(numDetailPages int) bool {
	if len(o.Pages) == 0 || o.OnAllListPages {
		return false
	}
	return len(o.Pages) < numDetailPages
}

// extractIndex groups the extracts of one Observe call by their word
// sequence and indexes the distinct sequences by their first word, so a
// page is matched against every extract in one pass. Sequences compare
// word by word rather than as joined strings: a word may hold any byte
// but whitespace, NUL included, so no joiner is unambiguous.
type extractIndex struct {
	// seqs are the distinct non-empty word sequences in sorted order,
	// so the sequences sharing a first word are contiguous.
	seqs [][]string
	// first maps a first word to the run of seqs starting with it.
	first map[string]seqRun
	// groupOf maps each extract to its index into seqs, or -1 for an
	// extract with no words (which matches nowhere).
	groupOf []int
}

// seqRun is the half-open range [start, end) of extractIndex.seqs.
type seqRun struct{ start, end int }

func newExtractIndex(extracts []Extract) *extractIndex {
	ix := &extractIndex{
		seqs:    make([][]string, 0, len(extracts)),
		first:   make(map[string]seqRun, len(extracts)),
		groupOf: make([]int, len(extracts)),
	}
	// Sorting the extracts by word sequence brings equal sequences
	// together in O(n log n), however many share a first word.
	order := make([]int, 0, len(extracts))
	for i, e := range extracts {
		ix.groupOf[i] = -1
		if len(e.Words) > 0 {
			order = append(order, i)
		}
	}
	slices.SortFunc(order, func(a, b int) int { return slices.Compare(extracts[a].Words, extracts[b].Words) })
	for _, i := range order {
		words := extracts[i].Words
		if n := len(ix.seqs); n == 0 || !slices.Equal(ix.seqs[n-1], words) {
			ix.seqs = append(ix.seqs, words)
		}
		ix.groupOf[i] = len(ix.seqs) - 1
	}
	for g := 0; g < len(ix.seqs); {
		run := seqRun{start: g, end: g + 1}
		for run.end < len(ix.seqs) && ix.seqs[run.end][0] == ix.seqs[g][0] {
			run.end++
		}
		ix.first[ix.seqs[g][0]] = run
		g = run.end
	}
	return ix
}

// scan matches every indexed sequence against page, ignoring
// separators (§3.2 footnote: "FirstName LastName" on the list page
// matches "FirstName <br> LastName" on the detail page). words is a
// scratch buffer that scan refills with the stream indices of the
// page's non-separator tokens and returns for reuse. hit receives each
// match as (sequence index, stream index of its first word), in
// position order.
func (ix *extractIndex) scan(page []token.Token, words []int, hit func(g, pos int)) []int {
	words = words[:0]
	for i, t := range page {
		if !IsSeparator(t) {
			words = append(words, i)
		}
	}
	for w, pos := range words {
		run := ix.first[page[pos].Text]
		for g := run.start; g < run.end; g++ {
			seq := ix.seqs[g]
			if w+len(seq) > len(words) {
				continue
			}
			k := 1
			for k < len(seq) && page[words[w+k]].Text == seq[k] {
				k++
			}
			if k == len(seq) {
				hit(g, pos)
			}
		}
	}
	return words
}

// Observe builds observations for every extract of the target list page.
//
//	extracts     — the extracts of the target list page, in stream order
//	details      — tokenized detail pages, in record (link) order
//	otherLists   — tokenized sample list pages other than the target,
//	               used for the "appears on all list pages" filter
//
// Rather than indexing every detail page, Observe indexes the extracts
// (few and short) and scans each page once, with one map lookup per
// word. Matches arrive in page order and, within a page, in position
// order, so every Pages and Occurrences list comes out sorted. Extracts
// with identical words share one sequence and receive equal
// observations.
func Observe(extracts []Extract, details [][]token.Token, otherLists [][]token.Token) []Observation {
	ix := newExtractIndex(extracts)
	pages := make([][]int, len(ix.seqs))
	occs := make([][]Occurrence, len(ix.seqs))
	var words []int
	for j, page := range details {
		words = ix.scan(page, words, func(g, pos int) {
			if n := len(pages[g]); n == 0 || pages[g][n-1] != j {
				pages[g] = append(pages[g], j)
			}
			occs[g] = append(occs[g], Occurrence{Page: j, Pos: pos})
		})
	}
	// listHits[g] counts the other list pages containing sequence g;
	// lastList[g] is 1 + the last such page, so several matches on one
	// page count once.
	listHits := make([]int, len(ix.seqs))
	lastList := make([]int, len(ix.seqs))
	for l, page := range otherLists {
		words = ix.scan(page, words, func(g, _ int) {
			if lastList[g] != l+1 {
				lastList[g] = l + 1
				listHits[g]++
			}
		})
	}

	obs := make([]Observation, len(extracts))
	handed := make([]bool, len(ix.seqs))
	for i, e := range extracts {
		obs[i].Extract = e
		g := ix.groupOf[i]
		if g < 0 {
			continue
		}
		if handed[g] {
			// A duplicate extract gets its own copies, so no two
			// observations share a backing array.
			obs[i].Pages = slices.Clone(pages[g])
			obs[i].Occurrences = slices.Clone(occs[g])
		} else {
			obs[i].Pages, obs[i].Occurrences = pages[g], occs[g]
			handed[g] = true
		}
		obs[i].OnAllListPages = len(otherLists) > 0 && listHits[g] == len(otherLists)
	}
	return obs
}

// InformativeSubset returns the indices (into obs) of the observations
// that participate in segmentation, preserving stream order.
func InformativeSubset(obs []Observation, numDetailPages int) []int {
	var out []int
	for i := range obs {
		if obs[i].Informative(numDetailPages) {
			out = append(out, i)
		}
	}
	return out
}

// PositionGroups returns, for each detail page, the groups of analyzed
// extracts that share a position on that page. Each group is a set of
// indices into analyzed (which indexes obs); only groups with two or
// more members are returned, because singleton groups impose no
// position constraint (§4.2).
func PositionGroups(obs []Observation, analyzed []int, numDetailPages int) map[int][][]int {
	type key struct{ page, pos int }
	byKey := make(map[key][]int)
	for ai, oi := range analyzed {
		for _, occ := range obs[oi].Occurrences {
			k := key{occ.Page, occ.Pos}
			byKey[k] = append(byKey[k], ai)
		}
	}
	groups := make(map[int][][]int)
	for k, members := range byKey {
		if len(members) < 2 {
			continue
		}
		sort.Ints(members)
		members = dedupInts(members)
		if len(members) < 2 {
			continue
		}
		groups[k.page] = append(groups[k.page], members)
	}
	// Map iteration above is unordered; fix a canonical group order so
	// downstream constraint problems are byte-identical across runs
	// (local search is trajectory-sensitive).
	for page := range groups {
		sort.Slice(groups[page], func(a, b int) bool {
			ga, gb := groups[page][a], groups[page][b]
			for i := 0; i < len(ga) && i < len(gb); i++ {
				if ga[i] != gb[i] {
					return ga[i] < gb[i]
				}
			}
			return len(ga) < len(gb)
		})
	}
	return groups
}

func dedupInts(a []int) []int {
	out := a[:0]
	for i, v := range a {
		if i == 0 || v != a[i-1] {
			out = append(out, v)
		}
	}
	return out
}
