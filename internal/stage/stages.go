package stage

import (
	"context"
	"fmt"

	"tableseg/internal/extract"
	"tableseg/internal/pagetemplate"
	"tableseg/internal/token"
	"tableseg/internal/vertical"
)

// minTextSkeleton is the fewest invariant text tokens a credible page
// template must have; below it the induced skeleton is just structural
// tags and SelectSlot falls back to the whole page.
const minTextSkeleton = 6

// TokenizeIn feeds the Tokenize stage.
type TokenizeIn struct {
	// ListPages are the site's sample list pages; DetailPages are the
	// pages linked from the target list page, in record order.
	ListPages, DetailPages []Page
	// Cache, when non-nil, resolves every page's tokens through the
	// caller's artifact cache (content-hash keyed, shared across tasks).
	Cache Cache
}

// TokenizeOut is the Tokenize stage's result.
type TokenizeOut struct {
	Lists, Details []TokenizedPage
}

// Tokenize lexes every input page into the paper's eight syntactic
// token types (§3.1), reusing cached streams when offered.
func Tokenize(ctx context.Context, in TokenizeIn) (TokenizeOut, error) {
	out := TokenizeOut{
		Lists:   make([]TokenizedPage, len(in.ListPages)),
		Details: make([]TokenizedPage, len(in.DetailPages)),
	}
	lex := func(p Page) []token.Token {
		if in.Cache != nil {
			return in.Cache.Tokens(p)
		}
		return token.Tokenize(p.HTML)
	}
	for i, p := range in.ListPages {
		//tableseglint:ignore ctxflow the token cache joins duplicate tokenization via Once; the wait is bounded by one page's tokenize
		out.Lists[i] = TokenizedPage{Name: p.Name, Tokens: lex(p)}
	}
	for i, p := range in.DetailPages {
		//tableseglint:ignore ctxflow the token cache joins duplicate tokenization via Once; the wait is bounded by one page's tokenize
		out.Details[i] = TokenizedPage{Name: p.Name, Tokens: lex(p)}
	}
	// Cache-returned token slices are shared by contract: token slices
	// are write-once after tokenization, and copying every page's
	// tokens would defeat the cache. Token texts are immutable strings
	// that share memory on purpose: a freshly tokenized page's texts
	// are substrings of its HTML, and a decoded page's texts are
	// substrings of one string per page.
	return out, nil
}

// TemplateIn feeds the InduceTemplate stage.
type TemplateIn struct {
	// Lists are the tokenized sample list pages.
	Lists []TokenizedPage
	// Cache, when non-nil, serves the template of these pages from the
	// caller's artifact cache and induces it only on a miss.
	Cache Cache
}

// InduceTemplate induces the page template shared by the sample list
// pages (§3.1). With fewer than two samples the template is nil —
// cross-page induction is undefined — and downstream stages fall back.
func InduceTemplate(ctx context.Context, in TemplateIn) (Template, error) {
	if in.Cache != nil {
		// The closure escapes through the interface call, so it is
		// built on this path only: the direct path allocates no closure.
		//tableseglint:ignore ctxflow the template cache joins duplicate induction via Once; the wait is bounded by one site's induction
		return Template{Tpl: in.Cache.Template(func() *pagetemplate.Template { return induce(in.Lists) })}, nil
	}
	return Template{Tpl: induce(in.Lists)}, nil
}

// induce induces the template of the sample list pages, or returns nil
// when there are fewer than two.
func induce(lists []TokenizedPage) *pagetemplate.Template {
	if len(lists) < 2 {
		return nil
	}
	return pagetemplate.Induce(TokensOf(lists))
}

// SlotIn feeds the SelectSlot stage.
type SlotIn struct {
	// Template is the induced page template (Tpl may be nil).
	Template Template
	// Lists are the tokenized list pages; Target indexes the page to
	// segment.
	Lists  []TokenizedPage
	Target int
	// MinSlotQuality is the threshold below which the table slot is
	// considered shattered and the whole page is used instead.
	MinSlotQuality float64
	// StripEnumeration enables the §6.3 enumerated-entries heuristic
	// before giving up on a shattered slot.
	StripEnumeration bool
	// ForceWholePage skips slot location entirely (ablation).
	ForceWholePage bool
}

// SelectSlot locates the table slot on the target page (§3.1): the
// template slot with the highest concentration of page content. The
// paper's fallback fires — the whole page is used — when the slot is
// shattered (quality below threshold), the skeleton is too thin to be
// a real template, or no template exists.
func SelectSlot(ctx context.Context, in SlotIn) (Slot, error) {
	if in.Target < 0 || in.Target >= len(in.Lists) {
		return Slot{}, fmt.Errorf("stage: SelectSlot target %d of %d lists", in.Target, len(in.Lists))
	}
	target := in.Lists[in.Target].Tokens
	whole := Slot{Start: 0, End: len(target), WholePage: true}
	if in.ForceWholePage || in.Template.Tpl == nil {
		return whole, nil
	}
	tpl := in.Template.Tpl
	slots := tpl.SlotsOn(in.Target, len(target))
	tableSlot, quality := pagetemplate.TableSlot(slots, target)
	stripped := 0
	// When the slot is shattered, optionally try the §6.3
	// enumerated-entries heuristic before giving up on the template.
	if quality < in.MinSlotQuality && in.StripEnumeration {
		if st, n := tpl.StripEnumeration(); n > 0 {
			slots = st.SlotsOn(in.Target, len(target))
			if s2, q2 := pagetemplate.TableSlot(slots, target); q2 > quality {
				tpl, tableSlot, quality = st, s2, q2
				stripped = n
			}
		}
	}
	// The fallback fires when the table is shattered across slots
	// (numbered entries) or the skeleton is too thin to be a real
	// template (volatile headers): the paper's "page template problem;
	// entire page used".
	if quality < in.MinSlotQuality || tpl.TextSkeletonLen() < minTextSkeleton {
		whole.Quality = quality
		whole.EnumerationStripped = stripped
		return whole, nil
	}
	return Slot{
		Start: tableSlot.Start, End: tableSlot.End,
		Quality: quality, EnumerationStripped: stripped,
	}, nil
}

// ExtractIn feeds the Extract stage.
type ExtractIn struct {
	// Target is the tokenized list page to segment.
	Target TokenizedPage
	// Slot bounds the table region.
	Slot Slot
}

// Extract splits the table slot into extracts: maximal runs of visible
// text between separators (§3.2).
func Extract(ctx context.Context, in ExtractIn) (Extracts, error) {
	return Extracts{Items: extract.Split(in.Target.Tokens, in.Slot.Start, in.Slot.End)}, nil
}

// ObserveIn feeds the Observe stage.
type ObserveIn struct {
	// Extracts are the table slot's extracts.
	Extracts Extracts
	// Details are the tokenized detail pages, in record order.
	Details []TokenizedPage
	// OtherLists are the tokenized sample list pages other than the
	// target (the "appears on all list pages" boilerplate filter).
	OtherLists [][]token.Token
	// DetectVertical enables the vertical-table extension: when
	// adjacent extracts' detail sets are mostly disjoint the analyzed
	// stream is transposed into record-major order.
	DetectVertical bool
}

// Observe builds the detail-page observation matrix (Table 1), selects
// the informative subset used for inference (§3.2), checks that every
// detail page is covered by at least one analyzed extract (a false
// Covered signals a truncated table slot), and optionally applies the
// vertical-table transposition.
func Observe(ctx context.Context, in ObserveIn) (*ObservationMatrix, error) {
	m := &ObservationMatrix{NumDetailPages: len(in.Details)}
	details := TokensOf(in.Details)
	m.Obs = extract.Observe(in.Extracts.Items, details, in.OtherLists)
	m.Analyzed = extract.InformativeSubset(m.Obs, m.NumDetailPages)
	m.Covered = coversAllPages(m.Obs, m.Analyzed, m.NumDetailPages)
	if in.DetectVertical && len(m.Analyzed) > 0 {
		cands := m.Candidates()
		if vertical.IsVertical(cands) {
			if perm, ok := vertical.Transpose(cands, m.NumDetailPages); ok {
				m.Analyzed = vertical.Apply(perm, m.Analyzed)
				m.Vertical = true
			}
		}
	}
	return m, nil
}

// coversAllPages reports whether every detail page supports at least
// one analyzed extract.
func coversAllPages(obs []extract.Observation, analyzed []int, numPages int) bool {
	covered := make([]bool, numPages)
	n := 0
	for _, oi := range analyzed {
		for _, p := range obs[oi].Pages {
			if !covered[p] {
				covered[p] = true
				n++
			}
		}
	}
	return n == numPages
}

// BuildProblem assembles the solver-facing Problem from an observation
// matrix: candidate sets, position groups and token-type evidence for
// the analyzed extracts.
func BuildProblem(m *ObservationMatrix) *Problem {
	p := &Problem{
		NumRecords:     m.NumDetailPages,
		Candidates:     m.Candidates(),
		PositionGroups: extract.PositionGroups(m.Obs, m.Analyzed, m.NumDetailPages),
		TypeVecs:       make([][token.NumTypes]bool, len(m.Analyzed)),
		FirstTypes:     make([]token.Type, len(m.Analyzed)),
	}
	for ai, oi := range m.Analyzed {
		p.TypeVecs[ai] = m.Obs[oi].Extract.TypeVector()
		p.FirstTypes[ai] = m.Obs[oi].Extract.FirstType()
	}
	return p
}
