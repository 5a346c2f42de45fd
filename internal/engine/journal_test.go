package engine

import (
	"crypto/sha256"
	"testing"

	"tableseg/internal/core"
)

// TestInputHashFollowsContent pins the input hash the result journal
// keys on: identical content shares a hash whatever the pages are
// named; an edited page, another target, a byte moved from one page to
// the next, or a page moved across the list/detail split each change
// it.
func TestInputHashFollowsContent(t *testing.T) {
	input := func() core.Input {
		return core.Input{
			ListPages:   []core.Page{{Name: "list-1", HTML: "<ul><li>Ann</li></ul>"}, {Name: "list-2", HTML: "<ul><li>Bob</li></ul>"}},
			DetailPages: []core.Page{{Name: "ann", HTML: "<p>Ann, Pittsburgh</p>"}, {Name: "bob", HTML: "<p>Bob, Erie</p>"}},
		}
	}
	hash := func(in core.Input) [sha256.Size]byte { return digestInput(in).inputHash(in.Target) }
	// moveByte moves the last byte of pages[0] to the front of pages[1],
	// which keeps the pages' concatenated bytes.
	moveByte := func(pages []core.Page) {
		a := pages[0].HTML
		pages[0].HTML, pages[1].HTML = a[:len(a)-1], a[len(a)-1:]+pages[1].HTML
	}
	cases := []struct {
		name string
		edit func(in *core.Input)
		same bool
	}{
		{"pages renamed", func(in *core.Input) { in.ListPages[0].Name, in.DetailPages[1].Name = "a", "b" }, true},
		{"list page edited", func(in *core.Input) { in.ListPages[1].HTML += " " }, false},
		{"detail page edited", func(in *core.Input) { in.DetailPages[0].HTML += " " }, false},
		{"target changed", func(in *core.Input) { in.Target = 1 }, false},
		{"byte moved between list pages", func(in *core.Input) { moveByte(in.ListPages) }, false},
		{"byte moved between detail pages", func(in *core.Input) { moveByte(in.DetailPages) }, false},
		{"last list page moved to the details", func(in *core.Input) {
			in.ListPages, in.DetailPages = in.ListPages[:1], append([]core.Page{in.ListPages[1]}, in.DetailPages...)
		}, false},
		{"first detail page moved to the lists", func(in *core.Input) {
			in.ListPages, in.DetailPages = append(in.ListPages, in.DetailPages[0]), in.DetailPages[1:]
		}, false},
	}
	base := hash(input())
	for _, c := range cases {
		in := input()
		c.edit(&in)
		if same := hash(in) == base; same != c.same {
			t.Errorf("%s: input hash unchanged = %v, want %v", c.name, same, c.same)
		}
	}
}
