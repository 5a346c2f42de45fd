package htmlx

import (
	"strings"
	"testing"
)

// FuzzTokenize checks the lexer's totality invariant (concatenated Raw
// fields reproduce the input byte-for-byte) and its agreement with the
// reference lexer on arbitrary inputs. Run
// with `go test -fuzz=FuzzTokenize ./internal/htmlx` for exploration;
// the seed corpus runs as part of the normal test suite.
func FuzzTokenize(f *testing.F) {
	seeds := []string{
		"",
		"<html><body>Hello</body></html>",
		"<a href='x y'>text</a>",
		`<td class="a" colspan=2>v</td>`,
		"<!-- comment --><!DOCTYPE html>",
		"<script>if(a<b){}</script>after",
		"3 < 5 and <b>bold</b>",
		"<><<>><a<b><",
		"&amp;&#65;&bogus;&",
		"<p>un终έ</p>", // multibyte content survives
		"<a href=\"",
		"</",
		"<style>p{}</style",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		toks := Tokenize(s)
		var b strings.Builder
		for _, tok := range toks {
			b.WriteString(tok.Raw)
		}
		if b.String() != s {
			t.Fatalf("coverage broken: %q -> %q", s, b.String())
		}
		if _, err := matchReference(s); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzDecodeEntities checks decoding never panics and preserves
// entity-free input.
func FuzzDecodeEntities(f *testing.F) {
	for _, s := range []string{"", "&amp;", "&#65;", "&#x41;", "&;", "&unknown;", "a&b&c", "&#xZZZZ;", strings.Repeat("&", 100)} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		out := DecodeEntities(s)
		if !strings.Contains(s, "&") && out != s {
			t.Fatalf("entity-free input altered: %q -> %q", s, out)
		}
	})
}
