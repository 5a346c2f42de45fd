package token

import (
	"strings"

	"tableseg/internal/htmlx"
)

// Token is one element of the flat page stream: either an HTML tag
// (opaque, typed HTML) or a single word of visible text.
type Token struct {
	// Text is the token's canonical text: the word itself for word
	// tokens, or the normalized tag form ("<td>", "</tr>", "<br/>")
	// for HTML tokens. Tag attributes are deliberately dropped: page
	// templates must match across pages that differ only in generated
	// attribute values (session ids, row colors).
	Text string
	// Type is the syntactic type bitmask.
	Type Type
	// Offset is the byte offset of the token in the source document.
	Offset int
}

// IsHTML reports whether the token is an HTML tag.
func (t Token) IsHTML() bool { return t.Type.Has(HTML) }

// bytesPerToken sizes Tokenize's output from its input. The generated
// corpus pages hold 5.7 to 7.0 bytes of HTML per token (6.1 on
// average), so their streams outgrow the estimate at most once; pages
// with more markup per word, such as long scripts, leave part of it
// unused.
const bytesPerToken = 6

// Tokenize converts an HTML document into the paper's flat token stream:
// tags become single HTML-typed tokens, text runs are entity-decoded and
// split on whitespace into word tokens, and each word token is assigned
// its syntactic type set. Comments, doctypes, and script/style bodies
// produce no tokens (they are invisible). Token texts are substrings of
// src wherever src spells them as they read.
func Tokenize(src string) []Token {
	out := make([]Token, 0, len(src)/bytesPerToken+1)
	lx := htmlx.NewLexer(src)
	skipText := 0 // >0 while inside <script>/<style>
	for {
		rt, ok := lx.Next()
		if !ok {
			return out
		}
		switch rt.Kind {
		case htmlx.StartTag, htmlx.EndTag, htmlx.SelfClosing:
			name := rt.TagName()
			switch rt.Kind {
			case htmlx.StartTag:
				if name == "script" || name == "style" {
					skipText++
				}
			case htmlx.EndTag:
				if (name == "script" || name == "style") && skipText > 0 {
					skipText--
				}
			}
			out = append(out, Token{Text: canonicalTag(rt), Type: HTML, Offset: rt.Offset})
		case htmlx.Text:
			if skipText > 0 {
				continue
			}
			out = appendWords(out, rt.Data, rt.Offset)
		}
	}
}

// canonicalTag renders a tag token in its canonical attribute-free
// form: "<td>", "</td>" or "<br/>". When the source spells the tag
// exactly so, the result is the token's Raw text and costs nothing.
func canonicalTag(rt htmlx.Token) string {
	open, end := "<", ">"
	switch rt.Kind {
	case htmlx.EndTag:
		open = "</"
	case htmlx.SelfClosing:
		end = "/>"
	}
	raw, name := rt.Raw, rt.Data
	if len(raw) == len(open)+len(name)+len(end) && strings.HasPrefix(raw, open) &&
		strings.HasSuffix(raw, end) && raw[len(open):len(open)+len(name)] == name {
		return raw
	}
	return open + name + end
}

// appendWords splits text on whitespace and appends one typed token per
// word. Offsets are approximate within the run (start offset + index of
// the word in the decoded text), which is sufficient for ordering.
func appendWords(out []Token, text string, base int) []Token {
	i := 0
	for i < len(text) {
		for i < len(text) && isWS(text[i]) {
			i++
		}
		if i >= len(text) {
			break
		}
		start := i
		for i < len(text) && !isWS(text[i]) {
			i++
		}
		w := text[start:i]
		out = append(out, Token{Text: w, Type: TypeOf(w), Offset: base + start})
	}
	return out
}

func isWS(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' || c == '\v'
}

// Texts projects a token slice to its text strings (testing helper and
// template-induction input).
func Texts(toks []Token) []string {
	out := make([]string, len(toks))
	for i, t := range toks {
		out[i] = t.Text
	}
	return out
}

// Join renders tokens back to a readable string with single spaces,
// useful in diagnostics and examples.
func Join(toks []Token) string {
	var b strings.Builder
	for i, t := range toks {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t.Text)
	}
	return b.String()
}
