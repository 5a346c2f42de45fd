package htmlx

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"tableseg/internal/sitegen"
)

// The reference lexer below is the lexer this package had before it
// streamed: it builds every tag's attribute list and entity-decodes
// each value. The streaming lexer must agree with it on every token's
// Kind, Raw, Data and Offset, and Token.Attr must return what the
// reference parsed.

// refToken is one lexical unit of an HTML document.
type refToken struct {
	Kind Kind
	// Raw is the exact source text of the token, including angle
	// brackets for tags. For Text tokens, Raw is the undecoded source.
	Raw string
	// Data is the payload: the decoded text for Text tokens, the
	// lower-cased tag name for tags, the comment body for comments.
	Data string
	// Attrs holds tag attributes in source order (tags only).
	Attrs []refAttr
	// Offset is the byte offset of the token in the input.
	Offset int
}

// refAttr is a single name="value" attribute on a tag.
type refAttr struct {
	Name  string // lower-cased
	Value string // entity-decoded; empty for valueless attributes
}

// Attr returns the value of the named attribute and whether it exists.
func (t *refToken) Attr(name string) (string, bool) {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// TagName returns the lower-cased element name for tag tokens, "" otherwise.
func (t *refToken) TagName() string {
	switch t.Kind {
	case StartTag, EndTag, SelfClosing:
		return t.Data
	}
	return ""
}

// refRawTextTags lists elements whose content is raw text: the refLexer must
// not interpret '<' inside them as markup until the matching end tag.
var refRawTextTags = map[string]bool{
	"script": true,
	"style":  true,
}

// Tokenize lexes an entire HTML document into a token slice.
func refTokenize(src string) []refToken {
	lx := &refLexer{src: src}
	return lx.run()
}

type refLexer struct {
	src    string
	pos    int
	tokens []refToken
}

func (l *refLexer) run() []refToken {
	for l.pos < len(l.src) {
		if l.src[l.pos] == '<' {
			if !l.lexMarkup() {
				// A stray '<' that does not begin markup: treat it as text.
				l.lexText(true)
			}
		} else {
			l.lexText(false)
		}
	}
	return l.tokens
}

// lexMarkup attempts to lex a construct starting with '<' at l.pos.
// It reports whether it consumed anything.
func (l *refLexer) lexMarkup() bool {
	start := l.pos
	rest := l.src[l.pos:]
	switch {
	case strings.HasPrefix(rest, "<!--"):
		end := strings.Index(rest[4:], "-->")
		var raw, body string
		if end < 0 { // unterminated comment: consume to EOF
			raw, body = rest, rest[4:]
			l.pos = len(l.src)
		} else {
			raw, body = rest[:4+end+3], rest[4:4+end]
			l.pos += 4 + end + 3
		}
		l.tokens = append(l.tokens, refToken{Kind: Comment, Raw: raw, Data: body, Offset: start})
		return true
	case strings.HasPrefix(rest, "<![CDATA["):
		// CDATA sections may contain '>' freely; they end only at "]]>".
		end := strings.Index(rest[9:], "]]>")
		var raw, body string
		if end < 0 {
			raw, body = rest, rest[9:]
			l.pos = len(l.src)
		} else {
			raw, body = rest[:9+end+3], rest[9:9+end]
			l.pos += 9 + end + 3
		}
		// CDATA content is character data.
		l.tokens = append(l.tokens, refToken{Kind: Text, Raw: raw, Data: body, Offset: start})
		return true
	case strings.HasPrefix(rest, "<!"):
		end := strings.IndexByte(rest, '>')
		var raw string
		if end < 0 {
			raw = rest
			l.pos = len(l.src)
		} else {
			raw = rest[:end+1]
			l.pos += end + 1
		}
		body := raw[2:]
		body = strings.TrimSuffix(body, ">")
		l.tokens = append(l.tokens, refToken{Kind: Doctype, Raw: raw, Data: strings.TrimSpace(body), Offset: start})
		return true
	case strings.HasPrefix(rest, "<?"):
		// Processing instruction (<?xml ...?>, PHP remnants): consume
		// to the next '>' and drop it as a comment-like token.
		end := strings.IndexByte(rest, '>')
		var raw string
		if end < 0 {
			raw = rest
			l.pos = len(l.src)
		} else {
			raw = rest[:end+1]
			l.pos += end + 1
		}
		l.tokens = append(l.tokens, refToken{Kind: Comment, Raw: raw, Data: strings.Trim(raw, "<?>"), Offset: start})
		return true
	case strings.HasPrefix(rest, "</"):
		return l.lexTag(start, true)
	default:
		// A start tag must be followed by an ASCII letter.
		if len(rest) >= 2 && refIsTagNameStart(rest[1]) {
			return l.lexTag(start, false)
		}
		return false
	}
}

func refIsTagNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func refIsTagNameByte(c byte) bool {
	return refIsTagNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == ':'
}

// lexTag lexes a start or end tag beginning at offset start.
func (l *refLexer) lexTag(start int, closing bool) bool {
	i := start + 1
	if closing {
		i++
	}
	nameStart := i
	for i < len(l.src) && refIsTagNameByte(l.src[i]) {
		i++
	}
	if i == nameStart {
		return false
	}
	name := strings.ToLower(l.src[nameStart:i])

	// Scan attributes until '>' honoring quoted values.
	var attrs []refAttr
	selfClose := false
	for i < len(l.src) && l.src[i] != '>' {
		c := l.src[i]
		switch {
		case c == '/' && i+1 < len(l.src) && l.src[i+1] == '>':
			selfClose = true
			i++
		case refIsSpace(c) || c == '/':
			i++
		default:
			var a refAttr
			var ok bool
			a, i, ok = refLexAttr(l.src, i)
			if !ok {
				i++ // skip one byte of garbage and keep going
			} else {
				attrs = append(attrs, a)
			}
		}
	}
	if i < len(l.src) {
		i++ // consume '>'
	}
	raw := l.src[start:i]
	kind := StartTag
	if closing {
		kind = EndTag
		attrs = nil
	} else if selfClose {
		kind = SelfClosing
	}
	l.pos = i
	l.tokens = append(l.tokens, refToken{Kind: kind, Raw: raw, Data: name, Attrs: attrs, Offset: start})

	// Raw-text elements: emit their entire content as one Text token.
	if kind == StartTag && refRawTextTags[name] {
		idx := refIndexCloseTag(l.src[l.pos:], name)
		if idx < 0 {
			idx = len(l.src) - l.pos
		}
		if idx > 0 {
			body := l.src[l.pos : l.pos+idx]
			l.tokens = append(l.tokens, refToken{Kind: Text, Raw: body, Data: body, Offset: l.pos})
			l.pos += idx
		}
	}
	return true
}

// refIndexCloseTag finds the byte offset of "</name" in src,
// ASCII-case-insensitively, or -1. A byte-exact scan is required:
// lowering the haystack with strings.ToLower would re-encode invalid
// UTF-8 sequences and shift every offset after them.
func refIndexCloseTag(src, name string) int {
	n := len(name)
	for i := 0; i+2+n <= len(src); i++ {
		if src[i] != '<' || src[i+1] != '/' {
			continue
		}
		match := true
		for k := 0; k < n; k++ {
			c := src[i+2+k]
			if c >= 'A' && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != name[k] {
				match = false
				break
			}
		}
		if match {
			return i
		}
	}
	return -1
}

func refIsSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// refLexAttr lexes one attribute starting at i. Returns the attribute, the
// new position, and whether an attribute was recognized.
func refLexAttr(src string, i int) (refAttr, int, bool) {
	nameStart := i
	for i < len(src) && src[i] != '=' && src[i] != '>' && src[i] != '/' && !refIsSpace(src[i]) {
		i++
	}
	if i == nameStart {
		return refAttr{}, i, false
	}
	a := refAttr{Name: strings.ToLower(src[nameStart:i])}
	// Optional whitespace around '='.
	j := i
	for j < len(src) && refIsSpace(src[j]) {
		j++
	}
	if j >= len(src) || src[j] != '=' {
		return a, i, true // valueless attribute
	}
	j++
	for j < len(src) && refIsSpace(src[j]) {
		j++
	}
	if j >= len(src) {
		return a, j, true
	}
	switch src[j] {
	case '"', '\'':
		q := src[j]
		j++
		valStart := j
		for j < len(src) && src[j] != q {
			j++
		}
		a.Value = DecodeEntities(src[valStart:j])
		if j < len(src) {
			j++ // consume closing quote
		}
	default:
		valStart := j
		for j < len(src) && !refIsSpace(src[j]) && src[j] != '>' {
			j++
		}
		a.Value = DecodeEntities(src[valStart:j])
	}
	return a, j, true
}

// lexText lexes a text run starting at l.pos. If forceFirst is true the
// first byte is consumed unconditionally (used for stray '<').
func (l *refLexer) lexText(forceFirst bool) {
	start := l.pos
	if forceFirst {
		l.pos++
	}
	for l.pos < len(l.src) && l.src[l.pos] != '<' {
		l.pos++
	}
	raw := l.src[start:l.pos]
	l.tokens = append(l.tokens, refToken{Kind: Text, Raw: raw, Data: DecodeEntities(raw), Offset: start})
}

// refChromeHead and refChromeTail wrap a page in markup the generated
// pages lack: attributes of every shape, a '>' inside a quoted value,
// upper-case names, duplicate attributes, a script, a style and
// entities.
const refChromeHead = `<div class="nav" data-x='a>b' title="Tom &amp; Jerry"><A HREF=/x.html?a=1&amp;b=2 Class=Big>Home &raquo;</A>` +
	`<img src="x.png" alt="1 > 0"/><input disabled value = 'x' ><TD Class="Big" class="second" = junk></TD>` +
	`<script type="text/javascript">if (a < b && c > d) { s = "<td>"; }</SCRIPT ><style media=screen>p > b { x: 1 }</style>` +
	`<p>&copy; 2004 &#65;&#x42; &nbsp;Foo &bogus; &amp</p>`

const refChromeTail = `<!-- footer <b> --><br/><hr / ><a href="/next.html" rel=next>Next &gt;&gt;</a><?php echo 1 ?><![CDATA[a <b> c]]>`

// referenceInputs returns the documents the reference tests lex: every
// page sitegen generates for its profiles at seeds 42-45, each of those
// pages wrapped in that chrome, and random strings over an HTML-like
// alphabet.
func referenceInputs() []string {
	var pages []string
	for _, p := range sitegen.Profiles() {
		for seed := int64(42); seed <= 45; seed++ {
			for _, lp := range sitegen.Generate(p, seed).Lists {
				pages = append(pages, lp.HTML)
				pages = append(pages, lp.Details...)
				pages = append(pages, lp.Ads...)
			}
		}
	}
	docs := pages
	for _, p := range pages {
		docs = append(docs, refChromeHead+p+refChromeTail)
	}
	return append(docs, randomHTMLish(rand.New(rand.NewSource(1)), 20000)...)
}

// randomHTMLish returns n random strings of up to 40 pieces drawn from
// fragments of HTML syntax.
func randomHTMLish(rng *rand.Rand, n int) []string {
	pieces := []string{"<", ">", "/", "!", "-", "?", "=", `"`, "'", " ", "\n", "&", ";", "#", "x", "a", "B", "1",
		"td", "script", "STYLE", "<!--", "-->", "[CDATA[", "]]>", "amp", "href", "\x80", "\xff"}
	out := make([]string, n)
	for i := range out {
		var b strings.Builder
		for k := rng.Intn(41); k > 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		out[i] = b.String()
	}
	return out
}

func TestLexerMatchesReference(t *testing.T) {
	docs := referenceInputs()
	attrs := 0
	for _, src := range docs {
		n, err := matchReference(src)
		if err != nil {
			t.Fatal(err)
		}
		attrs += n
	}
	if attrs == 0 {
		t.Fatal("no input had an attribute")
	}
	t.Logf("%d documents, %d attributes", len(docs), attrs)
}

// matchReference lexes src with both lexers and reports the first
// difference: in a token's Kind, Raw, Data or Offset, or in Attr for an
// attribute the reference parsed or for a few names. It returns the
// number of attributes the reference parsed.
func matchReference(src string) (int, error) {
	want, got := refTokenize(src), Tokenize(src)
	if len(got) != len(want) {
		return 0, fmt.Errorf("%q: %d tokens, reference %d", src, len(got), len(want))
	}
	attrs := 0
	for i := range want {
		w, g := &want[i], &got[i]
		if g.Kind != w.Kind || g.Raw != w.Raw || g.Data != w.Data || g.Offset != w.Offset {
			return 0, fmt.Errorf("%q: token %d = {%v %q %q %d}, reference {%v %q %q %d}",
				src, i, g.Kind, g.Raw, g.Data, g.Offset, w.Kind, w.Raw, w.Data, w.Offset)
		}
		names := []string{"href", "class", "nosuch", ""}
		for _, a := range w.Attrs {
			names = append(names, a.Name)
		}
		attrs += len(w.Attrs)
		for _, name := range names {
			wv, wok := w.Attr(name)
			if gv, gok := g.Attr(name); gv != wv || gok != wok {
				return 0, fmt.Errorf("%q: token %d (%q) Attr(%q) = %q, %v; reference %q, %v", src, i, g.Raw, name, gv, gok, wv, wok)
			}
		}
	}
	return attrs, nil
}
