// Package htmlx implements a small, dependency-free HTML lexer.
//
// The segmentation algorithms in this repository never build a DOM; the
// paper's pipeline (Lerman et al., SIGMOD 2004, §3.1) works on a flat
// token stream in which HTML tags are opaque single tokens and text is
// split into words. This lexer produces that stream: it recognizes start
// tags, end tags, comments, doctype declarations and text runs, and it
// decodes HTML entity escape sequences into ASCII text as the paper
// requires ("HTML escape sequences are converted to ASCII text").
//
// The lexer streams: Lexer.Next returns one token at a time and keeps
// no slice of its own. It finds where each tag ends but builds nothing
// from the tag's attributes; Token.Attr parses them from Raw on demand.
//
// The lexer is intentionally forgiving: real 2004-era pages (and our
// synthetic reproductions of them) contain unquoted attributes, stray
// '<' characters and unterminated constructs. Any malformed input still
// lexes to *some* token stream; nothing ever fails.
package htmlx

import (
	"strings"
)

// Kind classifies a lexical token.
type Kind int

const (
	// Text is a run of character data between tags (entities decoded).
	Text Kind = iota
	// StartTag is an opening tag such as <td class="x">.
	StartTag
	// EndTag is a closing tag such as </td>.
	EndTag
	// SelfClosing is a self-closed tag such as <br/>.
	SelfClosing
	// Comment is an HTML comment <!-- ... -->.
	Comment
	// Doctype is a <!DOCTYPE ...> declaration.
	Doctype
)

// String returns a human-readable name for the kind.
func (k Kind) String() string {
	switch k {
	case Text:
		return "Text"
	case StartTag:
		return "StartTag"
	case EndTag:
		return "EndTag"
	case SelfClosing:
		return "SelfClosing"
	case Comment:
		return "Comment"
	case Doctype:
		return "Doctype"
	default:
		return "Unknown"
	}
}

// Token is one lexical unit of an HTML document.
type Token struct {
	Kind Kind
	// Raw is the exact source text of the token, including angle
	// brackets for tags. For Text tokens, Raw is the undecoded source.
	Raw string
	// Data is the payload: the decoded text for Text tokens, the
	// lower-cased tag name for tags, the comment body for comments.
	Data string
	// Offset is the byte offset of the token in the input.
	Offset int
}

// Attr returns the value of the named attribute and whether it exists.
// Only start and self-closing tags carry attributes. The first
// attribute whose lower-cased name equals name wins; its value is
// entity-decoded, and "" for a valueless attribute. Attr parses Raw on
// every call.
func (t *Token) Attr(name string) (string, bool) {
	if t.Kind != StartTag && t.Kind != SelfClosing {
		return "", false
	}
	i := 1 // past '<'
	for i < len(t.Raw) && isTagNameByte(t.Raw[i]) {
		i++
	}
	sc := attrScan{src: t.Raw, pos: i}
	for {
		n, v, ok := sc.next()
		if !ok {
			return "", false
		}
		if strings.ToLower(n) == name {
			return DecodeEntities(v), true
		}
	}
}

// TagName returns the lower-cased element name for tag tokens, "" otherwise.
func (t *Token) TagName() string {
	switch t.Kind {
	case StartTag, EndTag, SelfClosing:
		return t.Data
	}
	return ""
}

// Tokenize lexes an entire HTML document into a token slice.
func Tokenize(src string) []Token {
	var toks []Token
	lx := NewLexer(src)
	for {
		t, ok := lx.Next()
		if !ok {
			return toks
		}
		toks = append(toks, t)
	}
}

// rawTextTags lists elements whose content is raw text: the lexer must
// not interpret '<' inside them as markup until the matching end tag.
var rawTextTags = map[string]bool{
	"script": true,
	"style":  true,
}

// Lexer lexes one document a token at a time.
type Lexer struct {
	src string
	pos int
	// rawText is the name of the raw-text element whose content
	// starts at pos, "" otherwise.
	rawText string
}

// NewLexer returns a lexer positioned at the start of src.
func NewLexer(src string) Lexer { return Lexer{src: src} }

// Next returns the next token, or false when the input is exhausted.
func (l *Lexer) Next() (Token, bool) {
	if name := l.rawText; name != "" {
		// A raw-text element's entire content is one Text token.
		l.rawText = ""
		idx := indexCloseTag(l.src[l.pos:], name)
		if idx < 0 {
			idx = len(l.src) - l.pos
		}
		if idx > 0 {
			start := l.pos
			l.pos += idx
			body := l.src[start:l.pos]
			return Token{Kind: Text, Raw: body, Data: body, Offset: start}, true
		}
	}
	if l.pos >= len(l.src) {
		return Token{}, false
	}
	if l.src[l.pos] == '<' {
		if t, ok := l.lexMarkup(); ok {
			return t, true
		}
		// A stray '<' that does not begin markup: treat it as text.
		return l.lexText(true), true
	}
	return l.lexText(false), true
}

// lexMarkup attempts to lex a construct starting with '<' at l.pos.
// It reports whether it consumed anything.
func (l *Lexer) lexMarkup() (Token, bool) {
	start := l.pos
	rest := l.src[l.pos:]
	if len(rest) < 2 {
		return Token{}, false
	}
	switch rest[1] {
	case '!':
		switch {
		case strings.HasPrefix(rest, "<!--"):
			end := strings.Index(rest[4:], "-->")
			var raw, body string
			if end < 0 { // unterminated comment: consume to EOF
				raw, body = rest, rest[4:]
			} else {
				raw, body = rest[:4+end+3], rest[4:4+end]
			}
			l.pos += len(raw)
			return Token{Kind: Comment, Raw: raw, Data: body, Offset: start}, true
		case strings.HasPrefix(rest, "<![CDATA["):
			// CDATA sections may contain '>' freely; they end only at "]]>".
			end := strings.Index(rest[9:], "]]>")
			var raw, body string
			if end < 0 {
				raw, body = rest, rest[9:]
			} else {
				raw, body = rest[:9+end+3], rest[9:9+end]
			}
			l.pos += len(raw)
			// CDATA content is character data.
			return Token{Kind: Text, Raw: raw, Data: body, Offset: start}, true
		}
		raw := l.throughGT(rest)
		body := strings.TrimSuffix(raw[2:], ">")
		return Token{Kind: Doctype, Raw: raw, Data: strings.TrimSpace(body), Offset: start}, true
	case '?':
		// Processing instruction (<?xml ...?>, PHP remnants): consume
		// to the next '>' and drop it as a comment-like token.
		raw := l.throughGT(rest)
		return Token{Kind: Comment, Raw: raw, Data: strings.Trim(raw, "<?>"), Offset: start}, true
	case '/':
		return l.lexTag(start, true)
	}
	// A start tag must be followed by an ASCII letter.
	if isTagNameStart(rest[1]) {
		return l.lexTag(start, false)
	}
	return Token{}, false
}

// throughGT consumes rest (the input from l.pos) through its first
// '>', or to the end of the input when there is none, and returns the
// consumed text.
func (l *Lexer) throughGT(rest string) string {
	raw := rest
	if end := strings.IndexByte(rest, '>'); end >= 0 {
		raw = rest[:end+1]
	}
	l.pos += len(raw)
	return raw
}

func isTagNameStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func isTagNameByte(c byte) bool {
	return isTagNameStart(c) || c >= '0' && c <= '9' || c == '-' || c == ':'
}

// lexTag lexes a start or end tag beginning at offset start.
func (l *Lexer) lexTag(start int, closing bool) (Token, bool) {
	i := start + 1
	if closing {
		i++
	}
	nameStart := i
	for i < len(l.src) && isTagNameByte(l.src[i]) {
		i++
	}
	if i == nameStart {
		return Token{}, false
	}
	name := strings.ToLower(l.src[nameStart:i])

	// Skip the attributes to the tag's '>', honoring quoted values.
	sc := attrScan{src: l.src, pos: i}
	for {
		if _, _, ok := sc.next(); !ok {
			break
		}
	}
	i = sc.pos
	if i < len(l.src) {
		i++ // consume '>'
	}
	kind := StartTag
	if closing {
		kind = EndTag
	} else if sc.selfClose {
		kind = SelfClosing
	}
	l.pos = i
	if kind == StartTag && rawTextTags[name] {
		l.rawText = name
	}
	return Token{Kind: kind, Raw: l.src[start:i], Data: name, Offset: start}, true
}

// indexCloseTag finds the byte offset of "</name" in src,
// ASCII-case-insensitively, or -1. A byte-exact scan is required:
// lowering the haystack with strings.ToLower would re-encode invalid
// UTF-8 sequences and shift every offset after them.
func indexCloseTag(src, name string) int {
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

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f'
}

// attrScan walks the attributes of a tag whose name ends at pos. The
// tag ends at its first '>' outside a quoted attribute value, or at
// the end of src.
type attrScan struct {
	src       string
	pos       int
	selfClose bool // a "/>" was seen
}

// next returns the next attribute's name as written and its raw
// (undecoded) value. At the tag's '>' or the end of src it returns
// false and leaves pos there.
func (a *attrScan) next() (name, value string, ok bool) {
	src, i := a.src, a.pos
	for i < len(src) && src[i] != '>' {
		c := src[i]
		switch {
		case c == '/' && i+1 < len(src) && src[i+1] == '>':
			a.selfClose = true
			i++
		case isSpace(c) || c == '/':
			i++
		default:
			if name, value, next, ok := scanAttr(src, i); ok {
				a.pos = next
				return name, value, true
			}
			i++ // skip one byte of garbage and keep going
		}
	}
	a.pos = i
	return "", "", false
}

// scanAttr scans one attribute starting at i. It returns the name as
// written, the raw value ("" when there is none), the position after
// the attribute, and whether an attribute was recognized.
func scanAttr(src string, i int) (name, value string, next int, ok bool) {
	nameStart := i
	for i < len(src) && src[i] != '=' && src[i] != '>' && src[i] != '/' && !isSpace(src[i]) {
		i++
	}
	if i == nameStart {
		return "", "", i, false
	}
	name = src[nameStart:i]
	// Optional whitespace around '='.
	j := i
	for j < len(src) && isSpace(src[j]) {
		j++
	}
	if j >= len(src) || src[j] != '=' {
		return name, "", i, true // valueless attribute
	}
	j++
	for j < len(src) && isSpace(src[j]) {
		j++
	}
	if j >= len(src) {
		return name, "", j, true
	}
	switch q := src[j]; q {
	case '"', '\'':
		j++
		end := strings.IndexByte(src[j:], q)
		if end < 0 {
			return name, src[j:], len(src), true
		}
		return name, src[j : j+end], j + end + 1, true // past the closing quote
	default:
		valStart := j
		for j < len(src) && !isSpace(src[j]) && src[j] != '>' {
			j++
		}
		return name, src[valStart:j], j, true
	}
}

// lexText lexes a text run starting at l.pos. If forceFirst is true the
// first byte is consumed unconditionally (used for stray '<').
func (l *Lexer) lexText(forceFirst bool) Token {
	start := l.pos
	if forceFirst {
		l.pos++
	}
	if end := strings.IndexByte(l.src[l.pos:], '<'); end >= 0 {
		l.pos += end
	} else {
		l.pos = len(l.src)
	}
	raw := l.src[start:l.pos]
	return Token{Kind: Text, Raw: raw, Data: DecodeEntities(raw), Offset: start}
}
