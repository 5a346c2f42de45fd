package token

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tableseg/internal/htmlx"
	"tableseg/internal/sitegen"
)

// The reference below is the tokenizer this package had before it
// consumed the lexer's stream directly: a loop over the whole token
// slice of htmlx.Tokenize (which the htmlx reference test pins to the
// lexer it had then), a canonical tag text built by concatenation for
// every tag, and a TypeOf that scans a word up to four times. Tokenize
// and TypeOf must agree with it exactly.

// refTokenize converts an HTML document into the paper's flat token stream:
// tags become single HTML-typed tokens, text runs are entity-decoded and
// split on whitespace into word tokens, and each word token is assigned
// its syntactic type set. Comments, doctypes, and script/style bodies
// produce no tokens (they are invisible).
func refTokenize(src string) []Token {
	raw := htmlx.Tokenize(src)
	out := make([]Token, 0, len(raw)*2)
	skipText := 0 // >0 while inside <script>/<style>
	for _, rt := range raw {
		switch rt.Kind {
		case htmlx.Comment, htmlx.Doctype:
			continue
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
			out = append(out, Token{Text: refCanonicalTag(rt), Type: HTML, Offset: rt.Offset})
		case htmlx.Text:
			if skipText > 0 {
				continue
			}
			out = refAppendWords(out, rt.Data, rt.Offset)
		}
	}
	return out
}

// refCanonicalTag renders a tag token in its canonical attribute-free form.
func refCanonicalTag(rt htmlx.Token) string {
	switch rt.Kind {
	case htmlx.EndTag:
		return "</" + rt.Data + ">"
	case htmlx.SelfClosing:
		return "<" + rt.Data + "/>"
	default:
		return "<" + rt.Data + ">"
	}
}

// refAppendWords splits text on whitespace and appends one typed token per
// word. Offsets are approximate within the run (start offset + index of
// the word in the decoded text), which is sufficient for ordering.
func refAppendWords(out []Token, text string, base int) []Token {
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
		out = append(out, Token{Text: w, Type: refTypeOf(w), Offset: base + start})
	}
	return out
}

// refTypeOf computes the syntactic type set for a single word token (not an
// HTML tag). HTML tags get their type from the tokenizer directly.
func refTypeOf(s string) Type {
	if s == "" {
		return 0
	}
	var (
		hasLetter, hasDigit, hasOther bool
		hasUpper, hasLower            bool
	)
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z':
			hasLetter, hasLower = true, true
		case c >= 'A' && c <= 'Z':
			hasLetter, hasUpper = true, true
		case c >= '0' && c <= '9':
			hasDigit = true
		default:
			hasOther = true
		}
	}
	if !hasLetter && !hasDigit {
		return Punct
	}
	t := Alnum
	if hasDigit && !hasLetter && !refHasOtherBeyondNumericPunct(s, hasOther) {
		t |= Numeric
	}
	if hasLetter && !hasDigit && !refHasOtherBeyondWordPunct(s, hasOther) {
		t |= Alpha
		switch {
		case hasUpper && !hasLower:
			t |= AllCaps
		case !hasUpper && hasLower:
			t |= Lowercase
		case refIsCapitalized(s):
			t |= Capitalized
		}
	}
	return t
}

// refHasOtherBeyondNumericPunct reports whether s contains non-digit
// characters other than the punctuation conventionally embedded in
// numbers, phone numbers and dates ('.', ',', '-', '(', ')', '/', ':').
func refHasOtherBeyondNumericPunct(s string, hasOther bool) bool {
	if !hasOther {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= '0' && c <= '9' {
			continue
		}
		switch c {
		case '.', ',', '-', '(', ')', '/', ':':
			continue
		}
		return true
	}
	return false
}

// refHasOtherBeyondWordPunct reports whether s contains non-alphanumeric
// characters other than the intra-word punctuation commonly embedded in
// names and words (period, hyphen, apostrophe), e.g. "O'Brien",
// "anti-virus", "Jr.".
func refHasOtherBeyondWordPunct(s string, hasOther bool) bool {
	if !hasOther {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' {
			continue
		}
		if c == '.' || c == '-' || c == '\'' {
			continue
		}
		return true
	}
	return false
}

// refIsCapitalized reports whether the first letter of s is uppercase and
// every subsequent letter is lowercase.
func refIsCapitalized(s string) bool {
	first := true
	for i := 0; i < len(s); i++ {
		c := s[i]
		isUp := c >= 'A' && c <= 'Z'
		isLo := c >= 'a' && c <= 'z'
		if !isUp && !isLo {
			continue
		}
		if first {
			if !isUp {
				return false
			}
			first = false
			continue
		}
		if isUp {
			return false
		}
	}
	return !first
}

// chromeHead and chromeTail wrap a page in markup the generated pages
// lack: attributes of every shape, a '>' inside a quoted value,
// upper-case and unterminated tags, a script, a style and entities.
const (
	chromeHead = `<div class="nav" data-x='a>b' title="Tom &amp; Jerry"><A HREF=/x.html?a=1&amp;b=2 Class=Big>Home &raquo;</A>` +
		`<img src="x.png" alt="1 > 0"/><br /><input disabled value = 'x' ><TD Class="Big"></TD ></td x>` +
		`<script type="text/javascript">if (a < b && c > d) { s = "<td>"; }</SCRIPT ><style media=screen>p > b { x: 1 }</style>` +
		`<p>&copy; 2004 &#65;&#x42; &nbsp;Foo O'Brien 555-1212 &bogus; &amp</p>`
	chromeTail = `<!-- footer <b> --><br/><hr/ ><a href="/next.html" rel=next>Next &gt;&gt;</a><?php echo 1 ?><![CDATA[a <b> c]]><p`
)

// referenceInputs returns every page sitegen generates for its profiles
// at seeds 42-45, each of those pages wrapped in the chrome, and random
// strings over an HTML-like alphabet.
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
		docs = append(docs, chromeHead+p+chromeTail)
	}
	pieces := []string{"<", ">", "/", "!", "-", "=", `"`, "'", " ", "\n", "&", ";", "#", ",", ".", "x", "a", "B", "1",
		"td", "script", "STYLE", "br/", "<!--", "-->", "amp", "href", "\x80"}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		var b strings.Builder
		for k := rng.Intn(41); k > 0; k-- {
			b.WriteString(pieces[rng.Intn(len(pieces))])
		}
		docs = append(docs, b.String())
	}
	return docs
}

func TestTokenizeMatchesReference(t *testing.T) {
	for _, src := range referenceInputs() {
		if got, want := Tokenize(src), refTokenize(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %v\nwant %v", src, got, want)
		}
	}
}

// TestTokenizeAllocatesOnce pins the cost of a page whose tags are
// spelled canonically and whose text has no entities: its tokens are
// all substrings of the page, so the token slice is the only
// allocation.
func TestTokenizeAllocatesOnce(t *testing.T) {
	src := "<html><body><table><tr><td>Smith, John</td><td>(740) 555-1212</td></tr><br/></table></body></html>"
	if n := testing.AllocsPerRun(100, func() { Tokenize(src) }); n != 1 {
		t.Errorf("Tokenize allocated %v times, want 1", n)
	}
}

// TestTypeOfMatchesReference checks every string of up to six bytes
// over an alphabet with a byte of each class TypeOf tells apart.
func TestTypeOfMatchesReference(t *testing.T) {
	const alphabet = "aZ0.-',()/:#\x80 "
	buf := make([]byte, 0, 6)
	var walk func() bool
	walk = func() bool {
		s := string(buf)
		if got, want := TypeOf(s), refTypeOf(s); got != want {
			t.Errorf("TypeOf(%q) = %v, reference %v", s, got, want)
			return false
		}
		if len(buf) == cap(buf) {
			return true
		}
		for i := 0; i < len(alphabet); i++ {
			buf = append(buf, alphabet[i])
			ok := walk()
			buf = buf[:len(buf)-1]
			if !ok {
				return false
			}
		}
		return true
	}
	walk()
}

// FuzzTokenizeMatchesReference compares Tokenize with the reference on
// arbitrary documents.
func FuzzTokenizeMatchesReference(f *testing.F) {
	for _, s := range []string{
		"",
		"<html><body><p>Hello, World</p></body></html>",
		chromeHead + "<td>O'Brien</td><td>(740) 555-1212</td>" + chromeTail,
		"<script>a</script ><p>b</scripts>c</style>d",
		"<TD><td ><td/><br/><br /></td></TD>",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if got, want := Tokenize(src), refTokenize(src); !reflect.DeepEqual(got, want) {
			t.Fatalf("%q:\n got %v\nwant %v", src, got, want)
		}
	})
}
