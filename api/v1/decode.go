package apiv1

import (
	"bytes"
	"encoding/json"
	"strings"
	"unicode/utf8"
)

// DecodeSegmentRequest decodes a POST /v1/segment body into *req,
// replacing its contents. The value and the error are exactly those of
// json.NewDecoder(bytes.NewReader(body)).Decode into a zero
// SegmentRequest; as there, bytes after the first JSON value are
// ignored.
//
// A body in the form json.Marshal writes is decoded in one pass: the
// request's and the pages' keys in exact case and each at most once,
// strings with any escape but a surrogate, integers, booleans and null
// page lists, with any whitespace between them. Every decoded string
// is then a substring of one allocation of at most len(body) bytes.
// Any other body (unknown, case-folded, escaped or duplicate keys,
// other nulls, surrogate escapes, invalid UTF-8, non-integer numbers, a
// non-object, a truncated body) is left to encoding/json, so its value
// and error read as they always have.
func DecodeSegmentRequest(body []byte, req *SegmentRequest) error {
	d := decoder{body: body}
	if d.request() {
		*req = d.req
		return nil
	}
	*req = SegmentRequest{}
	return json.NewDecoder(bytes.NewReader(body)).Decode(req)
}

// decoder is the one-pass reader of DecodeSegmentRequest. Each method
// consumes one JSON construct at pos and reports false, leaving the
// decoder in an undefined state, on any input outside the form it
// takes.
type decoder struct {
	body []byte
	pos  int
	// text holds every decoded string back to back. Decoding never
	// lengthens a string, so once grown to len(body) it never moves.
	text strings.Builder
	req  SegmentRequest
}

// request decodes the whole request object into d.req.
func (d *decoder) request() bool {
	if d.peek() != '{' {
		return false
	}
	d.text.Grow(len(d.body))
	r := &d.req
	var seen uint
	return d.object(func(key []byte) bool {
		var bit uint
		ok := false
		switch string(key) {
		case "method":
			bit, ok = 1<<0, d.str(&r.Method)
		case "solver":
			bit, ok = 1<<1, d.str(&r.Solver)
		case "listPages":
			bit, ok = 1<<2, d.pages(&r.ListPages)
		case "target":
			n, isInt := d.int()
			bit, ok = 1<<3, isInt && int64(int(n)) == n
			r.Target = int(n)
		case "detailPages":
			bit, ok = 1<<4, d.pages(&r.DetailPages)
		case "timeoutMillis":
			bit = 1 << 5
			r.TimeoutMillis, ok = d.int()
		case "wantStats":
			bit = 1 << 6
			r.WantStats, ok = d.bool()
		}
		return ok && once(&seen, bit)
	})
}

// pages decodes a page list: null leaves *ps nil, and an array, empty
// or not, makes it non-nil, as encoding/json does.
func (d *decoder) pages(ps *[]Page) bool {
	if d.lit("null") {
		return true
	}
	if !d.eat('[') {
		return false
	}
	*ps = []Page{}
	if d.eat(']') {
		return true
	}
	for {
		var p Page
		var seen uint
		ok := d.object(func(key []byte) bool {
			switch string(key) {
			case "name":
				return d.str(&p.Name) && once(&seen, 1<<0)
			case "html":
				return d.str(&p.HTML) && once(&seen, 1<<1)
			}
			return false
		})
		if !ok {
			return false
		}
		*ps = append(*ps, p)
		if !d.eat(',') {
			return d.eat(']')
		}
	}
}

// once marks bit in *seen and reports whether it was clear.
func once(seen *uint, bit uint) bool {
	if *seen&bit != 0 {
		return false
	}
	*seen |= bit
	return true
}

// object decodes one object, calling member with each key once pos is
// at the key's value; member decodes the value or reports false. Keys
// are compared as spelled, so an escaped key matches no name.
func (d *decoder) object(member func(key []byte) bool) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	for {
		if !d.eat('"') {
			return false
		}
		n := bytes.IndexByte(d.body[d.pos:], '"')
		if n < 0 {
			return false
		}
		key := d.body[d.pos : d.pos+n]
		d.pos += n + 1
		if !d.eat(':') || !member(key) {
			return false
		}
		if !d.eat(',') {
			return d.eat('}')
		}
	}
}

// str decodes a string into *s, appending its text to d.text.
func (d *decoder) str(s *string) bool {
	if !d.eat('"') {
		return false
	}
	b, start := d.body, d.text.Len()
	run := d.pos // start of the bytes not yet copied to d.text
	for i := run; i < len(b); {
		switch c := b[i]; {
		case ' ' <= c && c < utf8.RuneSelf && c != '"' && c != '\\':
			i++
		case c == '"':
			d.text.Write(b[run:i])
			d.pos = i + 1
			*s = d.text.String()[start:]
			return true
		case c == '\\':
			d.text.Write(b[run:i])
			n := escape(&d.text, b[i:])
			if n == 0 {
				return false
			}
			i += n
			run = i
		case c < ' ':
			return false
		default:
			r, n := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && n == 1 {
				return false
			}
			i += n
		}
	}
	return false
}

// escape writes the character that the escape sequence at the start of
// b stands for and returns the sequence's length, or 0 for a sequence
// it does not take: a malformed one or a UTF-16 surrogate.
func escape(text *strings.Builder, b []byte) int {
	if len(b) < 2 {
		return 0
	}
	var c byte
	switch b[1] {
	case '"', '\\', '/':
		c = b[1]
	case 'b':
		c = '\b'
	case 'f':
		c = '\f'
	case 'n':
		c = '\n'
	case 'r':
		c = '\r'
	case 't':
		c = '\t'
	case 'u':
		if len(b) < 6 {
			return 0
		}
		var r rune
		for _, h := range b[2:6] {
			switch {
			case '0' <= h && h <= '9':
				h -= '0'
			case 'a' <= h && h <= 'f':
				h -= 'a' - 10
			case 'A' <= h && h <= 'F':
				h -= 'A' - 10
			default:
				return 0
			}
			r = r<<4 | rune(h)
		}
		switch {
		case r < utf8.RuneSelf:
			// json.Marshal's escapes of <, > and &, the common case.
			text.WriteByte(byte(r))
		case 0xD800 <= r && r < 0xE000:
			return 0
		default:
			text.WriteRune(r)
		}
		return 6
	default:
		return 0
	}
	text.WriteByte(c)
	return 2
}

// int decodes an integer that fits in an int64.
func (d *decoder) int() (int64, bool) {
	d.peek()
	b, i := d.body, d.pos
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var n uint64
	// Nineteen digits cannot overflow a uint64; a longer number leaves
	// a digit at pos, which no caller takes.
	for i < len(b) && i-start < 19 && '0' <= b[i] && b[i] <= '9' {
		n = n*10 + uint64(b[i]-'0')
		i++
	}
	if i == start || (b[start] == '0' && i-start > 1) {
		return 0, false
	}
	d.pos = i
	if neg {
		return -int64(n), n <= 1<<63
	}
	return int64(n), n < 1<<63
}

// bool decodes true or false.
func (d *decoder) bool() (v, ok bool) {
	if d.lit("true") {
		return true, true
	}
	return false, d.lit("false")
}

// lit consumes the literal s after any whitespace.
func (d *decoder) lit(s string) bool {
	d.peek()
	if end := d.pos + len(s); end <= len(d.body) && string(d.body[d.pos:end]) == s {
		d.pos = end
		return true
	}
	return false
}

// eat consumes c after any whitespace.
func (d *decoder) eat(c byte) bool {
	if d.peek() == c {
		d.pos++
		return true
	}
	return false
}

// peek skips whitespace and returns the byte at pos, 0 at the end.
func (d *decoder) peek() byte {
	for ; d.pos < len(d.body); d.pos++ {
		switch c := d.body[d.pos]; c {
		case ' ', '\t', '\n', '\r':
		default:
			return c
		}
	}
	return 0
}
