package stage

import (
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"

	"tableseg/internal/artifact"
	"tableseg/internal/extract"
	"tableseg/internal/pagetemplate"
	"tableseg/internal/token"
)

const codecTestPage = `<html><body><h1>Books</h1><table>
<tr><td><a href="/b/1">War and Peace</a></td><td>Tolstoy</td><td>$12.50</td></tr>
<tr><td><a href="/b/2">Anna Karenina</a></td><td>Tolstoy</td><td>$9.99</td></tr>
</table></body></html>`

func TestTokensRoundTrip(t *testing.T) {
	cases := map[string][]token.Token{
		"nil":       nil,
		"empty":     {},
		"real-page": token.Tokenize(codecTestPage),
		"edge-values": {
			{Text: "", Type: 0, Offset: 0},
			{Text: "héllo\x00world", Type: math.MaxUint16, Offset: -1},
			{Text: "plain", Type: token.Alpha, Offset: 1 << 40},
		},
	}
	for name, toks := range cases {
		got, err := DecodeTokens(EncodeTokens(toks))
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, toks) {
			t.Errorf("%s: round trip = %#v, want %#v", name, got, toks)
		}
	}
}

// TestTokensKeepNilAndEmptyApart checks that a round trip tells a nil
// stream from an empty one: resumed output must be byte-identical, and
// encoding/json renders the two differently.
func TestTokensKeepNilAndEmptyApart(t *testing.T) {
	gotNil, err := DecodeTokens(EncodeTokens(nil))
	if err != nil || gotNil != nil {
		t.Errorf("nil round trip = %#v, %v; want nil", gotNil, err)
	}
	gotEmpty, err := DecodeTokens(EncodeTokens([]token.Token{}))
	if err != nil || gotEmpty == nil || len(gotEmpty) != 0 {
		t.Errorf("empty round trip = %#v, %v; want an empty non-nil slice", gotEmpty, err)
	}
}

// TestEncodeTokensSizedExactly checks that a token payload carries no
// spare capacity: a memory store keeps the slice it is handed.
func TestEncodeTokensSizedExactly(t *testing.T) {
	for name, toks := range map[string][]token.Token{
		"nil":       nil,
		"empty":     {},
		"real-page": token.Tokenize(codecTestPage),
		"edge-values": {
			{Text: strings.Repeat("x", 200), Type: math.MaxUint16, Offset: math.MinInt64},
			{Text: "", Type: 0, Offset: math.MaxInt64},
			{Text: "y", Type: 127, Offset: -64},
			{Text: "z", Type: 128, Offset: 64},
		},
	} {
		if data := EncodeTokens(toks); len(data) != cap(data) {
			t.Errorf("%s: payload len %d, cap %d", name, len(data), cap(data))
		}
	}
}

// tokenPayload hand-builds a token payload of len(lens) tokens: the
// text block, then each token's text length, type 0 and offset 0.
func tokenPayload(text string, lens ...uint64) []byte {
	e := NewEncoder(artifact.KindTokens, CodecVersion)
	e.Len(len(lens), false)
	e.Str(text)
	for _, l := range lens {
		e.Uint(l)
		e.Uint(0)
		e.Int(0)
	}
	return e.Bytes()
}

func TestDecodeTokensChecksTextLengths(t *testing.T) {
	if toks, err := DecodeTokens(tokenPayload("abc", 1, 2)); err != nil || len(toks) != 2 || toks[0].Text != "a" || toks[1].Text != "bc" {
		t.Fatalf("well-formed payload = %#v, %v", toks, err)
	}
	for name, data := range map[string][]byte{
		"past-block":  tokenPayload("ab", 1, 2),
		"unused-text": tokenPayload("abc", 1, 1),
		"no-tokens":   tokenPayload("a"),
	} {
		if _, err := DecodeTokens(data); !errors.Is(err, ErrCodec) {
			t.Errorf("%s: err = %v, want ErrCodec", name, err)
		}
	}
}

func TestTemplateRoundTrip(t *testing.T) {
	p1 := token.Tokenize(codecTestPage)
	p2 := token.Tokenize(codecTestPage + "<p>extra trailing chrome</p>")
	cases := map[string]Template{
		"nil-template":  {},
		"induced":       {Tpl: pagetemplate.Induce([][]token.Token{p1, p2})},
		"single-page":   {Tpl: pagetemplate.Induce([][]token.Token{p1})},
		"zero-pages":    {Tpl: pagetemplate.Induce(nil)},
		"hand-built":    {Tpl: pagetemplate.FromData(pagetemplate.TemplateData{Skeleton: []string{"<html>", "x"}, Positions: [][]int{{0, 3}, nil, {}}, NumPages: 3})},
		"empty-content": {Tpl: pagetemplate.FromData(pagetemplate.TemplateData{})},
	}
	for name, tpl := range cases {
		got, err := DecodeTemplate(EncodeTemplate(tpl))
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if (got.Tpl == nil) != (tpl.Tpl == nil) {
			t.Errorf("%s: Tpl nil-ness changed", name)
			continue
		}
		if tpl.Tpl != nil && !reflect.DeepEqual(got.Tpl.Data(), tpl.Tpl.Data()) {
			t.Errorf("%s: round trip = %#v, want %#v", name, got.Tpl.Data(), tpl.Tpl.Data())
		}
	}
}

func codecTestRecords() []Record {
	return []Record{
		{
			Index: 0,
			Extracts: []extract.Extract{
				{Index: 1, Words: []string{"War", "and", "Peace"}, Types: []token.Type{token.Alpha, token.Alpha, token.Alpha}, TokenStart: 4, TokenEnd: 7, ByteStart: 40, ByteEnd: 53},
				{Index: 2, Words: nil, Types: []token.Type{}, TokenStart: -1, TokenEnd: 0, ByteStart: 0, ByteEnd: 0},
			},
			Columns:    []int{0, -1},
			Analyzed:   []bool{true, false},
			Confidence: []float64{0.875, -1},
		},
		{
			Index:      7,
			Extracts:   []extract.Extract{},
			Columns:    nil,
			Analyzed:   []bool{},
			Confidence: []float64{math.Inf(1), math.Inf(-1), math.Copysign(0, -1), math.SmallestNonzeroFloat64},
		},
	}
}

// encodeRecords frames a record list as a payload of its own: a
// result-kind header, EncodeRecordsInto, nothing after it.
func encodeRecords(recs []Record) []byte {
	e := NewEncoder(artifact.KindResult, CodecVersion)
	EncodeRecordsInto(e, recs)
	return e.Bytes()
}

// decodeRecords reverses encodeRecords, rejecting trailing bytes.
func decodeRecords(data []byte) ([]Record, error) {
	d, err := NewDecoder(data, artifact.KindResult, CodecVersion)
	if err != nil {
		return nil, err
	}
	recs, err := DecodeRecordsFrom(d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return recs, nil
}

func TestRecordsRoundTrip(t *testing.T) {
	cases := map[string][]Record{
		"nil":   nil,
		"empty": {},
		"full":  codecTestRecords(),
	}
	for name, recs := range cases {
		got, err := decodeRecords(encodeRecords(recs))
		if err != nil {
			t.Errorf("%s: decode: %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, recs) {
			t.Errorf("%s: round trip = %#v, want %#v", name, got, recs)
		}
	}
	// NaN confidence round-trips bit-exactly (DeepEqual rejects NaN).
	recs := []Record{{Confidence: []float64{math.NaN()}}}
	got, err := decodeRecords(encodeRecords(recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Confidence) != 1 || !math.IsNaN(got[0].Confidence[0]) {
		t.Errorf("NaN confidence did not round-trip: %#v", got)
	}
}

func TestDecodeRejectsWrongKindAndVersion(t *testing.T) {
	toks := EncodeTokens(token.Tokenize("<p>hi</p>"))
	if _, err := DecodeTemplate(toks); !errors.Is(err, ErrCodec) {
		t.Errorf("cross-kind decode err = %v, want ErrCodec", err)
	}
	// A payload written under a different codec version must be
	// rejected outright, never reinterpreted.
	e := NewEncoder(artifact.KindTokens, CodecVersion+1)
	e.Len(0, true)
	if _, err := DecodeTokens(e.Bytes()); !errors.Is(err, ErrCodec) {
		t.Errorf("cross-version decode err = %v, want ErrCodec", err)
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	data := append(EncodeTokens(nil), 0xFF)
	if _, err := DecodeTokens(data); !errors.Is(err, ErrCodec) {
		t.Errorf("trailing bytes err = %v, want ErrCodec", err)
	}
}

// TestDecodeTruncationsError feeds every strict prefix of valid
// encodings to the decoders: each must return an error (wrapping
// ErrCodec) and none may panic.
func TestDecodeTruncationsError(t *testing.T) {
	encodings := map[string][]byte{
		"tokens":   EncodeTokens(token.Tokenize(codecTestPage)),
		"template": EncodeTemplate(Template{Tpl: pagetemplate.Induce([][]token.Token{token.Tokenize(codecTestPage), token.Tokenize(codecTestPage + "<hr>")})}),
		"records":  encodeRecords(codecTestRecords()),
	}
	decode := map[string]func([]byte) error{
		"tokens":   func(b []byte) error { _, err := DecodeTokens(b); return err },
		"template": func(b []byte) error { _, err := DecodeTemplate(b); return err },
		"records":  func(b []byte) error { _, err := decodeRecords(b); return err },
	}
	for name, data := range encodings {
		for i := 0; i < len(data); i++ {
			if err := decode[name](data[:i]); !errors.Is(err, ErrCodec) {
				t.Fatalf("%s: prefix of %d/%d bytes: err = %v, want ErrCodec", name, i, len(data), err)
			}
		}
		if err := decode[name](data); err != nil {
			t.Errorf("%s: full payload failed: %v", name, err)
		}
	}
}

// FuzzArtifactCodec drives every decoder with arbitrary bytes (decode
// must error or succeed, never panic) and checks the round-trip
// property decode(encode(x)) == x on artifacts derived from the fuzz
// input.
func FuzzArtifactCodec(f *testing.F) {
	f.Add([]byte(codecTestPage))
	f.Add([]byte{})
	f.Add(EncodeTokens(token.Tokenize("<p>seed</p>")))
	f.Add(tokenPayload("ab", 1, 2))  // a text length past the text block
	f.Add(tokenPayload("abc", 1, 1)) // text bytes left over
	f.Add(EncodeTemplate(Template{}))
	f.Add(encodeRecords(codecTestRecords()))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Arbitrary bytes: decoders may reject but must not panic.
		if toks, err := DecodeTokens(data); err == nil {
			redata := EncodeTokens(toks)
			if toks2, err := DecodeTokens(redata); err != nil || !tokensEquivalent(toks, toks2) {
				t.Fatalf("accepted tokens payload does not re-encode stably: %v", err)
			}
		}
		if tpl, err := DecodeTemplate(data); err == nil {
			if _, err := DecodeTemplate(EncodeTemplate(tpl)); err != nil {
				t.Fatalf("accepted template payload does not re-encode: %v", err)
			}
		}
		if _, err := decodeRecords(data); err == nil { //nolint:staticcheck // reject-or-accept, never panic
			_ = err
		}

		// Round trip artifacts derived from the input.
		toks := token.Tokenize(string(data))
		got, err := DecodeTokens(EncodeTokens(toks))
		if err != nil {
			t.Fatalf("round-trip decode: %v", err)
		}
		if !reflect.DeepEqual(got, toks) {
			t.Fatalf("tokens round trip mismatch: %#v != %#v", got, toks)
		}
		tpl := Template{Tpl: pagetemplate.Induce([][]token.Token{toks, token.Tokenize(string(data) + "<hr>")})}
		gotTpl, err := DecodeTemplate(EncodeTemplate(tpl))
		if err != nil {
			t.Fatalf("template round trip decode: %v", err)
		}
		if !reflect.DeepEqual(gotTpl.Tpl.Data(), tpl.Tpl.Data()) {
			t.Fatal("template round trip mismatch")
		}
	})
}

// tokensEquivalent compares token slices treating nil and empty as
// equal (re-encoded foreign payloads need not preserve that bit).
func tokensEquivalent(a, b []token.Token) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
