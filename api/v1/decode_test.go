package apiv1

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
)

// edgeBodies are bodies the repository's client never writes: each
// fails to decode, or decodes only through encoding/json's own rules
// (null lists, unknown or case-folded or duplicate keys, trailing
// bytes, surrogate escapes, invalid UTF-8).
var edgeBodies = []string{
	``,
	`{"method":"cs`,
	`{"target":"1"}`,
	`{"target":1e2}`,
	`{not json`,
	`null`,
	`[]`,
	`{"listPages":null,"target":0,"detailPages":null}`,
	`{"listPages":[null],"detailPages":[{"name":null,"html":"x"}]}`,
	`{"method":"quantum","priority":7}`,
	`{"Target":5,"listPages":[{"html":"<p>a</p>"},{"html":"<p>b</p>"}],"detailPages":[{"html":"<p>d</p>"}]}`,
	`{"method":"csp","method":"quantum"}`,
	`{"listPages":[{"name":"a","html":"x"}],"listPages":[{"html":"y"}]}`,
	`{"method":"quantum"} {"method":"csp"} ]]`,
	`{"method":"\ud83d\ude00"}`,
	`{"method":"\ud800"}`,
	"{\"method\":\"q\xffq\"}",
	`{"method":"csp"}`,
	`{"target":-0,"timeoutMillis":9223372036854775807}`,
	`{"target":9223372036854775808}`,
	`{"target":01}`,
	`{"wantStats":1}`,
	` { "method" : "csp" , "wantStats" : true } `,
}

// siteRequest is the request for one sitegen input.
func siteRequest(t testing.TB) SegmentRequest {
	t.Helper()
	p, err := sitegen.ProfileBySlug("allegheny")
	if err != nil {
		t.Fatal(err)
	}
	in := experiments.BuildInput(sitegen.Generate(p, experiments.DefaultSeed), 0)
	req := SegmentRequest{Method: "csp", Target: in.Target, TimeoutMillis: 5000, WantStats: true}
	for _, pg := range in.ListPages {
		req.ListPages = append(req.ListPages, Page{Name: pg.Name, HTML: pg.HTML})
	}
	for _, pg := range in.DetailPages {
		req.DetailPages = append(req.DetailPages, Page{Name: pg.Name, HTML: pg.HTML})
	}
	return req
}

// marshal is the client's encoding of req.
func marshal(t testing.TB, req SegmentRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// matchesEncodingJSON fails t unless DecodeSegmentRequest gives the
// value and the error that encoding/json gives on body.
func matchesEncodingJSON(t *testing.T, body []byte) {
	t.Helper()
	var got, want SegmentRequest
	gotErr := DecodeSegmentRequest(body, &got)
	wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(&want)
	if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
		t.Fatalf("body %q: error %v, encoding/json says %v", body, gotErr, wantErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: decoded %+v, encoding/json decodes %+v", body, got, want)
	}
}

// FuzzDecodeSegmentRequest: on any bytes, the decoder agrees with
// encoding/json on the value, the presence of an error and its text.
func FuzzDecodeSegmentRequest(f *testing.F) {
	// One page of each list keeps the seed small enough to minimize.
	req := siteRequest(f)
	req.ListPages, req.DetailPages = req.ListPages[:1], req.DetailPages[:1]
	f.Add(marshal(f, req))
	for _, b := range edgeBodies {
		f.Add([]byte(b))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		matchesEncodingJSON(t, body)
	})
}

// TestDecodeMatchesEncodingJSONOnMutants runs the fuzz target's check
// over seeded mutants of a small body that uses every field, so plain
// `go test` covers malformed bodies near the client's form.
func TestDecodeMatchesEncodingJSONOnMutants(t *testing.T) {
	base := []byte(`{"method":"csp","solver":"exact","listPages":[{"name":"l<1","html":"<p>a&b\u2029\n\"\\/é😀\u003c\u2028"},{"html":""}],` +
		`"target":1,"detailPages":[{"name":"d","html":"x"}],"timeoutMillis":-25,"wantStats":true}`)
	matchesEncodingJSON(t, base)
	pieces := []string{`"`, `\`, `{`, `}`, `[`, `]`, `,`, `:`, ` `, `\u`, `\ud800`, `😀`, `null`, `true`,
		`-`, `0`, `9`, `.5`, `e2`, "\xff", "\x00", "\xed\xa0\x80", `"name"`, `"Html"`, `"target"`, `"x"`}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		b := append([]byte(nil), base...)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			at := rng.Intn(len(b) + 1)
			switch rng.Intn(4) {
			case 0: // insert a piece
				b = append(b[:at:at], append([]byte(pieces[rng.Intn(len(pieces))]), b[at:]...)...)
			case 1: // delete a short span
				b = append(b[:at:at], b[min(len(b), at+1+rng.Intn(4)):]...)
			case 2: // overwrite a byte
				if at < len(b) {
					b[at] = pieces[rng.Intn(len(pieces))][0]
				}
			case 3: // truncate
				b = b[:at]
			}
		}
		matchesEncodingJSON(t, b)
	}
}

// TestDecodeReplacesRequest: both paths overwrite what *req held.
func TestDecodeReplacesRequest(t *testing.T) {
	for _, body := range []string{`{"solver":"exact"}`, `{"Solver":"exact"}`} {
		req := SegmentRequest{Method: "csp", ListPages: []Page{{Name: "old", HTML: "old"}}, Target: 3}
		if err := DecodeSegmentRequest([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if want := (SegmentRequest{Solver: "exact"}); !reflect.DeepEqual(req, want) {
			t.Errorf("%s: decoded %+v, want %+v", body, req, want)
		}
	}
}

// oneShot decodes body on the one-pass reader alone, reporting whether
// it took the body.
func oneShot(body []byte) (SegmentRequest, bool) {
	d := decoder{body: body}
	ok := d.request()
	return d.req, ok
}

// randomText is valid UTF-8 drawn from what json.Marshal escapes
// (HTML's <>&, U+2028 and U+2029, control characters, quotes,
// backslashes) or writes as is (emoji, accents, U+FFFD, ASCII).
func randomText(rng *rand.Rand) string {
	pool := []string{"<", ">", "&", "\u2028", "\u2029", "\x00", "\x01", "\b", "\f", "\n", "\r", "\t", "\x1f",
		`"`, `\`, "/", "\x7f", "\U0001F600", "é", "\ufffd", "a", "Z", " ", "<td>", "</tr>", "&amp;"}
	var b strings.Builder
	for n := rng.Intn(12); n > 0; n-- {
		b.WriteString(pool[rng.Intn(len(pool))])
	}
	return b.String()
}

// randomRequest draws a request over every field, with nil and empty
// page lists and pages without names.
func randomRequest(rng *rand.Rand) SegmentRequest {
	pages := func() []Page {
		switch rng.Intn(4) {
		case 0:
			return nil
		case 1:
			return []Page{}
		}
		ps := make([]Page, 1+rng.Intn(3))
		for i := range ps {
			if rng.Intn(2) == 0 {
				ps[i].Name = randomText(rng)
			}
			ps[i].HTML = randomText(rng)
		}
		return ps
	}
	ints := []int64{0, 1, -1, 42, -1000, math.MaxInt64, math.MinInt64, rng.Int63(), -rng.Int63()}
	req := SegmentRequest{
		ListPages:     pages(),
		Target:        int(ints[rng.Intn(len(ints))]),
		DetailPages:   pages(),
		TimeoutMillis: ints[rng.Intn(len(ints))],
		WantStats:     rng.Intn(2) == 0,
	}
	if rng.Intn(2) == 0 {
		req.Method = randomText(rng)
	}
	if rng.Intn(2) == 0 {
		req.Solver = randomText(rng)
	}
	return req
}

// TestDecodeTakesMarshalledRequests: every body json.Marshal writes
// for a request is taken by the one-pass reader and round-trips, so
// the client's bodies never fall back to encoding/json.
func TestDecodeTakesMarshalledRequests(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		req := randomRequest(rng)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := oneShot(body)
		if !ok {
			t.Fatalf("one-pass reader refused %s", body)
		}
		if !reflect.DeepEqual(got, req) {
			t.Fatalf("body %s decoded to %+v, want %+v", body, got, req)
		}
	}
	if _, ok := oneShot(marshal(t, siteRequest(t))); !ok {
		t.Fatal("one-pass reader refused a client-encoded sitegen request")
	}
}

// setNonZero sets every field v holds to a value json.Marshal does not
// omit; it reports false for a kind it has no value for.
func setNonZero(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.String:
		v.SetString("x")
	case reflect.Int, reflect.Int64:
		v.SetInt(7)
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
		return setNonZero(v.Index(0))
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !setNonZero(v.Field(i)) {
				return false
			}
		}
	default:
		return false
	}
	return true
}

// TestDecoderKnowsEveryField: a request that sets any one json-tagged
// field of SegmentRequest or Page is taken by the one-pass reader, so
// a field added to the wire types cannot quietly send every body to
// encoding/json.
func TestDecoderKnowsEveryField(t *testing.T) {
	check := func(field reflect.StructField, req SegmentRequest) {
		t.Helper()
		body := marshal(t, req)
		got, ok := oneShot(body)
		if !ok || !reflect.DeepEqual(got, req) {
			t.Errorf("field %s (json %q): one-pass reader took %v and decoded %+v from %s",
				field.Name, field.Tag.Get("json"), ok, got, body)
		}
	}
	rt := reflect.TypeOf(SegmentRequest{})
	for i := 0; i < rt.NumField(); i++ {
		var req SegmentRequest
		if !setNonZero(reflect.ValueOf(&req).Elem().Field(i)) {
			t.Fatalf("SegmentRequest.%s: no test value for its kind", rt.Field(i).Name)
		}
		check(rt.Field(i), req)
	}
	pt := reflect.TypeOf(Page{})
	for i := 0; i < pt.NumField(); i++ {
		var p Page
		if !setNonZero(reflect.ValueOf(&p).Elem().Field(i)) {
			t.Fatalf("Page.%s: no test value for its kind", pt.Field(i).Name)
		}
		check(pt.Field(i), SegmentRequest{DetailPages: []Page{p}})
	}
}

// TestDecodeAllocsIndependentOfText: with the page counts fixed, the
// decode's allocations do not grow with the number of strings in the
// body or the escapes in them (json.Decoder's grow with both).
func TestDecodeAllocsIndependentOfText(t *testing.T) {
	body := func(named bool, escapes int) []byte {
		html := "<p>" + strings.Repeat("<b>&\u2028\n😀", escapes) + "</p>"
		req := SegmentRequest{ListPages: make([]Page, 2), DetailPages: make([]Page, 5)}
		if named {
			req.Method, req.Solver = "csp", "exact"
		}
		for _, ps := range [][]Page{req.ListPages, req.DetailPages} {
			for i := range ps {
				ps[i].HTML = html
				if named {
					ps[i].Name = fmt.Sprintf("page%d.html", i)
				}
			}
		}
		b, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	allocs := func(b []byte) float64 {
		var req SegmentRequest
		return testing.AllocsPerRun(20, func() {
			if err := DecodeSegmentRequest(b, &req); err != nil {
				t.Fatal(err)
			}
		})
	}
	base := allocs(body(false, 0))
	for _, c := range []struct {
		named   bool
		escapes int
	}{{true, 0}, {false, 1000}, {true, 1000}} {
		if got := allocs(body(c.named, c.escapes)); got != base {
			t.Errorf("named=%v escapes=%d: %v allocs, want %v as with no names or escapes", c.named, c.escapes, got, base)
		}
	}
	// One text block, plus the growth of two page slices of 2 and 5.
	if base > 1+2+4 {
		t.Errorf("%v allocs for 7 pages, want at most 7", base)
	}
}

// chromeBody is the client's encoding of a sitegen request whose 22
// pages each carry about 20 KB of seeded navigation chrome, ~740 KB in
// all, the size of the bodies a warm daemon serves.
func chromeBody(b *testing.B) []byte {
	b.Helper()
	chrome := func(seed int) string {
		var s strings.Builder
		s.WriteString(`<nav class="site"><ul>`)
		for i := 0; s.Len() < 20<<10; i++ {
			fmt.Fprintf(&s, "<li class=\"nav-item\"><a href=\"/s%d/item-%d?ref=nav&amp;p=%d\">Section %d &raquo; Item %d</a></li>\n",
				seed, i, i%7, seed, i)
		}
		s.WriteString(`</ul></nav><script>if (a < b && b > c) { go(); }</script>`)
		return s.String()
	}
	req := siteRequest(b)
	for i := range req.ListPages {
		req.ListPages[i].HTML = chrome(i) + req.ListPages[i].HTML
	}
	for i := range req.DetailPages {
		req.DetailPages[i].HTML = chrome(100+i) + req.DetailPages[i].HTML
	}
	return marshal(b, req)
}

// decoded keeps the benchmark's last result alive.
var decoded SegmentRequest

// BenchmarkDecodeSegmentRequest decodes one client-encoded request
// with chrome-sized pages, through json.Decoder (what the daemon did
// before) and through DecodeSegmentRequest.
func BenchmarkDecodeSegmentRequest(b *testing.B) {
	body := chromeBody(b)
	b.Run("json.Decoder", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			decoded = SegmentRequest{}
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&decoded); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("one-pass", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := DecodeSegmentRequest(body, &decoded); err != nil {
				b.Fatal(err)
			}
		}
	})
}
