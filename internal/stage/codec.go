package stage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"tableseg/internal/artifact"
	"tableseg/internal/extract"
	"tableseg/internal/pagetemplate"
	"tableseg/internal/token"
)

// CodecVersion is the version of the artifact wire format below. It
// participates in every artifact.Key, so bumping it when the format
// (or any encoded struct's meaning) changes makes old payloads
// unreachable — a version bump invalidates, never misreads.
const CodecVersion = 2

// codecMagic opens every encoded artifact, ahead of the kind and
// version bytes, so a decoder handed bytes of the wrong shape fails
// fast instead of misparsing.
const codecMagic = "TSC"

// ErrCodec is the sentinel wrapped by every artifact-codec decode
// failure: wrong magic, kind or version, truncated or corrupt payload.
var ErrCodec = errors.New("stage: artifact codec")

// Encoder builds an encoded artifact payload. The format is not
// self-describing beyond its header — Encoder and Decoder calls must
// mirror each other exactly, which the round-trip and fuzz tests pin.
type Encoder struct {
	buf []byte
}

// NewEncoder starts a payload of the given kind under the given codec
// version (stage artifacts pass CodecVersion; the engine's result
// journal layers its own version on top).
func NewEncoder(kind artifact.Kind, version uint16) *Encoder {
	return newEncoder(kind, version, 64)
}

// newEncoder starts a payload with room for size bytes in all, header
// included.
func newEncoder(kind artifact.Kind, version uint16, size int) *Encoder {
	e := &Encoder{buf: make([]byte, 0, size)}
	e.buf = append(e.buf, codecMagic...)
	e.buf = append(e.buf, byte(kind))
	e.Uint(uint64(version))
	return e
}

// headerLen is the size of the header newEncoder writes.
func headerLen(version uint16) int {
	return len(codecMagic) + 1 + uvarintLen(uint64(version))
}

// uvarintLen is the size of v encoded by Encoder.Uint.
func uvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// varintLen is the size of v encoded by Encoder.Int.
func varintLen(v int64) int {
	ux := uint64(v) << 1
	if v < 0 {
		ux = ^ux
	}
	return uvarintLen(ux)
}

// lenCode is the value Encoder.Len writes.
func lenCode(n int, isNil bool) uint64 {
	if isNil {
		return 0
	}
	return uint64(n) + 1
}

// Uint appends an unsigned varint.
func (e *Encoder) Uint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }

// Int appends a signed (zigzag) varint.
func (e *Encoder) Int(v int64) { e.buf = binary.AppendVarint(e.buf, v) }

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.Uint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Bool appends one byte.
func (e *Encoder) Bool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
	} else {
		e.buf = append(e.buf, 0)
	}
}

// Float appends a float64 as its fixed 8-byte IEEE-754 bit pattern,
// so every value (including NaNs and signed zeros) round-trips
// bit-exactly.
func (e *Encoder) Float(f float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(f))
}

// Len appends a slice length with nil-ness preserved: nil encodes as
// 0, a non-nil slice of length n as n+1. Decoders recover the
// distinction, so encoded artifacts round-trip nil-vs-empty exactly —
// required for byte-identical resumed output.
func (e *Encoder) Len(n int, isNil bool) { e.Uint(lenCode(n, isNil)) }

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.buf }

// Decoder reads an encoded artifact payload. Every method returns an
// error wrapping ErrCodec on malformed input; none panic, whatever the
// bytes.
type Decoder struct {
	buf []byte
	off int
}

// NewDecoder validates the header (magic, kind, version) and positions
// the decoder at the payload.
func NewDecoder(data []byte, kind artifact.Kind, version uint16) (*Decoder, error) {
	d := &Decoder{buf: data}
	if len(data) < len(codecMagic)+1 || string(data[:len(codecMagic)]) != codecMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrCodec)
	}
	d.off = len(codecMagic)
	if got := artifact.Kind(data[d.off]); got != kind {
		return nil, fmt.Errorf("%w: kind %s, want %s", ErrCodec, got, kind)
	}
	d.off++
	v, err := d.Uint()
	if err != nil {
		return nil, err
	}
	if v != uint64(version) {
		return nil, fmt.Errorf("%w: version %d, want %d", ErrCodec, v, version)
	}
	return d, nil
}

// Uint reads an unsigned varint.
func (d *Decoder) Uint() (uint64, error) {
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated uvarint at %d", ErrCodec, d.off)
	}
	d.off += n
	return v, nil
}

// Int reads a signed varint.
func (d *Decoder) Int() (int64, error) {
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at %d", ErrCodec, d.off)
	}
	d.off += n
	return v, nil
}

// Str reads a length-prefixed string.
func (d *Decoder) Str() (string, error) {
	n, err := d.Uint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.buf)-d.off) {
		return "", fmt.Errorf("%w: string length %d exceeds remaining %d", ErrCodec, n, len(d.buf)-d.off)
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// Bool reads one byte.
func (d *Decoder) Bool() (bool, error) {
	if d.off >= len(d.buf) {
		return false, fmt.Errorf("%w: truncated bool at %d", ErrCodec, d.off)
	}
	b := d.buf[d.off]
	d.off++
	if b > 1 {
		return false, fmt.Errorf("%w: bad bool %d at %d", ErrCodec, b, d.off-1)
	}
	return b == 1, nil
}

// Float reads a fixed 8-byte IEEE-754 float64.
func (d *Decoder) Float() (float64, error) {
	if len(d.buf)-d.off < 8 {
		return 0, fmt.Errorf("%w: truncated float at %d", ErrCodec, d.off)
	}
	bits := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return math.Float64frombits(bits), nil
}

// Len reads a slice length written by Encoder.Len. The reported
// length is bounded by the remaining payload (every element costs at
// least one byte), so a corrupted count cannot drive a giant
// allocation.
func (d *Decoder) Len() (n int, isNil bool, err error) {
	v, err := d.Uint()
	if err != nil {
		return 0, false, err
	}
	if v == 0 {
		return 0, true, nil
	}
	v--
	if v > uint64(len(d.buf)-d.off) {
		return 0, false, fmt.Errorf("%w: count %d exceeds remaining %d bytes", ErrCodec, v, len(d.buf)-d.off)
	}
	return int(v), false, nil
}

// Finish errors when payload bytes remain unread — a corrupted or
// foreign payload that happened to parse must not be accepted.
func (d *Decoder) Finish() error {
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCodec, len(d.buf)-d.off)
	}
	return nil
}

// EncodeTokens serializes a page's token stream (the cacheable half of
// a TokenizedPage — the name is diagnostic and lives outside the
// content-addressed payload). The layout is text-first: the token
// count, then every token's text as one block, then each token's text
// length, type and offset. The payload is sized exactly, since a
// memory store keeps the slice it is handed, spare capacity and all.
func EncodeTokens(toks []token.Token) []byte {
	text, size := 0, 0
	for i := range toks {
		t := &toks[i]
		text += len(t.Text)
		size += uvarintLen(uint64(len(t.Text))) + uvarintLen(uint64(t.Type)) + varintLen(int64(t.Offset))
	}
	code := lenCode(len(toks), toks == nil)
	size += headerLen(CodecVersion) + uvarintLen(code) + uvarintLen(uint64(text)) + text
	e := newEncoder(artifact.KindTokens, CodecVersion, size)
	e.Uint(code)
	e.Uint(uint64(text)) // the block is read back as one Str
	for i := range toks {
		e.buf = append(e.buf, toks[i].Text...)
	}
	for i := range toks {
		t := &toks[i]
		e.Uint(uint64(len(t.Text)))
		e.Uint(uint64(t.Type))
		e.Int(int64(t.Offset))
	}
	return e.Bytes()
}

// DecodeTokens reverses EncodeTokens. The text block becomes one
// string, and each token's text is a slice of it.
func DecodeTokens(data []byte) ([]token.Token, error) {
	d, err := NewDecoder(data, artifact.KindTokens, CodecVersion)
	if err != nil {
		return nil, err
	}
	n, isNil, err := d.Len()
	if err != nil {
		return nil, err
	}
	text, err := d.Str()
	if err != nil {
		return nil, err
	}
	var toks []token.Token
	if !isNil {
		toks = make([]token.Token, n)
	}
	pos := 0
	for i := range toks {
		l, err := d.Uint()
		if err != nil {
			return nil, err
		}
		if l > uint64(len(text)-pos) {
			return nil, fmt.Errorf("%w: token %d text of %d bytes runs past the text block", ErrCodec, i, l)
		}
		toks[i].Text = text[pos : pos+int(l)]
		pos += int(l)
		ty, err := d.Uint()
		if err != nil {
			return nil, err
		}
		if ty > math.MaxUint16 {
			return nil, fmt.Errorf("%w: token type %d out of range", ErrCodec, ty)
		}
		toks[i].Type = token.Type(ty)
		off, err := d.Int()
		if err != nil {
			return nil, err
		}
		toks[i].Offset = int(off)
	}
	if pos != len(text) {
		return nil, fmt.Errorf("%w: %d text bytes unused", ErrCodec, len(text)-pos)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return toks, nil
}

// EncodeTemplate serializes the InduceTemplate stage's artifact.
func EncodeTemplate(t Template) []byte {
	e := NewEncoder(artifact.KindTemplate, CodecVersion)
	e.Bool(t.Tpl != nil)
	if t.Tpl == nil {
		return e.Bytes()
	}
	data := t.Tpl.Data()
	e.Len(len(data.Skeleton), data.Skeleton == nil)
	for _, s := range data.Skeleton {
		e.Str(s)
	}
	e.Len(len(data.Positions), data.Positions == nil)
	for _, page := range data.Positions {
		e.Len(len(page), page == nil)
		for _, pos := range page {
			e.Int(int64(pos))
		}
	}
	e.Int(int64(data.NumPages))
	return e.Bytes()
}

// DecodeTemplate reverses EncodeTemplate.
func DecodeTemplate(data []byte) (Template, error) {
	d, err := NewDecoder(data, artifact.KindTemplate, CodecVersion)
	if err != nil {
		return Template{}, err
	}
	present, err := d.Bool()
	if err != nil {
		return Template{}, err
	}
	if !present {
		if err := d.Finish(); err != nil {
			return Template{}, err
		}
		return Template{}, nil
	}
	var td pagetemplate.TemplateData
	n, isNil, err := d.Len()
	if err != nil {
		return Template{}, err
	}
	if !isNil {
		td.Skeleton = make([]string, n)
		for i := range td.Skeleton {
			if td.Skeleton[i], err = d.Str(); err != nil {
				return Template{}, err
			}
		}
	}
	n, isNil, err = d.Len()
	if err != nil {
		return Template{}, err
	}
	if !isNil {
		td.Positions = make([][]int, n)
		for i := range td.Positions {
			m, pageNil, err := d.Len()
			if err != nil {
				return Template{}, err
			}
			if pageNil {
				continue
			}
			td.Positions[i] = make([]int, m)
			for j := range td.Positions[i] {
				pos, err := d.Int()
				if err != nil {
					return Template{}, err
				}
				td.Positions[i][j] = int(pos)
			}
		}
	}
	np, err := d.Int()
	if err != nil {
		return Template{}, err
	}
	td.NumPages = int(np)
	if err := d.Finish(); err != nil {
		return Template{}, err
	}
	return Template{Tpl: pagetemplate.FromData(td)}, nil
}

func encodeRecord(e *Encoder, r *Record) {
	e.Int(int64(r.Index))
	e.Len(len(r.Extracts), r.Extracts == nil)
	for j := range r.Extracts {
		encodeExtract(e, &r.Extracts[j])
	}
	e.Len(len(r.Columns), r.Columns == nil)
	for _, c := range r.Columns {
		e.Int(int64(c))
	}
	e.Len(len(r.Analyzed), r.Analyzed == nil)
	for _, a := range r.Analyzed {
		e.Bool(a)
	}
	e.Len(len(r.Confidence), r.Confidence == nil)
	for _, c := range r.Confidence {
		e.Float(c)
	}
}

func encodeExtract(e *Encoder, x *extract.Extract) {
	e.Int(int64(x.Index))
	e.Len(len(x.Words), x.Words == nil)
	for _, w := range x.Words {
		e.Str(w)
	}
	e.Len(len(x.Types), x.Types == nil)
	for _, t := range x.Types {
		e.Uint(uint64(t))
	}
	e.Int(int64(x.TokenStart))
	e.Int(int64(x.TokenEnd))
	e.Int(int64(x.ByteStart))
	e.Int(int64(x.ByteEnd))
}

// EncodeRecordsInto appends the PostProcess stage's artifact to an
// existing payload (the engine's result journal embeds it inside its
// own envelope): the final segmented records, including every extract
// field, so a journaled task result reconstructs byte-identical
// JSON/CSV output.
func EncodeRecordsInto(e *Encoder, recs []Record) {
	e.Len(len(recs), recs == nil)
	for i := range recs {
		encodeRecord(e, &recs[i])
	}
}

// DecodeRecordsFrom reverses EncodeRecordsInto, reading a record list
// mid-payload.
func DecodeRecordsFrom(d *Decoder) ([]Record, error) {
	n, isNil, err := d.Len()
	if err != nil {
		return nil, err
	}
	if isNil {
		return nil, nil
	}
	recs := make([]Record, n)
	for i := range recs {
		if err := decodeRecord(d, &recs[i]); err != nil {
			return nil, err
		}
	}
	return recs, nil
}

func decodeRecord(d *Decoder, r *Record) error {
	idx, err := d.Int()
	if err != nil {
		return err
	}
	r.Index = int(idx)
	n, isNil, err := d.Len()
	if err != nil {
		return err
	}
	if !isNil {
		r.Extracts = make([]extract.Extract, n)
		for j := range r.Extracts {
			if err := decodeExtract(d, &r.Extracts[j]); err != nil {
				return err
			}
		}
	}
	n, isNil, err = d.Len()
	if err != nil {
		return err
	}
	if !isNil {
		r.Columns = make([]int, n)
		for j := range r.Columns {
			v, err := d.Int()
			if err != nil {
				return err
			}
			r.Columns[j] = int(v)
		}
	}
	n, isNil, err = d.Len()
	if err != nil {
		return err
	}
	if !isNil {
		r.Analyzed = make([]bool, n)
		for j := range r.Analyzed {
			if r.Analyzed[j], err = d.Bool(); err != nil {
				return err
			}
		}
	}
	n, isNil, err = d.Len()
	if err != nil {
		return err
	}
	if !isNil {
		r.Confidence = make([]float64, n)
		for j := range r.Confidence {
			if r.Confidence[j], err = d.Float(); err != nil {
				return err
			}
		}
	}
	return nil
}

func decodeExtract(d *Decoder, x *extract.Extract) error {
	idx, err := d.Int()
	if err != nil {
		return err
	}
	x.Index = int(idx)
	n, isNil, err := d.Len()
	if err != nil {
		return err
	}
	if !isNil {
		x.Words = make([]string, n)
		for i := range x.Words {
			if x.Words[i], err = d.Str(); err != nil {
				return err
			}
		}
	}
	n, isNil, err = d.Len()
	if err != nil {
		return err
	}
	if !isNil {
		x.Types = make([]token.Type, n)
		for i := range x.Types {
			v, err := d.Uint()
			if err != nil {
				return err
			}
			if v > math.MaxUint16 {
				return fmt.Errorf("%w: token type %d out of range", ErrCodec, v)
			}
			x.Types[i] = token.Type(v)
		}
	}
	for _, dst := range []*int{&x.TokenStart, &x.TokenEnd, &x.ByteStart, &x.ByteEnd} {
		v, err := d.Int()
		if err != nil {
			return err
		}
		*dst = int(v)
	}
	return nil
}
