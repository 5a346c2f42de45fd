package engine

import (
	"crypto/sha256"
	"errors"
	"fmt"

	"tableseg/internal/artifact"
	"tableseg/internal/core"
	"tableseg/internal/csp"
	"tableseg/internal/stage"
)

// resultEnvelopeVersion versions the journal envelope below,
// independently of the stage codec it embeds. Bump it whenever the
// envelope's field set or meaning changes.
const resultEnvelopeVersion = 1

// resultVersion is the combined version written into result keys and
// payload headers: either half changing makes old journal entries
// unreachable instead of misread.
const resultVersion = uint16(stage.CodecVersion)<<8 | resultEnvelopeVersion

// resultKey addresses a task's journaled result by the content hash of
// its whole input (pageDigests.inputHash) plus a fingerprint of the
// effective options: two tasks share a journal entry exactly when the
// engine is guaranteed to compute byte-identical segmentations for
// them.
func resultKey(inputHash [sha256.Size]byte, opts core.Options) artifact.Key {
	h := sha256.New()
	h.Write(inputHash[:])
	// Options (including the nested solver parameter structs) are plain
	// scalar data, so the %#v rendering is a complete, deterministic
	// fingerprint: any field change — method, solver, thresholds, seeds
	// — changes the key.
	fmt.Fprintf(h, "%#v", opts)
	k := artifact.Key{Kind: artifact.KindResult, Version: resultVersion}
	h.Sum(k.Hash[:0])
	return k
}

// journalSentinels maps the typed pipeline errors worth journaling to
// stable wire codes. Only these errors are deterministic outcomes of
// (input, options) — cancellations and environmental failures must
// never be replayed onto a resumed batch. Codes are append-only.
var journalSentinels = []struct {
	code uint64
	err  error
}{
	{1, core.ErrTooFewListPages},
	{2, core.ErrNoDetailPages},
	{3, core.ErrBadTarget},
	{4, core.ErrNoTableSlot},
	{5, core.ErrNoDetailEvidence},
	{6, core.ErrCSPUnsatisfiable},
	{7, core.ErrBadOptions},
}

// journaledError is a replayed task error: it reproduces the original
// message byte-for-byte and unwraps to the original sentinel, so
// errors.Is works identically on fresh and resumed results.
type journaledError struct {
	msg      string
	sentinel error
}

func (e *journaledError) Error() string { return e.msg }
func (e *journaledError) Unwrap() error { return e.sentinel }

// encodeResult serializes a completed task result for the journal. It
// reports false — journal nothing — when the outcome is not a pure
// function of (input, options): a cancellation, or an error outside
// the typed sentinel set.
func encodeResult(res Result) ([]byte, bool) {
	var code uint64
	if res.Err != nil {
		for _, s := range journalSentinels {
			if errors.Is(res.Err, s.err) {
				code = s.code
				break
			}
		}
		if code == 0 {
			return nil, false
		}
	}
	e := stage.NewEncoder(artifact.KindResult, resultVersion)
	e.Uint(code)
	if code != 0 {
		e.Str(res.Err.Error())
	}
	e.Bool(res.Seg != nil)
	if res.Seg != nil {
		encodeSegmentation(e, res.Seg)
	}
	return e.Bytes(), true
}

// encodeSegmentation journals every output-bearing Segmentation field.
// The PHMM diagnostic model is deliberately excluded: it is a large
// training artifact that no output path (JSON, CSV, text, api/v1
// responses) reads, so resumed results stay byte-identical everywhere
// while the journal stays small. Resumed results carry PHMM == nil.
func encodeSegmentation(e *stage.Encoder, seg *core.Segmentation) {
	stage.EncodeRecordsInto(e, seg.Records)
	e.Uint(uint64(seg.Method))
	e.Str(seg.Solver)
	e.Bool(seg.UsedWholePage)
	e.Int(int64(seg.EnumerationStripped))
	e.Bool(seg.Vertical)
	e.Float(seg.TemplateQuality)
	e.Int(int64(seg.TotalExtracts))
	e.Int(int64(seg.Analyzed))
	e.Int(int64(seg.CSPStatus))
	e.Bool(seg.Relaxed)
	e.Len(len(seg.ColumnLabels), seg.ColumnLabels == nil)
	for _, l := range seg.ColumnLabels {
		e.Str(l)
	}
}

// decodeResult reverses encodeResult. Any malformed payload is
// reported as a miss (false), never an error or panic — the journal is
// a cache, and recomputing is always correct.
func decodeResult(data []byte) (Result, bool) {
	d, err := stage.NewDecoder(data, artifact.KindResult, resultVersion)
	if err != nil {
		return Result{}, false
	}
	var res Result
	code, err := d.Uint()
	if err != nil {
		return Result{}, false
	}
	if code != 0 {
		msg, err := d.Str()
		if err != nil {
			return Result{}, false
		}
		var sentinel error
		for _, s := range journalSentinels {
			if s.code == code {
				sentinel = s.err
				break
			}
		}
		if sentinel == nil {
			return Result{}, false
		}
		res.Err = &journaledError{msg: msg, sentinel: sentinel}
	}
	present, err := d.Bool()
	if err != nil {
		return Result{}, false
	}
	if present {
		seg, ok := decodeSegmentation(d)
		if !ok {
			return Result{}, false
		}
		res.Seg = seg
	}
	if d.Finish() != nil {
		return Result{}, false
	}
	return res, true
}

func decodeSegmentation(d *stage.Decoder) (*core.Segmentation, bool) {
	seg := &core.Segmentation{}
	recs, err := stage.DecodeRecordsFrom(d)
	if err != nil {
		return nil, false
	}
	seg.Records = recs
	m, err := d.Uint()
	if err != nil {
		return nil, false
	}
	seg.Method = core.Method(m)
	if seg.Solver, err = d.Str(); err != nil {
		return nil, false
	}
	if seg.UsedWholePage, err = d.Bool(); err != nil {
		return nil, false
	}
	es, err := d.Int()
	if err != nil {
		return nil, false
	}
	seg.EnumerationStripped = int(es)
	if seg.Vertical, err = d.Bool(); err != nil {
		return nil, false
	}
	if seg.TemplateQuality, err = d.Float(); err != nil {
		return nil, false
	}
	te, err := d.Int()
	if err != nil {
		return nil, false
	}
	seg.TotalExtracts = int(te)
	an, err := d.Int()
	if err != nil {
		return nil, false
	}
	seg.Analyzed = int(an)
	cs, err := d.Int()
	if err != nil {
		return nil, false
	}
	seg.CSPStatus = csp.Status(cs)
	if seg.Relaxed, err = d.Bool(); err != nil {
		return nil, false
	}
	n, isNil, err := d.Len()
	if err != nil {
		return nil, false
	}
	if !isNil {
		seg.ColumnLabels = make([]string, n)
		for i := range seg.ColumnLabels {
			if seg.ColumnLabels[i], err = d.Str(); err != nil {
				return nil, false
			}
		}
	}
	return seg, true
}
