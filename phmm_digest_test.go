package tableseg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
)

// phmmDigest is the SHA-256 of the probabilistic and combined
// segmentations of the 24 Table 4 pages at generator seeds 42–45, as
// writeSegmentation serializes them.
const phmmDigest = "8e5435f7fa7b1e5b4e975c13380be1ade78cb837fbfc4acf10f3d5efc027f24e"

// TestPHMMSegmentationsDigest pins the PHMM's outputs bit for bit: a
// change to the EM passes that moves any float of any fitted model,
// decode or confidence changes the digest.
func TestPHMMSegmentationsDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("float bits differ by architecture (on %s Go may fuse multiply–adds, and math.Log has an amd64 assembly path); the digest is of amd64 results", runtime.GOARCH)
	}
	h := sha256.New()
	for seed := int64(42); seed <= 45; seed++ {
		for _, prof := range sitegen.Profiles() {
			site := sitegen.Generate(prof, seed)
			for page := range site.Lists {
				in := experiments.BuildInput(site, page)
				for _, m := range []Method{Probabilistic, Combined} {
					seg, err := Segment(in, DefaultOptions(m))
					writeSegmentation(h, seg, err)
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != phmmDigest {
		t.Errorf("digest %s, want %s", got, phmmDigest)
	}
}

// writeSegmentation writes the error, the records and the PHMM result
// of one segmentation to h, every float as its bits.
func writeSegmentation(h hash.Hash, seg *Segmentation, err error) {
	ints := func(xs ...int) {
		for _, x := range xs {
			binary.Write(h, binary.LittleEndian, int64(x))
		}
	}
	floats := func(xs ...float64) {
		ints(len(xs))
		for _, x := range xs {
			binary.Write(h, binary.LittleEndian, math.Float64bits(x))
		}
	}
	str := func(s string) {
		ints(len(s))
		h.Write([]byte(s))
	}
	if err != nil {
		str("error: " + err.Error())
		return
	}
	ints(len(seg.Records))
	for _, r := range seg.Records {
		ints(r.Index, len(r.Extracts))
		for i, e := range r.Extracts {
			str(e.Text())
			ints(e.Index, e.ByteStart, e.ByteEnd, r.Columns[i])
			if r.Analyzed[i] {
				ints(1)
			} else {
				ints(0)
			}
		}
		floats(r.Confidence...)
	}
	p := seg.PHMM
	if p == nil {
		str("no PHMM")
		return
	}
	ints(len(p.Records))
	ints(p.Records...)
	ints(p.Columns...)
	ints(p.Iters)
	floats(p.LogLik, p.MAPLogProb)
	floats(p.Confidence...)
	for _, row := range p.Model.Theta {
		floats(row...)
	}
	for _, row := range p.Model.Trans {
		floats(row...)
	}
	floats(p.Model.Pi...)
}
