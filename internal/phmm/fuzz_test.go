package phmm

import (
	"bytes"
	"errors"
	"testing"

	"tableseg/internal/token"
)

// FuzzSegment: any valid instance of up to 6 records and 120 extracts
// yields a segmentation or errNoPath, never a panic, and a segmentation
// is a structurally valid path whose confidences lie in [0,1]. It
// equals segmentReference's bit for bit, or both return errNoPath.
// Each extract takes two bytes of data: the bits of its type vector
// and the bits of its candidate records.
func FuzzSegment(f *testing.F) {
	name := byte(token.TypeOf("John") | token.TypeOf("Smith"))
	// One column under the Figure 2 hazard: 3 records of 3 extracts.
	var single []byte
	for r := 0; r < 3; r++ {
		single = append(single, name, 1<<r, byte(token.TypeOf("221")), 1<<r, byte(token.TypeOf("(740)")), 1<<r)
	}
	f.Add(uint8(3), uint8(1), false, single)
	// Overflowing messages: one record of 80 identical extracts in two
	// columns.
	f.Add(uint8(1), uint8(2), true, bytes.Repeat([]byte{byte(token.TypeOf("Solo")), 1}, 80))
	f.Fuzz(func(t *testing.T, k, cols uint8, period bool, data []byte) {
		inst := Instance{NumRecords: 1 + int(k)%6}
		for i := 0; i+1 < len(data) && i < 2*120; i += 2 {
			inst.TypeVecs = append(inst.TypeVecs, token.Type(data[i]).Vector())
			var cands []int
			for r := 0; r < inst.NumRecords; r++ {
				if data[i+1]&(1<<r) != 0 {
					cands = append(cands, r)
				}
			}
			inst.Candidates = append(inst.Candidates, cands)
		}
		p := DefaultParams()
		p.PeriodModel = period
		p.MaxColumns = int(cols) % 5
		res, err := segment(inst, p)
		want, werr := segmentReference(inst, p)
		if diff := sameSegmentation(res, err, want, werr); diff != "" {
			t.Fatal(diff)
		}
		if err != nil {
			if !errors.Is(err, errNoPath) {
				t.Fatalf("valid instance rejected: %v", err)
			}
			return
		}
		n := len(inst.TypeVecs)
		if len(res.Records) != n || len(res.Columns) != n || len(res.Confidence) != n {
			t.Fatalf("%d extracts, %d records, %d columns, %d confidences",
				n, len(res.Records), len(res.Columns), len(res.Confidence))
		}
		for i := 0; i < n; i++ {
			r, c := res.Records[i], res.Columns[i]
			if conf := res.Confidence[i]; !(conf >= 0 && conf <= 1) {
				t.Fatalf("extract %d: confidence %v", i, conf)
			}
			if r < 0 || r >= inst.NumRecords || c < 0 || c >= res.Model.C {
				t.Fatalf("extract %d: state (%d, %d) out of range", i, r, c)
			}
			switch {
			case i == 0:
				if c != 0 {
					t.Fatalf("first extract in column %d", c)
				}
			case r < res.Records[i-1]:
				t.Fatalf("extract %d: record %d after %d", i, r, res.Records[i-1])
			case r == res.Records[i-1] && c < res.Columns[i-1]:
				t.Fatalf("extract %d: column %d after %d in one record", i, c, res.Columns[i-1])
			case r > res.Records[i-1] && c != 0:
				t.Fatalf("extract %d: record %d starts in column %d", i, r, c)
			}
		}
	})
}
