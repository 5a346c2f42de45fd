package core

import (
	"errors"
	"testing"
)

func TestOptionsValidate(t *testing.T) {
	for _, m := range []Method{CSP, Probabilistic, Combined} {
		if err := DefaultOptions(m).Validate(); err != nil {
			t.Errorf("DefaultOptions(%v).Validate() = %v", m, err)
		}
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero Options rejected: %v", err)
	}

	cases := []struct {
		name   string
		mutate func(*Options)
	}{
		{"unknown method", func(o *Options) { o.Method = 99 }},
		{"unknown solver", func(o *Options) { o.Solver = "no-such-solver" }},
		{"negative MinSlotQuality", func(o *Options) { o.MinSlotQuality = -0.1 }},
		{"MinSlotQuality above 1", func(o *Options) { o.MinSlotQuality = 1.5 }},
		{"WSAT noise above 1", func(o *Options) { o.CSPParams.WSAT.Noise = 1.5 }},
		{"negative WSAT noise", func(o *Options) { o.CSPParams.WSAT.Noise = -0.5 }},
		{"negative MaxFlips", func(o *Options) { o.CSPParams.WSAT.MaxFlips = -1 }},
		{"negative Restarts", func(o *Options) { o.CSPParams.WSAT.Restarts = -1 }},
		{"negative TabuTenure", func(o *Options) { o.CSPParams.WSAT.TabuTenure = -1 }},
		{"negative HardWeight", func(o *Options) { o.CSPParams.WSAT.HardWeight = -1 }},
		{"negative MaxColumns", func(o *Options) { o.PHMMParams.MaxColumns = -1 }},
		{"negative epsilon", func(o *Options) { o.PHMMParams.Epsilon = -1 }},
		{"epsilon above 1", func(o *Options) { o.PHMMParams.Epsilon = 2 }},
	}
	for _, tc := range cases {
		opts := DefaultOptions(CSP)
		tc.mutate(&opts)
		err := opts.Validate()
		if !errors.Is(err, ErrBadOptions) {
			t.Errorf("%s: Validate() = %v, want ErrBadOptions", tc.name, err)
		}
	}
}

// TestSegmentValidatesOptions checks that the pipeline entry point
// rejects a bad configuration before doing any work.
func TestSegmentValidatesOptions(t *testing.T) {
	opts := DefaultOptions(CSP)
	opts.MinSlotQuality = 2
	in := Input{
		ListPages:   []Page{{Name: "l", HTML: "<html><body>x</body></html>"}},
		DetailPages: []Page{{Name: "d", HTML: "<html><body>x</body></html>"}},
	}
	if _, err := segment(in, opts); !errors.Is(err, ErrBadOptions) {
		t.Fatalf("Segment with bad options: err = %v, want ErrBadOptions", err)
	}
}
