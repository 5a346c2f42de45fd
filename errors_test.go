package tableseg

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// TestSentinelRoundTrips verifies every exported sentinel survives %w
// wrapping under errors.Is — the contract the pipeline's error
// construction relies on.
func TestSentinelRoundTrips(t *testing.T) {
	sentinels := map[string]error{
		"ErrTooFewListPages":  ErrTooFewListPages,
		"ErrNoDetailPages":    ErrNoDetailPages,
		"ErrBadTarget":        ErrBadTarget,
		"ErrNoTableSlot":      ErrNoTableSlot,
		"ErrNoDetailEvidence": ErrNoDetailEvidence,
		"ErrCSPUnsatisfiable": ErrCSPUnsatisfiable,
		"ErrBadOptions":       ErrBadOptions,
	}
	for name, sentinel := range sentinels {
		wrapped := fmt.Errorf("site %q page %d: %w", "example", 3, sentinel)
		if !errors.Is(wrapped, sentinel) {
			t.Errorf("%s does not round-trip through %%w", name)
		}
	}
}

// TestTypedErrorsFromAPI drives each reachable input-validation failure
// through the public entry points and classifies it with errors.Is.
func TestTypedErrorsFromAPI(t *testing.T) {
	list := Page{Name: "l", HTML: "<html><body><b>Alpha One</b> <b>Beta Two</b></body></html>"}
	detail := Page{Name: "d", HTML: "<html><body>Alpha One</body></html>"}

	cases := []struct {
		name string
		in   Input
		want error
	}{
		{"no list pages", Input{DetailPages: []Page{detail}}, ErrTooFewListPages},
		{"no detail pages", Input{ListPages: []Page{list}}, ErrNoDetailPages},
		{"bad target", Input{ListPages: []Page{list}, Target: 5, DetailPages: []Page{detail}}, ErrBadTarget},
		{"no table slot", Input{
			ListPages:   []Page{{Name: "e1", HTML: "<html><body></body></html>"}},
			DetailPages: []Page{detail},
		}, ErrNoTableSlot},
		{"no detail evidence", Input{
			ListPages:   []Page{list},
			DetailPages: []Page{{Name: "u", HTML: "<html><body>zzz qqq ppp</body></html>"}},
		}, ErrNoDetailEvidence},
	}
	for _, tc := range cases {
		_, err := Segment(tc.in, DefaultOptions(CSP))
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	bad := DefaultOptions(CSP)
	bad.MinSlotQuality = 2
	in := Input{ListPages: []Page{list}, DetailPages: []Page{detail}}
	if _, err := Segment(in, bad); !errors.Is(err, ErrBadOptions) {
		t.Errorf("bad options: err = %v, want ErrBadOptions", err)
	}
}

// TestSegmentContextRootCancellation verifies the root context entry
// point surfaces cancellation and deadline expiry.
func TestSegmentContextRootCancellation(t *testing.T) {
	in := Input{
		ListPages:   []Page{{Name: "l", HTML: "<html><body><b>Alpha One</b> <b>Beta Two</b></body></html>"}},
		DetailPages: []Page{{Name: "d", HTML: "<html><body>Alpha One</body></html>"}},
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SegmentContext(ctx, in, DefaultOptions(Probabilistic)); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled: err = %v, want context.Canceled", err)
	}
	expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel2()
	if _, err := SegmentContext(expired, in, DefaultOptions(CSP)); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: err = %v, want context.DeadlineExceeded", err)
	}
}
