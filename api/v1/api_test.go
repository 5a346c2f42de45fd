package apiv1_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"reflect"
	"testing"

	"tableseg"
	apiv1 "tableseg/api/v1"
	"tableseg/internal/experiments"
	"tableseg/internal/sitegen"
)

// TestRequestOptions pins the wire->library configuration mapping:
// every method spelling lands on the matching DefaultOptions, and bad
// input is ErrBadOptions.
func TestRequestOptions(t *testing.T) {
	cases := []struct {
		wire string
		want tableseg.Method
	}{
		{"", tableseg.Probabilistic},
		{"prob", tableseg.Probabilistic},
		{"probabilistic", tableseg.Probabilistic},
		{"csp", tableseg.CSP},
		{"combined", tableseg.Combined},
	}
	for _, c := range cases {
		req := &apiv1.SegmentRequest{Method: c.wire}
		opts, err := req.Options()
		if err != nil {
			t.Fatalf("method %q: %v", c.wire, err)
		}
		if !reflect.DeepEqual(opts, tableseg.DefaultOptions(c.want)) {
			t.Errorf("method %q: options differ from DefaultOptions(%v)", c.wire, c.want)
		}
	}
	for _, bad := range []*apiv1.SegmentRequest{
		{Method: "quantum"},
		{Solver: "no-such-solver"},
	} {
		if _, err := bad.Options(); !errors.Is(err, tableseg.ErrBadOptions) {
			t.Errorf("request %+v: err = %v, want ErrBadOptions", bad, err)
		}
	}
}

// TestErrorCodeRoundTrip: library error -> wire code -> sentinel
// restores errors.Is classification, and each code maps to a stable
// HTTP status.
func TestErrorCodeRoundTrip(t *testing.T) {
	cases := []struct {
		sentinel error
		code     apiv1.Code
		status   int
	}{
		{tableseg.ErrBadOptions, apiv1.CodeBadOptions, http.StatusBadRequest},
		{tableseg.ErrTooFewListPages, apiv1.CodeTooFewListPages, http.StatusBadRequest},
		{tableseg.ErrNoDetailPages, apiv1.CodeNoDetailPages, http.StatusBadRequest},
		{tableseg.ErrBadTarget, apiv1.CodeBadTarget, http.StatusBadRequest},
		{tableseg.ErrNoTableSlot, apiv1.CodeNoTableSlot, http.StatusUnprocessableEntity},
		{tableseg.ErrNoDetailEvidence, apiv1.CodeNoDetailEvidence, http.StatusUnprocessableEntity},
		{tableseg.ErrCSPUnsatisfiable, apiv1.CodeCSPUnsatisfiable, http.StatusUnprocessableEntity},
		{context.Canceled, apiv1.CodeCanceled, http.StatusRequestTimeout},
		{context.DeadlineExceeded, apiv1.CodeDeadlineExceeded, http.StatusGatewayTimeout},
	}
	for _, c := range cases {
		werr := apiv1.FromError(c.sentinel)
		if werr.Code != c.code {
			t.Errorf("%v: code = %q, want %q", c.sentinel, werr.Code, c.code)
		}
		if !errors.Is(werr, c.sentinel) {
			t.Errorf("wire error %q does not unwrap to %v", werr.Code, c.sentinel)
		}
		if got := werr.Code.HTTPStatus(); got != c.status {
			t.Errorf("%q: status = %d, want %d", werr.Code, got, c.status)
		}
	}
	// Wrapped errors classify through %w chains.
	wrapped := apiv1.FromError(errTestWrap{tableseg.ErrNoDetailEvidence})
	if wrapped.Code != apiv1.CodeNoDetailEvidence {
		t.Errorf("wrapped sentinel: code = %q", wrapped.Code)
	}
	if apiv1.CodeFromError(errors.New("mystery")) != apiv1.CodeInternal {
		t.Error("unclassified error did not map to internal")
	}
	for _, c := range []apiv1.Code{apiv1.CodeRateLimited, apiv1.CodeQueueFull} {
		if c.HTTPStatus() != http.StatusTooManyRequests {
			t.Errorf("%q: status = %d, want 429", c, c.HTTPStatus())
		}
	}
	if apiv1.CodeDraining.HTTPStatus() != http.StatusServiceUnavailable {
		t.Error("draining should serve 503")
	}
}

type errTestWrap struct{ err error }

func (e errTestWrap) Error() string { return "wrap: " + e.err.Error() }
func (e errTestWrap) Unwrap() error { return e.err }

// TestWireShapes pins the stable JSON field names of the v1 envelope:
// a renamed field here is a wire-format break and belongs in api/v2.
func TestWireShapes(t *testing.T) {
	errBody, err := json.Marshal(apiv1.ErrorResponse{
		Error: &apiv1.Error{Code: apiv1.CodeQueueFull, Message: "try later", RetryAfterSeconds: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantErr := `{"error":{"code":"queue_full","message":"try later","retryAfterSeconds":2}}`
	if string(errBody) != wantErr {
		t.Errorf("error envelope:\n got %s\nwant %s", errBody, wantErr)
	}

	respBody, err := json.Marshal(apiv1.SegmentResponse{
		Method:  "probabilistic",
		Solver:  "probabilistic",
		Records: []apiv1.Record{{Record: 1, Extracts: []string{"a", "b"}, Columns: []int{0, 1}}},
		Table:   [][]string{{"a", "b"}},

		AnalyzedExtracts: 2,
		TotalExtracts:    2,
		Coalesced:        true,
	})
	if err != nil {
		t.Fatal(err)
	}
	wantResp := `{"method":"probabilistic","solver":"probabilistic",` +
		`"records":[{"record":1,"extracts":["a","b"],"columns":[0,1]}],` +
		`"table":[["a","b"]],"usedWholePage":false,` +
		`"analyzedExtracts":2,"totalExtracts":2,"coalesced":true}`
	if string(respBody) != wantResp {
		t.Errorf("segment response:\n got %s\nwant %s", respBody, wantResp)
	}

	reqBody, err := json.Marshal(apiv1.SegmentRequest{
		Method:      "csp",
		ListPages:   []apiv1.Page{{Name: "l1", HTML: "page one"}},
		Target:      0,
		DetailPages: []apiv1.Page{{HTML: "page two"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	wantReq := `{"method":"csp","listPages":[{"name":"l1","html":"page one"}],` +
		`"target":0,"detailPages":[{"html":"page two"}]}`
	if string(reqBody) != wantReq {
		t.Errorf("segment request:\n got %s\nwant %s", reqBody, wantReq)
	}
}

// TestResponseFromSegmentation runs one real segmentation and checks
// the wire response mirrors it faithfully.
func TestResponseFromSegmentation(t *testing.T) {
	p, err := sitegen.ProfileBySlug("allegheny")
	if err != nil {
		t.Fatal(err)
	}
	in := experiments.BuildInput(sitegen.Generate(p, experiments.DefaultSeed), 0)
	seg, err := tableseg.Segment(in, tableseg.DefaultOptions(tableseg.Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	resp := apiv1.ResponseFromSegmentation(seg, nil)
	if resp.Method != "probabilistic" {
		t.Errorf("method = %q", resp.Method)
	}
	if len(resp.Records) != len(seg.Records) {
		t.Fatalf("records = %d, want %d", len(resp.Records), len(seg.Records))
	}
	for i, rec := range resp.Records {
		if rec.Record != seg.Records[i].Index+1 {
			t.Errorf("record %d: number = %d", i, rec.Record)
		}
		if !reflect.DeepEqual(rec.Extracts, seg.Records[i].Texts()) {
			t.Errorf("record %d: extract texts differ", i)
		}
	}
	if !reflect.DeepEqual(resp.Table, tableseg.ReconstructTable(seg)) {
		t.Error("table differs from ReconstructTable")
	}
	if resp.CSPStatus != "" {
		t.Errorf("probabilistic response carries cspStatus %q", resp.CSPStatus)
	}
	if resp.AnalyzedExtracts != seg.Analyzed || resp.TotalExtracts != seg.TotalExtracts {
		t.Error("extract counters differ")
	}
}
