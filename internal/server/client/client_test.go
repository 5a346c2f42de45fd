package client_test

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"tableseg"
	apiv1 "tableseg/api/v1"
	"tableseg/internal/core"
	"tableseg/internal/experiments"
	"tableseg/internal/server"
	"tableseg/internal/server/client"
	"tableseg/internal/sitegen"
)

func startServer(t *testing.T) (*server.Server, *client.Client) {
	t.Helper()
	s, err := server.New(server.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, client.New(ts.URL, nil)
}

func wireRequest(t *testing.T, slug string) (*apiv1.SegmentRequest, core.Input) {
	t.Helper()
	p, err := sitegen.ProfileBySlug(slug)
	if err != nil {
		t.Fatal(err)
	}
	in := experiments.BuildInput(sitegen.Generate(p, experiments.DefaultSeed), 0)
	req := &apiv1.SegmentRequest{Target: in.Target}
	for _, pg := range in.ListPages {
		req.ListPages = append(req.ListPages, apiv1.Page{Name: pg.Name, HTML: pg.HTML})
	}
	for _, pg := range in.DetailPages {
		req.DetailPages = append(req.DetailPages, apiv1.Page{Name: pg.Name, HTML: pg.HTML})
	}
	return req, in
}

// TestClientSegment round-trips a real segmentation through the full
// client -> HTTP -> server -> engine stack.
func TestClientSegment(t *testing.T) {
	_, c := startServer(t)
	req, in := wireRequest(t, "allegheny")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	resp, err := c.Segment(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	seg, err := tableseg.Segment(in, tableseg.DefaultOptions(tableseg.Probabilistic))
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Records) != len(seg.Records) {
		t.Errorf("remote records = %d, local = %d", len(resp.Records), len(seg.Records))
	}
	if resp.Method != "probabilistic" {
		t.Errorf("method = %q", resp.Method)
	}
}

// TestClientErrorsAreSentinels: a server-side typed failure restores
// errors.Is classification on the client.
func TestClientErrorsAreSentinels(t *testing.T) {
	_, c := startServer(t)
	req, _ := wireRequest(t, "allegheny")
	req.Target = 99
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err := c.Segment(ctx, req)
	if err == nil {
		t.Fatal("bad target accepted")
	}
	if !errors.Is(err, tableseg.ErrBadTarget) {
		t.Errorf("errors.Is(err, ErrBadTarget) = false for %v", err)
	}
	var werr *apiv1.Error
	if !errors.As(err, &werr) || werr.Code != apiv1.CodeBadTarget {
		t.Errorf("error is not the typed wire error: %v", err)
	}
}

// TestClientHealthzAndVarz exercise the operational endpoints,
// including the drain flip.
func TestClientHealthzAndVarz(t *testing.T) {
	s, c := startServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz while serving: %v", err)
	}
	req, _ := wireRequest(t, "allegheny")
	if _, err := c.Segment(ctx, req); err != nil {
		t.Fatal(err)
	}
	m, err := c.Varz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests.OK != 1 {
		t.Errorf("varz ok = %d, want 1", m.Requests.OK)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if err := c.Healthz(ctx); err == nil {
		t.Error("healthz reports healthy while draining")
	}
}
