package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"tableseg"
	apiv1 "tableseg/api/v1"
	"tableseg/internal/server/client"
)

// segmentRemote performs the segmentation through a tablesegd daemon
// and returns its wire response, which the caller renders exactly like
// an in-process result. With stats set it reports the server-measured
// timings on stderr.
func segmentRemote(ctx context.Context, base string, in tableseg.Input, method string, timeout time.Duration, stats bool, stderr io.Writer) (*apiv1.SegmentResponse, error) {
	req := &apiv1.SegmentRequest{
		Method:        method,
		Target:        in.Target,
		TimeoutMillis: timeout.Milliseconds(),
		WantStats:     stats,
	}
	for _, p := range in.ListPages {
		req.ListPages = append(req.ListPages, apiv1.Page{Name: p.Name, HTML: p.HTML})
	}
	for _, p := range in.DetailPages {
		req.DetailPages = append(req.DetailPages, apiv1.Page{Name: p.Name, HTML: p.HTML})
	}

	resp, err := client.New(base, nil).Segment(ctx, req)
	if err != nil {
		return nil, err
	}
	if stats {
		printRemoteStats(stderr, resp.Stats)
	}
	return resp, nil
}

// printRemoteStats reports the server-measured per-stage timings.
func printRemoteStats(w io.Writer, st *apiv1.TaskStats) {
	if st == nil {
		fmt.Fprintln(w, "stats: server returned no stats")
		return
	}
	fmt.Fprintf(w, "stats: wall=%.3fms (server)\n", st.WallMillis)
	for _, s := range st.Stages {
		fmt.Fprintf(w, "stats: stage=%s calls=%d time=%.3fms\n", s.Stage, s.Calls, s.Millis)
	}
	fmt.Fprintf(w, "stats: wsat restarts=%d flips=%d emIters=%d\n",
		st.WSATRestarts, st.WSATFlips, st.EMIters)
	fmt.Fprintf(w, "stats: cache templateHit=%v tokenHits=%d tokenMisses=%d\n",
		st.TemplateCacheHit, st.TokenCacheHits, st.TokenCacheMisses)
}
