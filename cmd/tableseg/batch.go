package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"

	"tableseg"
	apiv1 "tableseg/api/v1"
)

// manifestTask is one entry of a -batch manifest: the file-path form of
// a segmentation task. The manifest is a JSON array of these.
type manifestTask struct {
	// ID labels the task in the batch output (defaults to "task<index>").
	ID string `json:"id"`
	// Lists are list-page HTML files (>=2 enables template finding).
	Lists []string `json:"lists"`
	// Target is the index of the list page to segment.
	Target int `json:"target"`
	// Details are the target page's detail-page HTML files, in link
	// order.
	Details []string `json:"details"`
}

// jsonBatchLine is the JSONL shape of one batch result: exactly one of
// Output and Error is set.
type jsonBatchLine struct {
	Index  int         `json:"index"`
	ID     string      `json:"id"`
	Output *jsonOutput `json:"output,omitempty"`
	Error  string      `json:"error,omitempty"`
}

// runBatch segments every manifest task through the engine pool and
// emits results in manifest order — tasks complete concurrently but
// the output is flushed as a strictly contiguous prefix, so two runs
// over the same manifest produce byte-identical streams. It returns 0
// when every task succeeded, 1 when any failed, 2 on a bad manifest.
func runBatch(ctx context.Context, eng *tableseg.Engine, manifest string, out outputMode, stats bool, stdout, stderr io.Writer) int {
	tasks, code := loadManifest(manifest, stderr)
	if code != 0 {
		return code
	}

	in := make(chan tableseg.Task)
	go func() {
		defer close(in)
		for _, t := range tasks {
			select {
			case in <- t:
			case <-ctx.Done():
				return
			}
		}
	}()

	// Results arrive in completion order; hold early finishers until
	// every lower-index task has been flushed.
	pending := make(map[int]tableseg.Result, len(tasks))
	next := 0
	failed := 0
	resumed := 0
	flush := func(res tableseg.Result) int {
		if res.Err != nil {
			failed++
		}
		if res.Stats.ResultCacheHit {
			resumed++
		}
		if err := emitBatchResult(stdout, res, out); err != nil {
			fmt.Fprintln(stderr, "tableseg:", err)
			return 1
		}
		return 0
	}
	for res := range eng.Stream(ctx, in) {
		pending[res.Index] = res
		for {
			res, ok := pending[next]
			if !ok {
				break
			}
			delete(pending, next)
			next++
			if flush(res) != 0 {
				return 1
			}
		}
	}

	if stats {
		fmt.Fprintf(stderr, "stats: batch tasks=%d errors=%d resumed=%d\n",
			len(tasks), failed, resumed)
		printCacheStats(stderr, eng.CacheStats())
	}
	if failed > 0 {
		return 1
	}
	return 0
}

// loadManifest parses a -batch manifest and reads every referenced page
// into engine tasks. Any manifest problem — unreadable file, bad JSON,
// a task without pages, a missing page file — is a usage error (2):
// nothing has been segmented yet, so failing fast beats emitting a
// partial batch.
func loadManifest(path string, stderr io.Writer) ([]tableseg.Task, int) {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(stderr, "tableseg:", err)
		return nil, 2
	}
	var entries []manifestTask
	if err := json.Unmarshal(data, &entries); err != nil {
		fmt.Fprintf(stderr, "tableseg: bad -batch manifest %s: %v\n", path, err)
		return nil, 2
	}
	if len(entries) == 0 {
		fmt.Fprintf(stderr, "tableseg: -batch manifest %s has no tasks\n", path)
		return nil, 2
	}
	tasks := make([]tableseg.Task, 0, len(entries))
	for i, ent := range entries {
		id := ent.ID
		if id == "" {
			id = fmt.Sprintf("task%d", i)
		}
		if len(ent.Lists) == 0 || len(ent.Details) == 0 {
			fmt.Fprintf(stderr, "tableseg: manifest task %d (%s) needs lists and details\n", i, id)
			return nil, 2
		}
		in := tableseg.Input{Target: ent.Target}
		for _, f := range ent.Lists {
			page, err := readPage(f)
			if err != nil {
				fmt.Fprintf(stderr, "tableseg: manifest task %d (%s): %v\n", i, id, err)
				return nil, 2
			}
			in.ListPages = append(in.ListPages, page)
		}
		for _, f := range ent.Details {
			page, err := readPage(f)
			if err != nil {
				fmt.Fprintf(stderr, "tableseg: manifest task %d (%s): %v\n", i, id, err)
				return nil, 2
			}
			in.DetailPages = append(in.DetailPages, page)
		}
		tasks = append(tasks, tableseg.Task{ID: id, Input: in})
	}
	return tasks, 0
}

// emitBatchResult writes one task's outcome in the selected output
// mode. JSON mode emits one compact JSONL object per task; CSV mode a
// commented header plus the table; text mode a task banner plus the
// usual report.
func emitBatchResult(stdout io.Writer, res tableseg.Result, out outputMode) error {
	var resp *apiv1.SegmentResponse
	if res.Err == nil {
		resp = apiv1.ResponseFromSegmentation(res.Seg, nil)
	}
	switch {
	case out.json:
		line := jsonBatchLine{Index: res.Index, ID: res.ID}
		if res.Err != nil {
			line.Error = res.Err.Error()
		} else {
			jo := jsonOutputFrom(resp)
			line.Output = &jo
		}
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		data = append(data, '\n')
		_, err = stdout.Write(data)
		return err
	case out.csv:
		if res.Err != nil {
			_, err := fmt.Fprintf(stdout, "# task %d %s error: %v\n\n", res.Index, res.ID, res.Err)
			return err
		}
		if _, err := fmt.Fprintf(stdout, "# task %d %s\n", res.Index, res.ID); err != nil {
			return err
		}
		if err := writeCSV(stdout, resp); err != nil {
			return err
		}
		_, err := fmt.Fprintln(stdout)
		return err
	default:
		if _, err := fmt.Fprintf(stdout, "== task %d %s\n", res.Index, res.ID); err != nil {
			return err
		}
		if res.Err != nil {
			_, err := fmt.Fprintf(stdout, "error: %v\n", res.Err)
			return err
		}
		printText(stdout, resp, out.columns)
		return nil
	}
}
