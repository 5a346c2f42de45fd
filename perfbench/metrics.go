package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"tableseg/internal/core"
)

// methods are the paper's two segmentation methods, in the order a
// pass starts with on even passes; odd passes reverse it, so host drift
// reaches both alike.
var methods = []core.Method{core.Probabilistic, core.CSP}

// suffix names a method in metric names.
func suffix(m core.Method) string {
	if m == core.Probabilistic {
		return "prob"
	}
	return "csp"
}

// methodOrder returns the methods in the order pass i runs them.
func methodOrder(i int) []core.Method {
	if i%2 == 0 {
		return methods
	}
	return []core.Method{methods[1], methods[0]}
}

// p90 is the highest percentile reported: at 100 or more pages per
// method it keeps at least minBeyond samples above it.
const (
	p90       = 0.90
	minBeyond = 10
)

// quantile returns the nearest-rank p-quantile of samples (sorted or
// not) and the number of samples beyond it. The percentile is
// supported when beyond >= minBeyond.
func quantile(samples []float64, p float64) (value float64, beyond int) {
	n := len(samples)
	if n == 0 {
		return 0, 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n - rank
}

// median is the middle value of xs (the mean of the middle two for an
// even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// perPage divides a total by a page count, reading 0 when there were no
// pages.
func perPage(total float64, pages int) float64 {
	if pages == 0 {
		return 0
	}
	return total / float64(pages)
}

// ratio divides, reading 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

const mb = 1 << 20

// totals accumulates one method's timed phases: every page's latency,
// each phase's throughput, and the bytes allocated. A phase is one pass
// (batch) or one block (daemon) of that method.
type totals struct {
	lat   []float64 // ms per page, every page of every phase
	rates []float64 // pages per second, per phase
	alloc uint64
}

func (t *totals) add(lat []float64, wall time.Duration, alloc uint64) {
	t.lat = append(t.lat, lat...)
	t.rates = append(t.rates, ratio(float64(len(lat)), wall.Seconds()))
	t.alloc += alloc
}

func (t *totals) pages() int { return len(t.lat) }

// latency is the p-quantile of every page's latency in the run.
func (t *totals) latency(p float64) float64 {
	v, _ := quantile(t.lat, p)
	return v
}

// pagesPerSec is the median phase's throughput. Phases differ in their
// inputs (a fresh seed per pass) and in what the host did meanwhile;
// the median keeps one slow seed or one burst of steal from moving the
// run's figure.
func (t *totals) pagesPerSec() float64 { return median(t.rates) }

// mbPerPage is the bytes allocated per page over all phases, in MB.
func (t *totals) mbPerPage() float64 { return perPage(float64(t.alloc)/mb, t.pages()) }

// metric is one measurement as printed.
type metric struct {
	name  string
	value float64
	unit  string
}

// endToEnd assembles the end-to-end metrics of an untraced run.
func endToEnd(setups []float64, byMethod map[core.Method]*totals, heapBytes uint64) []metric {
	out := []metric{{"setup_s", median(setups), "s"}}
	for _, m := range methods {
		t, sfx := byMethod[m], suffix(m)
		out = append(out,
			metric{"pages_per_s." + sfx, t.pagesPerSec(), "1/s"},
			metric{"page_ms_p50." + sfx, t.latency(0.5), "ms"},
			metric{"page_ms_p90." + sfx, t.latency(p90), "ms"},
			metric{"alloc_mb_per_page." + sfx, t.mbPerPage(), "MB"},
		)
	}
	return append(out, metric{"heap_mb", float64(heapBytes) / mb, "MB"})
}

// sampleLine reports how many latency samples back each method's
// percentiles: the pages, and how many of them lie beyond p90.
func sampleLine(byMethod map[core.Method]*totals) string {
	s := "samples:"
	for _, m := range methods {
		_, beyond := quantile(byMethod[m].lat, p90)
		s += fmt.Sprintf(" %s=%d pages (%d beyond p90)", suffix(m), byMethod[m].pages(), beyond)
	}
	return s
}

// report is the benchmark's last line of output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func writeReport(w io.Writer, correct bool, attempted, failed int, ms []metric) error {
	r := report{Correct: correct, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range ms {
		r.Metrics[m.name] = metricValue{Value: m.value, Unit: m.unit}
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
