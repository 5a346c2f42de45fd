package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"
)

// Timings are reported at reference speed. The host's own speed moves
// by a quarter within minutes on a shared 2-vCPU VM, with no steal to
// show for it: a fixed loop of harness code read 99 to 164 ms within
// one minute, and the probabilistic phase of one paper-corpus pass,
// repeated, had a median of 139 ms in one minute and 108 ms a few
// minutes later. Ten runs taken at such different moments spread by
// 40%, and no change to the program could be told from that. So every
// set-up and timed phase is bracketed by two readings of a reference
// loop, harness code that no change to the program touches, and its
// times are multiplied by refNominalMs over the mean of the two
// readings: they read as on a host where the reference loop takes
// refNominalMs. Scaled so, the two minutes' medians differed by 1%.
const (
	// refNominalMs is the reference speed: about what one reading of
	// the reference loop takes on the 2-vCPU VM the benchmark was
	// written on, so scaled times there read close to unscaled ones.
	refNominalMs = 7.0
	// refSamples is the samples in one reading, whose median it is.
	refSamples = 3
	// refPasses is the passes each worker makes in one sample.
	refPasses = 2
)

// refLoop is one worker's reference work. A pass scans a fixed 256 KB
// pseudo-HTML page byte by byte, hashing its tokens and counting them
// in a map, then sweeps log and exp over a 512 KB vector: the scanning,
// hashing, map and floating-point mix of the segmentation path. It
// allocates nothing, so the program's heap cannot change its time.
type refLoop struct {
	page   []byte
	counts map[uint64]int32
	vec    []float64
	sink   float64
}

// refBuckets is the number of distinct map keys the reference loop
// counts tokens under; every key exists before the first pass, so
// counting never grows the map.
const refBuckets = 4096

func newRefLoop() *refLoop {
	rng := rand.New(rand.NewSource(1))
	words := []string{"div", "class", "table", "row", "Name", "Address", "Phone", "td", "href", "span", "Price", "value"}
	l := &refLoop{counts: make(map[uint64]int32, refBuckets), vec: make([]float64, 1<<16)}
	for len(l.page) < 256<<10 {
		l.page = append(l.page, '<')
		l.page = append(l.page, words[rng.Intn(len(words))]...)
		l.page = append(l.page, '>')
		for k := rng.Intn(6); k >= 0; k-- {
			l.page = append(l.page, words[rng.Intn(len(words))]...)
			l.page = append(l.page, byte('0'+rng.Intn(10)), ' ')
		}
	}
	for k := uint64(0); k < refBuckets; k++ {
		l.counts[k] = 0
	}
	for i := range l.vec {
		l.vec[i] = rng.Float64()
	}
	return l
}

// pass runs the reference work once.
func (l *refLoop) pass() {
	const offset, prime = 14695981039346656037, 1099511628211 // FNV-1a
	h := uint64(offset)
	var seen int32
	for _, c := range l.page {
		if c == '<' || c == '>' || c == ' ' {
			seen += l.counts[h%refBuckets]
			l.counts[h%refBuckets]++
			h = offset
			continue
		}
		h = (h ^ uint64(c)) * prime
	}
	s := float64(seen)
	n := len(l.vec)
	for i := 0; i < n; i += 4 {
		s += math.Log1p(l.vec[i]) * math.Exp(-l.vec[(i*7919)%n])
	}
	l.sink += s
}

// reference is the reference loop of every worker: a sample runs them
// all at once, as a phase runs its workers.
type reference struct {
	loops []*refLoop
}

func newReference(workers int) *reference {
	ref := &reference{}
	for i := 0; i < workers; i++ {
		ref.loops = append(ref.loops, newRefLoop())
	}
	return ref
}

// sample is the wall time until every worker's loop has made refPasses
// passes.
func (ref *reference) sample() time.Duration {
	var wg sync.WaitGroup
	start := time.Now()
	for _, l := range ref.loops {
		wg.Add(1)
		go func(l *refLoop) {
			defer wg.Done()
			for k := 0; k < refPasses; k++ {
				l.pass()
			}
		}(l)
	}
	wg.Wait()
	return time.Since(start)
}

// reading is the median of refSamples samples, in ms.
func (ref *reference) reading() float64 {
	xs := make([]float64, refSamples)
	for i := range xs {
		xs[i] = ms(ref.sample())
	}
	return median(xs)
}

// speed converts a measurement's times to reference speed: it is the
// factor refNominalMs / the mean reference reading around it.
type speed float64

func speedOf(before, after float64) speed {
	return speed(refNominalMs / ((before + after) / 2))
}

func (s speed) dur(d time.Duration) time.Duration { return time.Duration(float64(d) * float64(s)) }

func (s speed) lat(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * float64(s)
	}
	return out
}

// bracket takes a reference reading, runs measure, takes another and
// returns the speed that scales what measure timed. It collects garbage
// before each reading, so that no collection the program started runs
// into one; measure therefore starts on a collected heap.
func (r *run) bracket(measure func() error) (speed, error) {
	runtime.GC()
	before := r.ref.reading()
	if err := measure(); err != nil {
		return 0, err
	}
	runtime.GC()
	after := r.ref.reading()
	r.readings = append(r.readings, before, after)
	return speedOf(before, after), nil
}

// speedLine reports the run's reference readings and, beside the scaled
// metrics, the timing metrics as measured, unscaled.
func (r *run) speedLine(unscaled []metric) string {
	s := append([]float64(nil), r.readings...)
	sort.Float64s(s)
	var b strings.Builder
	if len(s) > 0 {
		fmt.Fprintf(&b, "speed: %d reference readings, median %.3f ms [%.3f, %.3f] (nominal %.1f ms); unscaled:",
			len(s), median(s), s[0], s[len(s)-1], refNominalMs)
	}
	for _, m := range unscaled {
		if m.unit == "s" || m.unit == "ms" || m.unit == "1/s" {
			fmt.Fprintf(&b, " %s=%.4g", m.name, m.value)
		}
	}
	return b.String()
}
