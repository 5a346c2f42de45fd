// Command perfbench is the repository's end-to-end benchmark. It
// generates a workload's inputs from a seed with internal/sitegen,
// drives the library engine (Engine.Stream) or an in-process tablesegd
// (internal/server on loopback) in closed loop, checks every output it
// can against a serial segmentation, and prints the workload's metrics
// by name and unit. The last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
// separate traced run reports per-layer metrics from spans the harness
// records around its calls into each layer. See README.md.
//
// Run it from the repository root, through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper-corpus --seed 1 --seconds 30 --trace 0
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	// root is the repository checkout the run reads
	// results/table4.txt from: the working directory.
	root string
	// workers is the engine worker count and the number of client
	// connections: the host's GOMAXPROCS.
	workers int
	// passes and setups override the work derived from seconds (0 =
	// derived); the smoke test uses them to keep runs minimal.
	passes, setups int
	// cpuProfile and memProfile, when set, receive pprof files: the
	// CPU profile covers the timed phases, the heap profile is written
	// at the end of the run.
	cpuProfile, memProfile string
	stdout                 io.Writer
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"paper-corpus": func(r *run) error { return runBatch(r, paperCorpus) },
	"bulky-pages":  func(r *run) error { return runBatch(r, bulkyPages) },
	"daemon-warm":  runDaemon,
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr))
}

// mainErr parses the command line, runs one workload and prints its
// report. It returns the process exit code: 0 when every output check
// passed, 1 when a check failed, 2 on a usage or set-up error.
func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cfg := config{stdout: stdout, workers: runtime.GOMAXPROCS(0), root: "."}
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "seed the workload's inputs are generated from")
	fs.IntVar(&cfg.seconds, "seconds", 30, "scales the fixed work of a run; about this many seconds are measured on a 2-vCPU host")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the timed phases to this file")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile at the end of the run to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace == 1
	runWorkload, ok := workloads[cfg.workload]
	if !ok || cfg.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(workloadNames(), ", "))
		return 2
	}
	if _, err := os.Stat(filepath.Join(cfg.root, "results", "table4.txt")); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the root of a repository checkout: %v\n", err)
		return 2
	}
	r := newRun(cfg)
	if err := runWorkload(r); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	if err := r.finish(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	for _, p := range r.problems {
		fmt.Fprintf(stderr, "perfbench: check failed: %s\n", p)
	}
	if !r.correct() {
		return 1
	}
	return 0
}

// run is the state of one benchmark run: what it attempted, what
// failed, and the metrics it reports.
type run struct {
	cfg       config
	host      hostSample
	attempted int
	failed    int
	problems  []string
	metrics   []metric
	notes     []string
	profFile  *os.File
	// units counts the set-ups and timed phases measured, repeats those
	// measured again because the host disturbed them.
	units, repeats int
	// repeatBudget caps repeats over the whole run at a quarter of its
	// units, so a run on a host that stays disturbed does at most a
	// quarter more work.
	repeatBudget int
	// ref is the reference loop that scales timings to reference
	// speed; readings are its readings, in ms (see bracket).
	ref      *reference
	readings []float64
}

func newRun(cfg config) *run {
	return &run{cfg: cfg, host: sampleHost(), ref: newReference(cfg.workers)}
}

// fail records a failed operation or check.
func (r *run) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

func (r *run) correct() bool { return r.failed == 0 }

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// calm runs measure, a set-up or a timed phase, and runs it again while
// the host disturbed it (hostDelta.disturbed), up to maxTries times and
// while the run's repeat budget lasts. measure must replace, not add
// to, what an earlier try measured.
func (r *run) calm(measure func() error) error {
	r.units++
	for try := 1; ; try++ {
		before := sampleHost()
		if err := measure(); err != nil {
			return err
		}
		if !r.again(before.since(), try) {
			return nil
		}
	}
}

// again reports whether a measurement over which the host did d, at its
// try'th try, is to be taken again, and spends budget when it is.
func (r *run) again(d hostDelta, try int) bool {
	if try >= maxTries || r.repeats >= r.repeatBudget || !d.disturbed() {
		return false
	}
	r.repeats++
	return true
}

// noteRepeats reports how many measurements the host's steal made the
// run repeat.
func (r *run) noteRepeats() {
	r.note("repeats: %d of %d set-ups and phases measured again for host steal (budget %d)", r.repeats, r.units, r.repeatBudget)
}

// timedStart starts the CPU profile, when one was asked for, at the
// first timed phase; timedEnd stops it after the last. Input generation
// and output checks between phases fall inside it.
func (r *run) timedStart() error {
	if r.cfg.cpuProfile == "" || r.profFile != nil {
		return nil
	}
	f, err := os.Create(r.cfg.cpuProfile)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	r.profFile = f
	return nil
}

func (r *run) timedEnd() {
	if r.profFile != nil {
		pprof.StopCPUProfile()
	}
}

// finish closes the profiles and prints the host record, notes and the
// report line.
func (r *run) finish() error {
	r.timedEnd()
	if r.profFile != nil {
		if err := r.profFile.Close(); err != nil {
			return fmt.Errorf("closing CPU profile: %w", err)
		}
	}
	if r.cfg.memProfile != "" {
		f, err := os.Create(r.cfg.memProfile)
		if err != nil {
			return err
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing heap profile: %w", err)
		}
	}
	h := r.host.since()
	if r.cfg.trace {
		r.metrics = append(r.metrics, h.metrics()...)
	}
	w := r.cfg.stdout
	fmt.Fprintf(w, "perfbench: workload=%s seed=%d seconds=%d trace=%t workers=%d\n",
		r.cfg.workload, r.cfg.seed, r.cfg.seconds, r.cfg.trace, r.cfg.workers)
	fmt.Fprintln(w, h.line())
	for _, n := range r.notes {
		fmt.Fprintln(w, n)
	}
	sort.SliceStable(r.metrics, func(i, j int) bool { return r.metrics[i].name < r.metrics[j].name })
	for _, m := range r.metrics {
		fmt.Fprintf(w, "  %-32s %14.4f %s\n", m.name, m.value, m.unit)
	}
	return writeReport(w, r.correct(), r.attempted, r.failed, r.metrics)
}
