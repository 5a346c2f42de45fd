// Command tableseglint runs the repository's static-analysis suite
// (internal/analysis) over every package of the module and reports
// violations of the determinism, context-discipline, error-wrapping,
// float-equality, stage-purity, concurrency (goroutine-exit, lock and
// channel-ownership), dataflow (RNG-provenance, probability,
// aliasing), interprocedural (context-flow, handler-response) and
// schema-lock (wire/codec drift) invariants with file:line positions.
//
// Usage:
//
//	tableseglint [-root dir] [-json | -sarif] [-analyzers list] [-cache dir] [-jobs n] [-timing] [packages...]
//	tableseglint -list
//	tableseglint [-root dir] -update-locks
//
// With no package arguments every package under the module root is
// checked (testdata, corpus and hidden directories are skipped).
// Package arguments are directories relative to the module root, e.g.
// `internal/csp`.
//
// The wiredrift and codecdrift analyzers lint the live tree against
// the committed schema locks (lint/schema-apiv1.lock and
// lint/schema-artifacts.lock). -update-locks is their sanctioned
// evolution path: it regenerates both locks deterministically (a
// second run is a byte-identical no-op) but refuses to launder a
// breaking change — a dropped/retyped/retagged wire field or a codec
// shape change without a version bump aborts the rewrite with exit 1.
//
// -list prints every analyzer's name and one-line doc and exits.
// -analyzers runs only the named subset (comma-separated; unknown
// names are a usage error). A finding is suppressed only by a
// `//tableseglint:ignore <analyzer> <reason>` directive at its site.
//
// The interprocedural analyzers consume whole-module call-graph
// summaries, so the driver loads packages once, builds the fact base,
// and then analyzes packages in parallel (bounded by -jobs). -cache
// names a directory holding per-package diagnostics keyed by a
// content hash of the package, its transitive module-local imports,
// go.mod and the analyzer selection; warm entries skip loading and
// analysis entirely and the merged output is byte-identical either
// way. -timing prints per-analyzer wall time per package to stderr.
//
// Output is plain file:line text by default; -json emits a flat JSON
// array and -sarif a SARIF 2.1.0 log for CI code-scanning upload.
// Whatever the format, diagnostics are ordered by file, line and
// column across all packages, so output is diff-stable.
//
// Exit codes: 0 when the tree is clean, 1 when findings survive, 2 on
// usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"

	"tableseg/internal/analysis"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

// realMain is the whole program behind the exit code, separated so
// tests can drive flags, streams and status without a subprocess.
func realMain(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("tableseglint", flag.ContinueOnError)
	flags.SetOutput(stderr)
	root := flags.String("root", ".", "module root directory (must contain go.mod)")
	asJSON := flags.Bool("json", false, "emit findings as a JSON array")
	asSARIF := flags.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	analyzerList := flags.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	cacheDir := flags.String("cache", "", "directory for the per-package diagnostic cache (empty: cache disabled)")
	jobs := flags.Int("jobs", runtime.NumCPU(), "maximum packages analyzed concurrently")
	timing := flags.Bool("timing", false, "print per-analyzer wall time per package to stderr")
	list := flags.Bool("list", false, "print analyzer names and docs, then exit")
	updateLocks := flags.Bool("update-locks", false, "regenerate the schema lock files from the live tree, then exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *asJSON && *asSARIF {
		fmt.Fprintln(stderr, "tableseglint: -json and -sarif are mutually exclusive")
		return 2
	}
	if *updateLocks {
		if *asJSON || *asSARIF || *analyzerList != "" || len(flags.Args()) > 0 {
			fmt.Fprintln(stderr, "tableseglint: -update-locks takes no other modes or package arguments")
			return 2
		}
		return runUpdateLocks(*root, stdout, stderr)
	}

	suite := analysis.Suite()
	if *list {
		for _, a := range suite {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *analyzerList != "" {
		selected, err := selectAnalyzers(suite, *analyzerList)
		if err != nil {
			fmt.Fprintln(stderr, "tableseglint:", err)
			return 2
		}
		suite = selected
	}

	diags, err := run(runConfig{
		root:     *root,
		pkgDirs:  flags.Args(),
		suite:    suite,
		cacheDir: *cacheDir,
		jobs:     *jobs,
		timing:   *timing,
		stderr:   stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "tableseglint:", err)
		return 2
	}
	switch {
	case *asJSON:
		out, err := analysis.EncodeJSON(diags)
		if err != nil {
			fmt.Fprintln(stderr, "tableseglint:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	case *asSARIF:
		out, err := analysis.EncodeSARIF(diags, suite)
		if err != nil {
			fmt.Fprintln(stderr, "tableseglint:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	default:
		for _, d := range diags {
			fmt.Fprintln(stdout, d)
		}
	}
	if n := len(diags); n > 0 {
		fmt.Fprintf(stderr, "tableseglint: %d finding(s)\n", n)
		return 1
	}
	return 0
}

// selectAnalyzers resolves a comma-separated -analyzers value against
// the suite, preserving suite order.
func selectAnalyzers(suite []*analysis.Analyzer, names string) ([]*analysis.Analyzer, error) {
	wanted := map[string]bool{}
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		known := false
		for _, a := range suite {
			if a.Name == name {
				known = true
				break
			}
		}
		if !known {
			return nil, fmt.Errorf("unknown analyzer %q (see -list)", name)
		}
		wanted[name] = true
	}
	if len(wanted) == 0 {
		return nil, fmt.Errorf("-analyzers given but no analyzer names parsed")
	}
	var out []*analysis.Analyzer
	for _, a := range suite {
		if wanted[a.Name] {
			out = append(out, a)
		}
	}
	return out, nil
}

// runConfig carries one lint invocation's settings into run.
type runConfig struct {
	root     string
	pkgDirs  []string
	suite    []*analysis.Analyzer
	cacheDir string
	jobs     int
	timing   bool
	stderr   io.Writer
}

// pkgResult is one package's outcome, keyed for deterministic
// reporting whatever order the workers finish in.
type pkgResult struct {
	dir     string
	cached  bool
	diags   []analysis.Diagnostic
	timings []analysis.AnalyzerTiming
}

func run(rc runConfig) ([]analysis.Diagnostic, error) {
	modPath, err := analysis.ModulePathOf(rc.root)
	if err != nil {
		return nil, err
	}
	// The schema locks are analyzer inputs: load them before either the
	// cache keyer (their bytes are part of every key) or the analysis
	// pass. A corrupt lock is a usage error, not something to lint past.
	cfg := analysis.DefaultConfig()
	if err := analysis.LoadSchemaLocks(&cfg, rc.root); err != nil {
		return nil, err
	}
	pkgDirs := rc.pkgDirs
	if len(pkgDirs) == 0 {
		pkgDirs, err = packageDirs(rc.root)
		if err != nil {
			return nil, err
		}
	}

	results := make(map[string]*pkgResult, len(pkgDirs))

	// Warm-cache pass: decide hit or miss from content hashes alone,
	// without loading anything.
	var keys map[string]string
	if rc.cacheDir != "" {
		keyer := newCacheKeyer(rc.root, modPath, rc.suite, []string{cfg.WireLockPath, cfg.CodecLockPath})
		keys = make(map[string]string, len(pkgDirs))
		for _, dir := range pkgDirs {
			key, err := keyer.key(dir)
			if err != nil {
				// Unkeyable (e.g. parse error): fall through to a real
				// load, which reports the error properly.
				continue
			}
			keys[dir] = key
			if diags, ok := cacheLoad(rc.cacheDir, key); ok {
				results[dir] = &pkgResult{dir: dir, cached: true, diags: diags}
			}
		}
	}

	// Load the misses (the loader pulls module-local dependencies in
	// recursively, so the fact base sees every callee) and build the
	// shared call-graph summaries.
	var missDirs []string
	for _, dir := range pkgDirs {
		if results[dir] == nil {
			missDirs = append(missDirs, dir)
		}
	}
	if len(missDirs) > 0 {
		loader := analysis.NewLoader(rc.root, modPath)
		missPkgs := make([]*analysis.Package, len(missDirs))
		for i, dir := range missDirs {
			pkg, err := loader.LoadDir(filepath.Join(rc.root, dir))
			if err != nil {
				return nil, err
			}
			missPkgs[i] = pkg
		}
		facts := analysis.BuildFacts(loader.Packages())

		// The fact base and config are read-only now; analyze packages
		// in parallel, bounded by -jobs.
		jobs := rc.jobs
		if jobs < 1 {
			jobs = 1
		}
		sem := make(chan struct{}, jobs)
		var wg sync.WaitGroup
		var mu sync.Mutex
		for i, dir := range missDirs {
			wg.Add(1)
			go func(dir string, pkg *analysis.Package) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				diags, timings := analysis.RunTimed(pkg, cfg, rc.suite, facts)
				mu.Lock()
				results[dir] = &pkgResult{dir: dir, diags: diags, timings: timings}
				mu.Unlock()
			}(dir, missPkgs[i])
		}
		wg.Wait()

		if rc.cacheDir != "" {
			for _, dir := range missDirs {
				if key, ok := keys[dir]; ok {
					cacheStore(rc.cacheDir, key, results[dir].diags)
				}
			}
		}
	}

	if rc.timing {
		printTimings(rc.stderr, pkgDirs, results)
	}

	// Merge and re-sort across packages so the combined stream is one
	// deterministic file:line sequence, cache hits and misses alike.
	var diags []analysis.Diagnostic
	for _, dir := range pkgDirs {
		if r := results[dir]; r != nil {
			diags = append(diags, r.diags...)
		}
	}
	analysis.SortDiagnostics(diags)
	return diags, nil
}

// printTimings writes one line per package in deterministic order:
// the package dir, then each analyzer's wall time in suite order.
func printTimings(w io.Writer, pkgDirs []string, results map[string]*pkgResult) {
	for _, dir := range pkgDirs {
		r := results[dir]
		if r == nil {
			continue
		}
		if r.cached {
			fmt.Fprintf(w, "timing %-28s (cached)\n", dir)
			continue
		}
		parts := make([]string, 0, len(r.timings))
		for _, tm := range r.timings {
			parts = append(parts, fmt.Sprintf("%s=%s", tm.Analyzer, tm.Elapsed.Round(10_000)))
		}
		fmt.Fprintf(w, "timing %-28s %s\n", dir, strings.Join(parts, " "))
	}
}

// packageDirs lists every directory under root holding at least one
// non-test Go file, as module-root-relative paths.
func packageDirs(root string) ([]string, error) {
	skip := map[string]bool{
		".git": true, "testdata": true, "corpus": true, "results": true,
	}
	seen := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != root && (skip[name] || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			rel, err := filepath.Rel(root, filepath.Dir(path))
			if err != nil {
				return err
			}
			seen[filepath.ToSlash(rel)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dirs := make([]string, 0, len(seen))
	for d := range seen {
		dirs = append(dirs, d)
	}
	sort.Strings(dirs)
	return dirs, nil
}
