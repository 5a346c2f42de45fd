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
//	tableseglint [-root dir] [-sarif] [-analyzers list] [packages...]
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
// The run is one serial pass: load the packages (the loader pulls in
// their module-local dependencies too), build the call-graph fact base
// the interprocedural analyzers consume over every loaded package, run
// the suite over each package in order, then sort and report. Nothing
// is cached between runs, so every run lints the tree with the
// analyzers as they are.
//
// Output is plain file:line text by default; -sarif emits a SARIF
// 2.1.0 log for CI code-scanning upload. Either way, diagnostics are
// ordered by file, line and column across all packages, so output is
// diff-stable.
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
	"sort"
	"strings"

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
	asSARIF := flags.Bool("sarif", false, "emit findings as a SARIF 2.1.0 log")
	analyzerList := flags.String("analyzers", "", "comma-separated subset of analyzers to run (default: all)")
	list := flags.Bool("list", false, "print analyzer names and docs, then exit")
	updateLocks := flags.Bool("update-locks", false, "regenerate the schema lock files from the live tree, then exit")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	if *updateLocks {
		if *asSARIF || *analyzerList != "" || len(flags.Args()) > 0 {
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

	diags, err := run(*root, flags.Args(), suite)
	if err != nil {
		fmt.Fprintln(stderr, "tableseglint:", err)
		return 2
	}
	if *asSARIF {
		out, err := analysis.EncodeSARIF(diags, suite)
		if err != nil {
			fmt.Fprintln(stderr, "tableseglint:", err)
			return 2
		}
		fmt.Fprintln(stdout, string(out))
	} else {
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

// run lints the packages in pkgDirs (module-root-relative; every
// package of the module when empty) with suite and returns the
// findings ordered by file, line and column.
func run(root string, pkgDirs []string, suite []*analysis.Analyzer) ([]analysis.Diagnostic, error) {
	modPath, err := analysis.ModulePathOf(root)
	if err != nil {
		return nil, err
	}
	// The schema locks are analyzer inputs: a corrupt lock is a usage
	// error, not something to lint past.
	cfg := analysis.DefaultConfig()
	if err := analysis.LoadSchemaLocks(&cfg, root); err != nil {
		return nil, err
	}
	if len(pkgDirs) == 0 {
		if pkgDirs, err = packageDirs(root); err != nil {
			return nil, err
		}
	}

	// The loader pulls module-local dependencies in recursively, so the
	// fact base sees every callee even when only a subset is linted.
	loader := analysis.NewLoader(root, modPath)
	pkgs := make([]*analysis.Package, len(pkgDirs))
	for i, dir := range pkgDirs {
		if pkgs[i], err = loader.LoadDir(filepath.Join(root, dir)); err != nil {
			return nil, err
		}
	}
	facts := analysis.BuildFacts(loader.Packages())

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		diags = append(diags, analysis.Run(pkg, cfg, suite, facts)...)
	}
	// Run sorts per package; re-sort so the combined stream is one
	// file:line sequence across packages.
	analysis.SortDiagnostics(diags)
	return diags, nil
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
