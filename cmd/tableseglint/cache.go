package main

// The on-disk diagnostic cache. A package's post-suppression
// diagnostics are a pure function of (its sources, the sources of its
// transitive module-local dependencies, go.mod, the analyzer
// selection, the lint code itself) — the interprocedural summaries
// reach exactly as far as the import graph does. The cache key is a
// Merkle hash over those inputs, computed from an ImportsOnly parse,
// so a warm run decides hit-or-miss without type-checking anything;
// any edit to a package re-keys it and every package that imports it.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"tableseg/internal/analysis"
)

// cacheSchema invalidates every entry when the cache layout or the
// analyzers' semantics change; bump it alongside analyzer releases.
// v2: schema-lock bytes joined the key salt (wiredrift/codecdrift
// findings depend on the committed locks, not just the sources).
// v3: a hot-path declaration file joined the key salt.
// v4: the suite shrank to fifteen analyzers and that file left the salt.
const cacheSchema = "tableseglint-cache-v4"

// cacheKeyer computes content keys for package directories.
type cacheKeyer struct {
	root    string
	modPath string
	// salt folds the schema version, the module's go.mod, the analyzer
	// selection and the schema-lock files into every key.
	salt string
	keys map[string]string // dir (module-relative) -> hex key
	busy map[string]bool   // cycle guard
}

func newCacheKeyer(root, modPath string, suite []*analysis.Analyzer, lockPaths []string) *cacheKeyer {
	h := sha256.New()
	fmt.Fprintln(h, cacheSchema)
	fmt.Fprintln(h, filepath.Clean(root))
	names := make([]string, 0, len(suite))
	for _, a := range suite {
		names = append(names, a.Name)
	}
	fmt.Fprintln(h, strings.Join(names, ","))
	if gomod, err := os.ReadFile(filepath.Join(root, "go.mod")); err == nil {
		h.Write(gomod)
	}
	// The schema locks are analyzer inputs exactly like sources:
	// regenerating one must re-key every package, and a missing lock
	// (analyzer disabled) must key differently from any present one.
	for _, p := range lockPaths {
		data, err := os.ReadFile(filepath.Join(root, filepath.FromSlash(p)))
		fmt.Fprintln(h, p, err == nil, len(data))
		h.Write(data)
	}
	return &cacheKeyer{
		root:    root,
		modPath: modPath,
		salt:    hex.EncodeToString(h.Sum(nil)),
		keys:    map[string]string{},
		busy:    map[string]bool{},
	}
}

// key returns the cache key of the package in the module-relative dir.
func (c *cacheKeyer) key(dir string) (string, error) {
	if k, ok := c.keys[dir]; ok {
		return k, nil
	}
	if c.busy[dir] {
		return "", fmt.Errorf("import cycle through %s", dir)
	}
	c.busy[dir] = true
	defer delete(c.busy, dir)

	files, imports, err := c.scan(dir)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	fmt.Fprintln(h, c.salt)
	fmt.Fprintln(h, dir)
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(h, filepath.Base(f), len(data))
		h.Write(data)
	}
	// Recurse into module-local deps; sorted import order keeps the
	// hash deterministic.
	for _, imp := range imports {
		depKey, err := c.key(imp)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(h, imp, depKey)
	}
	k := hex.EncodeToString(h.Sum(nil))
	c.keys[dir] = k
	return k, nil
}

// scan lists the package's non-test Go files (sorted) and the
// module-relative directories of its module-local imports (sorted,
// deduplicated), via an ImportsOnly parse — no type-checking.
func (c *cacheKeyer) scan(dir string) (files, imports []string, err error) {
	abs := filepath.Join(c.root, dir)
	entries, err := os.ReadDir(abs)
	if err != nil {
		return nil, nil, err
	}
	depSet := map[string]bool{}
	fset := token.NewFileSet()
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasSuffix(name, "_test.go") || strings.HasPrefix(name, ".") {
			continue
		}
		path := filepath.Join(abs, name)
		files = append(files, path)
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return nil, nil, err
		}
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if p == c.modPath {
				depSet["."] = true
			} else if rest, ok := strings.CutPrefix(p, c.modPath+"/"); ok {
				depSet[rest] = true
			}
		}
	}
	sort.Strings(files)
	delete(depSet, dir) // self-import cannot happen, but stay safe
	for d := range depSet {
		imports = append(imports, d)
	}
	sort.Strings(imports)
	return files, imports, nil
}

// cacheLoad reads the cached diagnostics for key, reporting ok=false
// on any miss, read error or decode error.
func cacheLoad(cacheDir, key string) ([]analysis.Diagnostic, bool) {
	data, err := os.ReadFile(filepath.Join(cacheDir, key+".json"))
	if err != nil {
		return nil, false
	}
	var diags []analysis.Diagnostic
	if err := json.Unmarshal(data, &diags); err != nil {
		return nil, false
	}
	return diags, true
}

// cacheStore writes the diagnostics for key; failures are silently
// ignored (the cache is an optimization, never a correctness input).
func cacheStore(cacheDir, key string, diags []analysis.Diagnostic) {
	if err := os.MkdirAll(cacheDir, 0o755); err != nil {
		return
	}
	data, err := json.Marshal(diags)
	if err != nil {
		return
	}
	tmp := filepath.Join(cacheDir, key+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return
	}
	_ = os.Rename(tmp, filepath.Join(cacheDir, key+".json"))
}
