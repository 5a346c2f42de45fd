package main

// -update-locks: the sanctioned evolution path for the two schema
// locks. It recomputes the wire-surface entries (every exported
// api/v1 type, field by field) and the artifact-shape entries (each
// codec-encoded struct's digest at its version constant's current
// value) and rewrites lint/schema-apiv1.lock and
// lint/schema-artifacts.lock deterministically — a second run is a
// byte-identical no-op, which the CI lock-drift gate exploits
// (`tableseglint -update-locks && git diff --exit-code lint/`).
//
// Regeneration must not become a laundering channel for the very
// drift the analyzers exist to catch, so it refuses to rewrite a
// contract breakingly: dropping, retyping or retagging a locked wire
// field (or losing a locked wire type) is an error listing each
// break, and so is re-digesting a codec struct whose bound version
// constant was not bumped. Pure wire additions and properly bumped
// codec shapes go through.

import (
	"bytes"
	"fmt"
	"go/constant"
	"go/types"
	"io"
	"os"
	"path/filepath"

	"tableseg/internal/analysis"
	"tableseg/internal/analysis/schema"
)

// runUpdateLocks is the whole -update-locks mode behind the exit
// code: 0 written/unchanged, 1 refused (breaking rewrite), 2 on load
// or corrupt-lock errors.
func runUpdateLocks(root string, stdout, stderr io.Writer) int {
	modPath, err := analysis.ModulePathOf(root)
	if err != nil {
		fmt.Fprintln(stderr, "tableseglint:", err)
		return 2
	}
	cfg := analysis.DefaultConfig()
	loader := analysis.NewLoader(root, modPath)

	wire, err := buildWireLock(loader, root, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "tableseglint:", err)
		return 2
	}
	codec, err := buildCodecLock(loader, root, cfg)
	if err != nil {
		fmt.Fprintln(stderr, "tableseglint:", err)
		return 2
	}

	var breaks []string
	for _, l := range []struct {
		path string
		old  func(*schema.Lock, *schema.Lock) []string
		lock *schema.Lock
	}{
		{cfg.WireLockPath, wireBreaks, wire},
		{cfg.CodecLockPath, codecBreaks, codec},
	} {
		old, err := schema.LoadFile(filepath.Join(root, filepath.FromSlash(l.path)))
		if err != nil {
			fmt.Fprintln(stderr, "tableseglint:", err)
			return 2
		}
		if old != nil {
			breaks = append(breaks, l.old(old, l.lock)...)
		}
	}
	if len(breaks) > 0 {
		fmt.Fprintln(stderr, "tableseglint: refusing to update locks — the rewrite would erase a contract the analyzers enforce:")
		for _, b := range breaks {
			fmt.Fprintln(stderr, "  breaking:", b)
		}
		fmt.Fprintln(stderr, "tableseglint: restore the shape (or start api/v2 / bump the codec version) and rerun")
		return 1
	}

	for _, l := range []struct {
		path string
		lock *schema.Lock
	}{
		{cfg.WireLockPath, wire},
		{cfg.CodecLockPath, codec},
	} {
		changed, err := writeLock(filepath.Join(root, filepath.FromSlash(l.path)), l.lock)
		if err != nil {
			fmt.Fprintln(stderr, "tableseglint:", err)
			return 2
		}
		if changed {
			fmt.Fprintln(stdout, "wrote", l.path)
		} else {
			fmt.Fprintln(stdout, l.path, "unchanged")
		}
	}
	return 0
}

// buildWireLock fingerprints every exported type of the wire package.
func buildWireLock(loader *analysis.Loader, root string, cfg analysis.Config) (*schema.Lock, error) {
	pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash(cfg.WirePkg)))
	if err != nil {
		return nil, fmt.Errorf("loading wire package %s: %w", cfg.WirePkg, err)
	}
	lock := &schema.Lock{Schema: schema.LockSchema}
	scope := pkg.Types.Scope()
	for _, name := range scope.Names() { // Names() is sorted
		obj, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !obj.Exported() {
			continue
		}
		lock.Types = append(lock.Types, schema.WireEntryOf(obj))
	}
	return lock, nil
}

// buildCodecLock fingerprints every bound codec struct at its version
// constant's current value.
func buildCodecLock(loader *analysis.Loader, root string, cfg analysis.Config) (*schema.Lock, error) {
	lock := &schema.Lock{Schema: schema.LockSchema}
	for _, b := range cfg.SchemaBindings {
		pkg, err := loader.LoadDir(filepath.Join(root, filepath.FromSlash(b.ConstPkg)))
		if err != nil {
			return nil, fmt.Errorf("loading %s for %s: %w", b.ConstPkg, b.ConstName, err)
		}
		constObj, ok := pkg.Types.Scope().Lookup(b.ConstName).(*types.Const)
		if !ok {
			return nil, fmt.Errorf("version constant %s not found in %s", b.ConstName, b.ConstPkg)
		}
		version, exact := constant.Int64Val(constant.ToInt(constObj.Val()))
		if !exact {
			return nil, fmt.Errorf("version constant %s.%s is not an integer", b.ConstPkg, b.ConstName)
		}
		typeObj := analysis.BoundType(pkg.Types, b)
		if typeObj == nil {
			// The const package no longer reaches the type: there is no
			// codec for it, so there is nothing to lock (mirrors the
			// analyzer's skip).
			continue
		}
		lock.Types = append(lock.Types, schema.CodecEntryOf(typeObj, b.ConstPkg+"."+b.ConstName, version, b.OmitFields))
	}
	return lock, nil
}

// wireBreaks lists the contract erasures a wire-lock rewrite would
// commit: lost types, lost/retyped/retagged fields, changed
// underlying types. Additions are not breaks.
func wireBreaks(old, new *schema.Lock) []string {
	var out []string
	for _, oe := range old.Types {
		ne := new.Entry(oe.Type)
		if ne == nil {
			out = append(out, fmt.Sprintf("wire type %s would be dropped from the lock", oe.Type))
			continue
		}
		if oe.Underlying != "" && ne.Underlying != oe.Underlying {
			out = append(out, fmt.Sprintf("underlying type of %s would change %s -> %s", oe.Type, oe.Underlying, ne.Underlying))
		}
		newFields := map[string]schema.Field{}
		for _, f := range ne.Fields {
			newFields[f.Name] = f
		}
		for _, of := range oe.Fields {
			nf, ok := newFields[of.Name]
			if !ok {
				out = append(out, fmt.Sprintf("field %s.%s (json %q) would be dropped", oe.Type, of.Name, of.Tag))
				continue
			}
			if nf.Tag != of.Tag {
				out = append(out, fmt.Sprintf("json tag of %s.%s would change %q -> %q", oe.Type, of.Name, of.Tag, nf.Tag))
			}
			if nf.Type != of.Type {
				out = append(out, fmt.Sprintf("type of %s.%s would change %s -> %s", oe.Type, of.Name, of.Type, nf.Type))
			}
		}
	}
	return out
}

// codecBreaks lists unbumped shape changes a codec-lock rewrite would
// silently bless.
func codecBreaks(old, new *schema.Lock) []string {
	var out []string
	for _, oe := range old.Types {
		ne := new.Entry(oe.Type)
		if ne == nil {
			continue // binding retired: nothing left to drift
		}
		if ne.Digest != oe.Digest && ne.Version == oe.Version {
			out = append(out, fmt.Sprintf("shape of codec-encoded %s changed without bumping %s (still %d)", oe.Type, oe.Const, oe.Version))
		}
	}
	return out
}

// writeLock writes the lock atomically iff its encoding differs from
// what is on disk, reporting whether it wrote.
func writeLock(path string, lock *schema.Lock) (bool, error) {
	data, err := lock.Encode()
	if err != nil {
		return false, err
	}
	if existing, err := os.ReadFile(path); err == nil && bytes.Equal(existing, data) {
		return false, nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return false, fmt.Errorf("writing %s: %w", path, err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return false, fmt.Errorf("writing %s: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return false, fmt.Errorf("writing %s: %w", path, err)
	}
	return true, nil
}
