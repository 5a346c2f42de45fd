package analysis

import (
	"go/constant"
	"go/types"

	"tableseg/internal/analysis/schema"
)

// CodecDrift returns the analyzer that binds the shape of every
// codec-encoded struct to its version constant. The artifact store
// keys cached payloads by (kind, version, content hash); the codec's
// correctness contract — "a version bump invalidates, never misreads"
// — therefore only holds if the version actually gets bumped when an
// encoded struct changes shape. That used to be a convention in
// stage/codec.go's comments. Here each Config.SchemaBindings entry
// names a version constant (stage.CodecVersion, the engine's journal
// envelope version) and a struct whose canonical reachable shape the
// committed lint/schema-artifacts.lock pins at that constant's
// recorded value. A shape change while the constant still holds the
// locked value is a finding: stale cached artifacts would decode into
// wrong segmentations. Bumping the constant clears the finding (the
// lock is then regenerated by `tableseglint -update-locks`, which the
// CI lock-drift gate forces before merge).
//
// The check runs in the package defining the constant, which (by
// construction: it encodes those structs) can reach the bound types
// through its imports. A bound type that the package can no longer
// reach is skipped — if stage stops importing token, it cannot encode
// token.Token either, so there is no payload left to drift.
func CodecDrift() *Analyzer {
	a := &Analyzer{
		Name: "codecdrift",
		Doc:  "codec-encoded structs must bump their bound version constant whenever their canonical shape changes",
	}
	a.Run = func(pass *Pass) {
		lock := pass.Cfg.CodecLock
		if lock == nil {
			return
		}
		lockName := pass.Cfg.CodecLockPath
		if lockName == "" {
			lockName = ArtifactLockFile
		}
		for _, b := range pass.Cfg.SchemaBindings {
			if !pathMatches(pass.Pkg.Path, b.ConstPkg) {
				continue
			}
			constObj, ok := pass.Pkg.Types.Scope().Lookup(b.ConstName).(*types.Const)
			if !ok {
				pass.Reportf(packagePos(pass), "version constant %s bound by the schema lock not found in %s", b.ConstName, pass.Pkg.Path)
				continue
			}
			version, exact := constant.Int64Val(constant.ToInt(constObj.Val()))
			if !exact {
				pass.Reportf(constObj.Pos(), "version constant %s is not an integer", b.ConstName)
				continue
			}
			typeObj := BoundType(pass.Pkg.Types, b)
			if typeObj == nil {
				continue
			}
			fp := schema.Of(typeObj, schema.Options{OmitFields: b.OmitFields})
			entry := lock.Entry(fp.Type)
			switch {
			case entry == nil:
				pass.Reportf(constObj.Pos(), "codec-encoded %s has no entry in %s; run tableseglint -update-locks", fp.Type, lockName)
			case entry.Digest != fp.Digest && entry.Version == version:
				pass.Reportf(constObj.Pos(), "shape of codec-encoded %s changed (digest %s -> %s) but %s is still %d — bump it so stale cached artifacts become unreachable, then regenerate %s",
					fp.Type, short(entry.Digest), short(fp.Digest), b.ConstName, version, lockName)
			}
			// entry.Digest == fp.Digest: locked shape, any version. A
			// digest change with a bumped version is the sanctioned
			// evolution path; the lock itself is refreshed by
			// -update-locks and kept current by the CI lock-drift gate.
		}
	}
	return a
}

// BoundType resolves a binding's struct from pkg, the package
// declaring its version constant: in pkg's own scope, or through its
// transitive imports. It returns nil when pkg no longer reaches the
// type. -update-locks resolves bindings through it too, so the lock
// and the analyzer always fingerprint the same type.
func BoundType(pkg *types.Package, b SchemaBinding) *types.TypeName {
	if !pathMatches(pkg.Path(), b.TypePkg) {
		if pkg = findImport(pkg, b.TypePkg, map[string]bool{}); pkg == nil {
			return nil
		}
	}
	obj, _ := pkg.Scope().Lookup(b.TypeName).(*types.TypeName)
	return obj
}

// findImport walks pkg's import graph depth-first (source order, so
// deterministic) for a package whose path ends with the suffix.
func findImport(pkg *types.Package, suffix string, seen map[string]bool) *types.Package {
	for _, imp := range pkg.Imports() {
		if seen[imp.Path()] {
			continue
		}
		seen[imp.Path()] = true
		if pathMatches(imp.Path(), suffix) {
			return imp
		}
		if p := findImport(imp, suffix, seen); p != nil {
			return p
		}
	}
	return nil
}

// short abbreviates a digest for diagnostics.
func short(digest string) string {
	if len(digest) > 12 {
		return digest[:12]
	}
	return digest
}
