// Package analysis implements tableseglint, the repository's own
// static-analysis suite. The reproduction's headline guarantee —
// byte-identical Table 1–4 output across worker counts and seeds —
// rests on a handful of coding invariants (no wall-clock or unseeded
// randomness in solver paths, no map-iteration order leaking into
// results, contexts threaded rather than minted, errors wrapped so
// sentinel classification survives, goroutines and locks that provably
// wind down) that ordinary Go tooling does not enforce. The fifteen
// analyzers in this package check them mechanically over the parsed
// and type-checked source of every package, using only the standard
// library (go/parser, go/ast, go/types). Five are expression-level;
// the three concurrency analyzers (goroleak, lockdiscipline,
// chancontract) run over the intra-procedural control-flow graphs of
// internal/analysis/cfg, so "on every path" facts — a channel closed,
// a mutex released — are proved rather than pattern-matched; the
// three dataflow analyzers (rngflow, probflow, aliasflow) run the
// worklist solver of internal/analysis/dataflow over those same
// graphs, so "where did this value come from?" facts — RNG
// provenance, probability taint, input aliasing — are answered by one
// taint-propagation lattice rather than syntax; the two
// interprocedural analyzers (ctxflow, httpresp), and
// lockdiscipline for the calls it finds inside a critical section,
// consume the whole-module call graph and per-function summaries of
// internal/analysis/callgraph, so a context dropped one call deep, a
// lock held across a helper that blocks, or a handler that forgets to
// respond on an error path are caught across function boundaries;
// and the two schema-lock analyzers (wiredrift, codecdrift) compare
// structural type fingerprints from internal/analysis/schema against
// committed lock files, so wire-surface and codec-version drift is
// caught before it corrupts caches or clients.
//
// The analyzers are:
//
//   - determinism: forbids time.Now in the solver packages, and flags
//     range-over-map loops that accumulate into order-sensitive state
//     (appends, floating-point running sums) without a subsequent
//     sort.
//   - ctxdiscipline: forbids context.Background/context.TODO inside
//     internal packages (only the root package's compatibility
//     wrappers may mint contexts) and requires exported
//     pipeline/solver entry points to take a context.Context first.
//   - errwrap: requires %w for error operands of fmt.Errorf, and
//     requires errors returned across internal/core's boundary to
//     wrap a declared sentinel.
//   - floateq: forbids ==/!= on floating-point operands in the
//     numeric solver packages (phmm, csp).
//   - stagepurity: enforces the stage-graph layering — stage packages
//     may not import algorithm, solver or orchestration packages, and
//     solver packages may not import orchestration packages.
//   - goroleak: every goroutine launched in an exported function must
//     have a provable exit path — it ranges over (or receives from) a
//     channel closed on all CFG paths, receives from ctx.Done(), does
//     no blocking work at all, or only joins other goroutines.
//   - lockdiscipline: a sync.Mutex/RWMutex acquired in a function must
//     be released on every path out of it (defer unlock or per-path
//     unlock) and may not be held across a may-block operation — one
//     in the critical section itself (channel send/receive, blocking
//     select, wg.Wait, once.Do, another lock, solver invocation) or a
//     call to a module-local helper whose call-graph summary may
//     block, so hiding the operation one call deep does not silence
//     it.
//   - chancontract: a channel returned by an exported function must be
//     closed by its producer, exactly once, only after joining any
//     other senders; no function closes a channel it received as a
//     parameter.
//   - rngflow: no *rand.Rand used at a call site in the solver
//     packages may carry taint from a package-level generator (not
//     overwritten in the function) or from a declaration without a
//     value; seeded constructors, parameters and other threaded
//     sources carry none. Top-level math/rand functions are forbidden
//     anywhere under internal/.
//   - probflow: float values tainted as probabilities (model tables,
//     forward–backward messages) may not flow into a division,
//     math.Log, or an ordered comparison of two tainted operands
//     without first passing a zeroProb-style sanitizer or a guard
//     comparison against a constant.
//   - aliasflow: an exported stage-shaped function (context first,
//     error last) may not return an artifact that aliases a mutable
//     input parameter — slice, map or pointer storage must be copied,
//     not retained — making stagepurity's import-level purity hold at
//     the value level.
//   - ctxflow: interprocedural context threading — in the serving and
//     solver packages, a function holding a context.Context must pass
//     a context derived from it into every call whose summary says
//     the callee may park indefinitely (and may not time.Sleep, which
//     no context interrupts).
//   - httpresp: the handler contract — a handler-shaped function must
//     respond on every path (each error branch writes or delegates to
//     something that provably writes), sets the status at most once
//     per path, and does not mutate headers after the body starts.
//   - wiredrift: the api/v1 wire surface is append-only within v1 —
//     every exported wire type is pinned field-by-field in the
//     committed lint/schema-apiv1.lock; removals, renames, retypes,
//     retags and reorders are findings, and pure additions are
//     findings until the lock is regenerated with -update-locks.
//   - codecdrift: every struct the artifact codec encodes is bound to
//     its version constant in lint/schema-artifacts.lock — a shape
//     change while the constant still holds the locked value is a
//     finding (stale cached artifacts would decode wrong), and a
//     version bump clears it.
//
// A diagnostic can be suppressed only by a "//tableseglint:ignore
// <name> <reason>" comment on the same line or the line above; there
// is no baseline file. The reason is mandatory — a directive without
// one does not suppress anything — <name> must be an analyzer of the
// suite, and the directive is expected to be rare (epsilon-comparison
// helpers and deliberately caller-managed channels are the intended
// uses).
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"tableseg/internal/analysis/callgraph"
	"tableseg/internal/analysis/schema"
)

// Diagnostic is one finding, positioned for file:line reporting.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s [%s]", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Analyzer is one named check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries one analyzer's run over one package and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	Cfg      Config
	// Facts is the summarized call graph (BuildFacts) that Run's caller
	// supplies. It is never nil.
	Facts *callgraph.Graph
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Pkg.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Config scopes the analyzers to sets of packages. Packages are
// matched by import-path suffix (a whole trailing path segment
// sequence, e.g. "internal/csp" matches "tableseg/internal/csp"), so
// the same analyzers run unchanged over the real tree and over the
// fixture packages under testdata.
type Config struct {
	// DeterminismPkgs are the packages where time.Now and
	// order-sensitive map iteration are forbidden.
	DeterminismPkgs []string
	// FloatEqPkgs are the packages where ==/!= on floats is forbidden.
	FloatEqPkgs []string
	// EntryPointPkgs are the packages whose exported Segment*/Solve*/
	// Fit*/Run* functions must take a context.Context first.
	EntryPointPkgs []string
	// CorePkg is the package whose exported functions must return
	// sentinel-wrapped errors.
	CorePkg string
	// StagePkgs are the stage-graph packages that must stay
	// algorithm-agnostic: they may import none of AlgorithmPkgs,
	// SolverPkgs or OrchestrationPkgs.
	StagePkgs []string
	// AlgorithmPkgs are the segmentation-algorithm packages that only
	// solver adapters (and orchestration) may import.
	AlgorithmPkgs []string
	// SolverPkgs are the solver adapter packages: they may import the
	// artifact types and the algorithm packages but none of
	// OrchestrationPkgs.
	SolverPkgs []string
	// OrchestrationPkgs are the pipeline-orchestration packages, off
	// limits to both stages and solvers.
	OrchestrationPkgs []string
	// RNGPkgs are the packages where rngflow taints package-level
	// generators and *rand.Rand declarations without a value, and
	// reports every call site either may reach.
	RNGPkgs []string
	// ProbPkgs are the packages where probflow tracks probability
	// taint into division, math.Log and comparison sinks.
	ProbPkgs []string
	// ProbSources are the identifier and field names whose
	// float-carrying values are tainted as probabilities (model tables
	// and forward–backward messages).
	ProbSources []string
	// ProbSourceCalls are the function/method names whose results are
	// probabilities.
	ProbSourceCalls []string
	// ProbSanitizers are the function names that validate a
	// probability (zero guards, clamps); passing a value through one
	// clears its taint.
	ProbSanitizers []string
	// AliasPkgs are the packages whose exported stage-shaped functions
	// (context first, error last) may not return artifacts aliasing
	// their mutable inputs.
	AliasPkgs []string
	// CtxFlowPkgs are the packages where ctxflow requires a held
	// context.Context to reach every call whose callee may park
	// indefinitely — the serving path and the solver pipeline.
	CtxFlowPkgs []string
	// WirePkg is the versioned wire package whose exported types must
	// stay append-only within their version (wiredrift).
	WirePkg string
	// WireLock is the parsed committed wire-surface lock; nil disables
	// wiredrift. WireLockPath names the file in diagnostics.
	WireLock     *schema.Lock
	WireLockPath string
	// SchemaBindings bind codec-encoded struct shapes to version
	// constants (codecdrift).
	SchemaBindings []SchemaBinding
	// CodecLock is the parsed committed artifact-shape lock; nil
	// disables codecdrift. CodecLockPath names the file in diagnostics.
	CodecLock     *schema.Lock
	CodecLockPath string
}

// SchemaBinding ties one codec-encoded struct to the version constant
// that must be bumped when its shape changes. The check runs in the
// package defining the constant (ConstPkg), which resolves the type
// through its own scope or imports.
type SchemaBinding struct {
	// ConstPkg is the import-path suffix of the package declaring the
	// version constant; ConstName the constant (may be unexported —
	// the analyzer looks it up in the package's own scope).
	ConstPkg  string
	ConstName string
	// TypePkg and TypeName identify the encoded struct.
	TypePkg  string
	TypeName string
	// OmitFields are top-level fields the codec deliberately does not
	// serialize, excluded from the fingerprint.
	OmitFields []string
}

// DefaultConfig is the project policy enforced by cmd/tableseglint.
func DefaultConfig() Config {
	return Config{
		DeterminismPkgs: []string{
			"internal/csp", "internal/phmm", "internal/core",
			"internal/engine", "internal/experiments",
			"internal/stage", "internal/solvers",
		},
		FloatEqPkgs: []string{"internal/phmm", "internal/csp"},
		EntryPointPkgs: []string{
			"internal/core", "internal/csp", "internal/phmm",
			"internal/engine", "internal/experiments",
			"internal/stage", "internal/solvers",
		},
		CorePkg:       "internal/core",
		StagePkgs:     []string{"internal/stage"},
		AlgorithmPkgs: []string{"internal/csp", "internal/phmm", "internal/baseline"},
		SolverPkgs:    []string{"internal/solvers"},
		OrchestrationPkgs: []string{
			"internal/core", "internal/engine", "internal/experiments",
		},
		RNGPkgs: []string{
			"internal/csp", "internal/phmm", "internal/core",
			"internal/engine", "internal/experiments",
			"internal/stage", "internal/solvers", "internal/sitegen",
		},
		ProbPkgs: []string{"internal/phmm"},
		ProbSources: []string{
			"Theta", "Trans", "Pi",
			"alpha", "beta", "gamma", "emis",
			"colMass", "endC", "typeTrue", "xiCont",
		},
		ProbSourceCalls: []string{
			"emitType", "evidence", "hazard", "startWeight",
		},
		ProbSanitizers: []string{"zeroProb", "maxf"},
		AliasPkgs:      []string{"internal/stage", "internal/solvers"},
		CtxFlowPkgs: []string{
			"internal/server", "internal/server/client", "internal/engine",
			"internal/core", "internal/solvers", "internal/stage",
		},
		WirePkg:       "api/v1",
		WireLockPath:  WireLockFile,
		CodecLockPath: ArtifactLockFile,
		// The structs the artifact codec serializes (stage/codec.go:
		// tokens, template, result) are bound to stage.CodecVersion;
		// the engine's journal envelope — the Segmentation fields
		// encodeSegmentation writes, PHMM deliberately excluded — to
		// the journal's own envelope version.
		SchemaBindings: []SchemaBinding{
			{ConstPkg: "internal/stage", ConstName: "CodecVersion", TypePkg: "internal/token", TypeName: "Token"},
			{ConstPkg: "internal/stage", ConstName: "CodecVersion", TypePkg: "internal/pagetemplate", TypeName: "TemplateData"},
			{ConstPkg: "internal/stage", ConstName: "CodecVersion", TypePkg: "internal/stage", TypeName: "Record"},
			{ConstPkg: "internal/engine", ConstName: "resultEnvelopeVersion", TypePkg: "internal/core", TypeName: "Segmentation", OmitFields: []string{"PHMM"}},
		},
	}
}

// pathMatches reports whether pkgPath ends with the suffix pattern on
// a path-segment boundary.
func pathMatches(pkgPath, suffix string) bool {
	if pkgPath == suffix {
		return true
	}
	return strings.HasSuffix(pkgPath, "/"+suffix)
}

func matchesAny(pkgPath string, suffixes []string) bool {
	for _, s := range suffixes {
		if pathMatches(pkgPath, s) {
			return true
		}
	}
	return false
}

// isInternal reports whether pkgPath lies under an internal/ element —
// the scope of the context-minting ban.
func isInternal(pkgPath string) bool {
	return strings.Contains(pkgPath, "/internal/") ||
		strings.HasPrefix(pkgPath, "internal/") ||
		strings.HasSuffix(pkgPath, "/internal") ||
		pkgPath == "internal"
}

// Suite returns the fifteen analyzers: the five expression-level
// checks, the three CFG-based concurrency checks, the three dataflow
// checks built on internal/analysis/dataflow, the two
// interprocedural checks built on internal/analysis/callgraph, and
// the two schema-lock checks built on internal/analysis/schema. The
// order is fixed — registration is this literal, never init-order or
// map-iteration dependent — because the -list output and the SARIF
// rules table both derive from it.
func Suite() []*Analyzer {
	return []*Analyzer{
		Determinism(),
		CtxDiscipline(),
		ErrWrap(),
		FloatEq(),
		StagePurity(),
		GoroLeak(),
		LockDiscipline(),
		ChanContract(),
		RNGFlow(),
		ProbFlow(),
		AliasFlow(),
		CtxFlow(),
		HTTPResp(),
		WireDrift(),
		CodecDrift(),
	}
}

// BuildFacts constructs and summarizes the call graph over pkgs — the
// shared fact base the interprocedural analyzers consume. Handing it
// every loaded package of the module yields whole-module resolution;
// the graph is read-only after this returns.
func BuildFacts(pkgs []*Package) *callgraph.Graph {
	srcs := make([]callgraph.Source, 0, len(pkgs))
	for _, p := range pkgs {
		srcs = append(srcs, callgraph.Source{
			Path:  p.Path,
			Files: p.Files,
			Info:  p.Info,
			Types: p.Types,
		})
	}
	g := callgraph.Build(srcs)
	g.Summarize()
	return g
}

// Run executes analyzers over pkg against the fact base facts and
// returns the surviving (non-suppressed) diagnostics sorted by
// position. The driver builds facts once over every package it loaded;
// a single-package caller passes BuildFacts([]*Package{pkg}).
func Run(pkg *Package, cfg Config, analyzers []*Analyzer, facts *callgraph.Graph) []Diagnostic {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{Analyzer: a, Pkg: pkg, Cfg: cfg, Facts: facts}
		a.Run(pass)
		out = append(out, pass.diags...)
	}
	out = filterSuppressed(pkg, out)
	SortDiagnostics(out)
	return out
}

// SortDiagnostics orders diagnostics by file, line, column and
// analyzer name. Run applies it per package; the CLI re-applies it
// across packages so multi-package output is one deterministic
// file:line sequence regardless of package load order.
func SortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

const ignoreDirective = "tableseglint:ignore"

// parseIgnore reports whether c is an ignore directive and returns the
// words after it: the analyzer name, then the reason.
func parseIgnore(c *ast.Comment) (fields []string, ok bool) {
	text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
	if !strings.HasPrefix(text, ignoreDirective) {
		return nil, false
	}
	return strings.Fields(strings.TrimPrefix(text, ignoreDirective)), true
}

// filterSuppressed drops diagnostics covered by an ignore directive on
// the same line or the line immediately above.
func filterSuppressed(pkg *Package, diags []Diagnostic) []Diagnostic {
	// ignored[file][line] = set of analyzer names suppressed there.
	ignored := map[string]map[int]map[string]bool{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields, ok := parseIgnore(c)
				if !ok || len(fields) < 2 {
					// The reason is mandatory: a bare
					// "//tableseglint:ignore determinism" suppresses
					// nothing, so unexplained exceptions cannot
					// accumulate.
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				byLine := ignored[pos.Filename]
				if byLine == nil {
					byLine = map[int]map[string]bool{}
					ignored[pos.Filename] = byLine
				}
				// The directive covers its own line and the next, so it
				// works both trailing a statement and on its own line.
				for _, line := range []int{pos.Line, pos.Line + 1} {
					if byLine[line] == nil {
						byLine[line] = map[string]bool{}
					}
					byLine[line][fields[0]] = true
				}
			}
		}
	}
	kept := diags[:0]
	for _, d := range diags {
		if ignored[d.Pos.Filename][d.Pos.Line][d.Analyzer] {
			continue
		}
		kept = append(kept, d)
	}
	return kept
}

// pkgNameOf resolves an identifier to the imported package it names,
// or "" if it is not a package qualifier.
func (p *Pass) pkgNameOf(id *ast.Ident) string {
	if obj, ok := p.Pkg.Info.Uses[id]; ok {
		if pn, ok := obj.(*types.PkgName); ok {
			return pn.Imported().Path()
		}
	}
	return ""
}
