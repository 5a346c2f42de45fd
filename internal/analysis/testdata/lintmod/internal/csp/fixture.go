// Package csp is a lint fixture: its import path ends in
// internal/csp, so the determinism, ctxdiscipline and floateq
// analyzers all apply. Every planted violation carries a trailing
// `// want <analyzer> "<substring>"` expectation consumed by
// TestFixtureDiagnostics.
package csp

import (
	"context"
	"math/rand"
	"sort"
	"time"
)

// SolveBad is an exported solver entry point missing its context.
func SolveBad(n int) int { // want ctxdiscipline "SolveBad must take a context.Context"
	stamp := time.Now()  // want determinism "time.Now is nondeterministic"
	draw := rand.Intn(n) // want rngflow "top-level math/rand.Intn"
	return stamp.Nanosecond() + draw
}

// sharedRNG is a package-level generator: seeded or not, it is shared
// mutable state, so every call-site use is a provenance violation.
var sharedRNG = rand.New(rand.NewSource(1))

func drawShared(n int) int {
	return sharedRNG.Intn(n) // want rngflow "package-level generator"
}

func drawUnseeded(n int) int {
	var rng *rand.Rand
	return rng.Intn(n) // want rngflow "may be used unseeded"
}

// drawThreaded receives the generator as a parameter and passes it on
// through a local copy: both uses trace to the threaded source, clean.
func drawThreaded(rng *rand.Rand, n int) int {
	local := rng
	return local.Intn(n)
}

// reseeded is package-level, but drawReseeded overwrites it from a
// seeded constructor before its use: clean.
var reseeded *rand.Rand

func drawReseeded(n int) int {
	reseeded = rand.New(rand.NewSource(3))
	return reseeded.Intn(n)
}

// A package-level generator stays one through a local copy and as an
// argument.
func drawCopied(n int) int {
	local := sharedRNG
	return local.Intn(n) // want rngflow "package-level generator"
}

func drawPassed(n int) int {
	return drawThreaded(sharedRNG, n) // want rngflow "package-level generator"
}

// drawMaybeSeeded seeds on one branch only, so the nil declaration
// still reaches the use.
func drawMaybeSeeded(seed int64, n int) int {
	var rng *rand.Rand
	if seed != 0 {
		rng = rand.New(rand.NewSource(seed))
	}
	return rng.Intn(n) // want rngflow "may be used unseeded"
}

// drawAlwaysSeeded assigns on every path before the use: clean.
func drawAlwaysSeeded(seed int64, n int) int {
	var rng *rand.Rand
	if seed != 0 {
		rng = rand.New(rand.NewSource(seed))
	} else {
		rng = rand.New(rand.NewSource(1))
	}
	return rng.Intn(n)
}

// drawMixed may see the nil declaration or the package-level
// generator; the declaration is reported.
func drawMixed(shared bool, n int) int {
	var rng *rand.Rand
	if shared {
		rng = sharedRNG
	}
	return rng.Intn(n) // want rngflow "may be used unseeded"
}

type drawState struct{ rng *rand.Rand }

// drawViaCopies reaches its parameter through a parenthesized copy and
// through a struct field: clean.
func drawViaCopies(rng *rand.Rand, n int) int {
	paren := (rng)
	st := drawState{rng: rng}
	field := st.rng
	return paren.Intn(n) + field.Intn(n)
}

// SolveGood threads a context and seeds its own generator: clean.
func SolveGood(ctx context.Context, n int) int {
	if ctx.Err() != nil {
		return 0
	}
	rng := rand.New(rand.NewSource(7))
	return rng.Intn(n)
}

func mint() context.Context {
	return context.Background() // want ctxdiscipline "context.Background inside an internal package"
}

func mapOrder(m map[string]float64) ([]string, float64) {
	var keys []string
	var sum float64
	for k, v := range m {
		keys = append(keys, k) // sorted below: clean
		sum += v               // want determinism "floating-point accumulation into \"sum\""
	}
	sort.Strings(keys)
	var leak []float64
	for _, v := range m {
		leak = append(leak, v) // want determinism "append to \"leak\" inside range over map"
	}
	_ = leak
	return keys, sum
}

func floatCompare(a, b float64) bool {
	if a == b { // want floateq "== on floating-point operands"
		return true
	}
	return a != 0 // want floateq "!= on floating-point operands"
}

func constCompare() bool {
	return 1.5 == 1.5 // both operands constant: clean
}

func suppressed() time.Time {
	//tableseglint:ignore determinism fixture demonstrates the escape hatch
	return time.Now()
}
