# Convenience targets for the tableseg reproduction.

GO ?= go

.PHONY: all build test vet lint lint-sarif update-locks serve-smoke resume-smoke results-check check bench bench-stages bench-check experiments results corpus cover fuzz clean

all: build check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Project-specific static analysis over every package of the module
# (the analysis machinery, api/v1 and the daemon stack included):
# determinism, context discipline, error wrapping, float equality,
# stage purity, the CFG-based concurrency checks (goroleak,
# lockdiscipline, chancontract), the dataflow checks (rngflow,
# probflow, aliasflow), the interprocedural call-graph checks
# (ctxflow, httpresp) and the schema-lock drift checks (wiredrift,
# codecdrift) — see internal/analysis. Exits non-zero on any finding;
# only a //tableseglint:ignore directive with a reason suppresses one.
# One serial pass with nothing cached between runs: load and
# type-check, build the call-graph fact base, run the suite, report.
lint: vet
	$(GO) run ./cmd/tableseglint

# Machine-readable variant of the same gate: a SARIF 2.1.0 log
# (written to tableseglint.sarif, what the CI lint job uploads as an
# artifact). Exits 1 on findings, like lint.
lint-sarif: vet
	$(GO) run ./cmd/tableseglint -sarif > tableseglint.sarif

# Regenerate the two committed schema locks (lint/schema-apiv1.lock,
# lint/schema-artifacts.lock) from the live tree. Deterministic: a
# second run is a byte-identical no-op, which CI's lock-drift job
# checks with git diff. Refuses to rewrite breaking drift — restore
# the shape, start api/v2, or bump the codec version instead.
update-locks:
	$(GO) run ./cmd/tableseglint -update-locks

# End-to-end daemon smoke test: start tablesegd, segment a synthetic
# site through `tableseg -remote`, assert byte-identical output to the
# in-process path, check /healthz and /varz, drain via SIGTERM.
serve-smoke:
	./scripts/serve-smoke.sh

# End-to-end checkpoint/resume smoke test: run a batch over the
# synthetic corpus, kill -9 it mid-run, resume over the half-written
# cache with -resume, and assert the -json and -csv outputs are
# byte-identical to an uninterrupted reference run.
resume-smoke:
	./scripts/resume-smoke.sh

test: vet
	$(GO) test ./...

# Full gate: static analysis plus the test suite under the race
# detector (the batch engine is concurrent; this is the configuration
# CI runs).
check: lint
	$(GO) test -race ./...

# The paper's tables, figures, ablations, baselines and extensions.
experiments:
	$(GO) run ./cmd/experiments -all -seeds 42,43,44,45

# Regenerate the checked-in reference outputs under ./results.
results:
	$(GO) run ./cmd/experiments -table 1 > results/table1.txt
	$(GO) run ./cmd/experiments -table 2 > results/table2.txt
	$(GO) run ./cmd/experiments -table 3 > results/table3.txt
	$(GO) run ./cmd/experiments -table 4 > results/table4.txt
	$(GO) run ./cmd/experiments -ablations > results/ablations.txt
	$(GO) run ./cmd/experiments -baselines > results/baselines.txt
	$(GO) run ./cmd/experiments -extensions > results/extensions.txt
	$(GO) run ./cmd/experiments -scale > results/scale.txt
	$(GO) run ./cmd/experiments -seeds 42,43,44,45 > results/seeds.txt

# Regenerate every reference output under ./results except scale.txt
# (its time column is wall-clock) into a temporary directory and diff
# it against the committed files: any difference fails.
results-check:
	./scripts/results-check.sh

# The stage/solver microbenchmarks, as bench-check gates them: a fixed
# iteration count, and the garbage collector off in the test binary
# (GOGC=off through -exec, so the compiler keeps its GC). With the
# collector on, cycles landing at run-dependent moments shift a few
# allocations (Solver/probabilistic read 19,047-19,049 allocs/op over
# three runs); with it off, allocs/op repeat exactly.
STAGE_BENCH = $(GO) test -exec 'env GOGC=off' -bench '^(BenchmarkStage|BenchmarkSolver)' -benchtime 20x -benchmem -run '^$$' .

# One benchmark per table/figure (see DESIGN.md's index), plus the
# per-stage microbenchmarks. The stage/solver results are exported as
# BENCH_stages.json for structured regression diffs.
bench: bench-stages
	$(GO) test -bench=. -skip '^Benchmark(Stage|Solver)' -benchmem -run '^$$' .

# The stage/solver microbenchmarks alone, regenerating BENCH_stages.json.
# benchjson writes nothing when the run printed a FAIL line.
bench-stages:
	$(STAGE_BENCH) | $(GO) run ./cmd/benchjson -filter '^(Stage|Solver)' -out BENCH_stages.json

# Re-run the stage/solver microbenchmarks and diff against the
# committed BENCH_stages.json. Any allocs/op growth fails, and so does a
# FAIL line in the run or a committed benchmark missing from it; ns/op
# growth beyond the tolerance is printed but advisory (CI runners
# jitter). The committed file is left untouched.
bench-check:
	$(STAGE_BENCH) | $(GO) run ./cmd/benchjson -filter '^(Stage|Solver)' -baseline BENCH_stages.json -tolerance 30 -out /dev/null

# Render the synthetic twelve-site corpus to ./corpus.
corpus:
	$(GO) run ./cmd/sitegen -out corpus

cover:
	$(GO) test -cover ./...

# Short exploratory fuzzing of the HTML lexer and the tokenizer (both
# against their reference implementations), the extraction front end,
# the artifact codec (decode of arbitrary bytes must error, never
# panic; decodable artifacts must round-trip), the probabilistic
# solver (any valid instance must segment or error, never panic, and
# equal bit for bit the segmentation of the unpruned reference pass),
# every solver of internal/solvers (any small problem must segment,
# with no consecutiveness hole unless the solver is exhausted), the
# §6.3 column solve (stopped at the optimum its dynamic program
# proves, it must return a full WSAT run's columns, each record
# starting at column 0 and strictly increasing), the CSP relaxation
# ladder (each rung settled by exact search first, it must give the
# records, status and cut rounds of the ladder's reference search with
# no more flips) and the daemon's request decoder (on any bytes, the
# value and the error text of encoding/json).
fuzz:
	$(GO) test -fuzz=FuzzTokenize -fuzztime=30s ./internal/htmlx
	$(GO) test -fuzz=FuzzTokenizeMatchesReference -fuzztime=30s ./internal/token
	$(GO) test -fuzz=FuzzExtracts -fuzztime=30s ./internal/extract
	$(GO) test -fuzz=FuzzArtifactCodec -fuzztime=30s ./internal/stage
	$(GO) test -fuzz=FuzzSegment -fuzztime=30s ./internal/phmm
	$(GO) test -fuzz=FuzzSolve -fuzztime=30s ./internal/solvers
	$(GO) test -fuzz=FuzzAssignColumns -fuzztime=30s ./internal/csp
	$(GO) test -fuzz=FuzzSolveSegmentation -fuzztime=30s ./internal/csp
	$(GO) test -fuzz=FuzzDecodeSegmentRequest -fuzztime=30s ./api/v1

clean:
	rm -rf corpus
	rm -f tableseglint.sarif
