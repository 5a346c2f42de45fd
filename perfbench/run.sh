#!/usr/bin/env bash
# Builds the benchmark harness from this checkout and runs one workload:
#
#   bash perfbench/run.sh --workload paper-corpus --seed 1 --seconds 30 --trace 0
#
# The binary and its Go build cache live under .bench_build/ at the
# checkout root, so a run reads and writes nothing outside the checkout.
# The first run in a fresh checkout compiles the standard library into
# that cache; later runs reuse it.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/results/table4.txt" ]; then
    echo "perfbench: $root is not a checkout of the repository" >&2
    exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOENV=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
