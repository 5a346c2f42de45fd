#!/usr/bin/env bash
# Regenerates the checked-in reference outputs under results/ into a
# temporary directory and diffs them against the committed files (CI's
# results-check step, also runnable locally via `make results-check`).
# Every output is deterministic (fixed seeds), so any difference fails.
# results/scale.txt is skipped: its time column is wall-clock.
set -euo pipefail
cd "$(dirname "$0")/.."

tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

go build -o "$tmp/experiments" ./cmd/experiments
for t in 1 2 3 4; do
    "$tmp/experiments" -table "$t" > "$tmp/table$t.txt"
done
"$tmp/experiments" -ablations > "$tmp/ablations.txt"
"$tmp/experiments" -baselines > "$tmp/baselines.txt"
"$tmp/experiments" -extensions > "$tmp/extensions.txt"
"$tmp/experiments" -seeds 42,43,44,45 > "$tmp/seeds.txt"

status=0
for f in table1 table2 table3 table4 ablations baselines extensions seeds; do
    if ! diff -u "results/$f.txt" "$tmp/$f.txt"; then
        echo "results-check: results/$f.txt differs from a fresh run" >&2
        status=1
    fi
done
[ "$status" -eq 0 ] && echo "results-check: results/ matches a fresh run"
exit "$status"
