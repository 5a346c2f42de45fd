#!/usr/bin/env bash
# End-to-end smoke test of the tablesegd daemon (CI's serve-smoke job,
# also runnable locally via `make serve-smoke`):
#
#   1. build tableseg + tablesegd and render one synthetic site;
#   2. start the daemon and wait for /healthz;
#   3. segment the site through `tableseg -remote` and assert the JSON
#      is byte-identical to the in-process `tableseg -json` run;
#   4. post a hand-written body that the client would never send
#      (extra whitespace, a case-folded key) and expect 200, then a
#      truncated body and expect 400 bad_request: the first decodes
#      through encoding/json, the client's bodies in one pass;
#   5. fire two concurrent identical requests, assert both outputs
#      equal the local run, and check /varz serves the request counters,
#      with the admission gate and its wait queue drained (inFlight and
#      queueDepth 0) and no response coalesced (coalesce reads zeros:
#      each request runs the engine itself);
#   6. SIGTERM the daemon and assert it drains cleanly (exit 0).
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:8899"
BASE="http://$ADDR"
tmp="$(mktemp -d)"
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null
    rm -rf "$tmp"
    return 0
}
trap cleanup EXIT

echo "serve-smoke: building"
go build -o "$tmp/tableseg" ./cmd/tableseg
go build -o "$tmp/tablesegd" ./cmd/tablesegd
go run ./cmd/sitegen -site allegheny -out "$tmp/corpus" >/dev/null

site="$tmp/corpus/allegheny"
args=(-list "$site/list1.html" -target 0)
i=1
while [ -f "$site/list1_detail$i.html" ]; do
    args+=(-detail "$site/list1_detail$i.html")
    i=$((i + 1))
done
echo "serve-smoke: site has $((i - 1)) detail pages"

echo "serve-smoke: local segmentation"
"$tmp/tableseg" "${args[@]}" -json >"$tmp/local.json"

echo "serve-smoke: starting tablesegd on $ADDR"
"$tmp/tablesegd" -addr "$ADDR" 2>"$tmp/daemon.log" &
daemon_pid=$!
for _ in $(seq 1 100); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then break; fi
    if ! kill -0 "$daemon_pid" 2>/dev/null; then
        echo "serve-smoke: daemon died during startup" >&2
        cat "$tmp/daemon.log" >&2
        exit 1
    fi
    sleep 0.1
done
curl -fsS "$BASE/healthz" | grep -q '^ok$'

echo "serve-smoke: remote segmentation"
"$tmp/tableseg" "${args[@]}" -json -remote "$BASE" >"$tmp/remote.json"
if ! diff -u "$tmp/local.json" "$tmp/remote.json"; then
    echo "serve-smoke: FAIL remote -json differs from local" >&2
    exit 1
fi
echo "serve-smoke: remote output byte-identical to local"

# jstr prints a file's contents as a JSON string (its final newline
# dropped), escaping only what JSON requires, unlike the Go client.
jstr() {
    printf '"'
    sed -e 's/\\/\\\\/g' -e 's/"/\\"/g' -e 's/\t/\\t/g' -e 's/\r/\\r/g' "$1" |
        awk 'BEGIN { ORS = "" } NR > 1 { print "\\n" } { print }'
    printf '"'
}

echo "serve-smoke: hand-written and truncated bodies"
{
    printf '{\n  "Method" : "csp" ,\n  "listPages" : [ { "name" : "list1.html" , "html" : '
    jstr "$site/list1.html"
    printf ' } ] ,\n  "target" : 0 ,\n  "detailPages" : [ '
    sep=""
    for ((k = 1; k < i; k++)); do
        printf '%s{ "html" : ' "$sep"
        jstr "$site/list1_detail$k.html"
        printf ' }'
        sep=" , "
    done
    printf ' ]\n}\n'
} >"$tmp/handwritten.json"
post() {
    curl -sS -o "$tmp/post.out" -w '%{http_code}' -H 'Content-Type: application/json' \
        --data-binary "@$1" "$BASE/v1/segment"
}
code=$(post "$tmp/handwritten.json")
if [ "$code" != 200 ] || ! grep -q '"method":"csp"' "$tmp/post.out"; then
    echo "serve-smoke: FAIL hand-written body: status $code, want 200 with method csp" >&2
    head -c 500 "$tmp/post.out" >&2
    exit 1
fi
head -c 200 "$tmp/handwritten.json" >"$tmp/truncated.json"
code=$(post "$tmp/truncated.json")
if [ "$code" != 400 ] || ! grep -q '"code":"bad_request"' "$tmp/post.out"; then
    echo "serve-smoke: FAIL truncated body: status $code, want 400 bad_request" >&2
    cat "$tmp/post.out" >&2
    exit 1
fi
echo "serve-smoke: hand-written body 200, truncated body 400 bad_request"

echo "serve-smoke: concurrent identical requests"
"$tmp/tableseg" "${args[@]}" -json -remote "$BASE" >"$tmp/r1.json" &
p1=$!
"$tmp/tableseg" "${args[@]}" -json -remote "$BASE" >"$tmp/r2.json" &
p2=$!
wait "$p1" "$p2"
for f in r1 r2; do
    if ! diff -u "$tmp/local.json" "$tmp/$f.json"; then
        echo "serve-smoke: FAIL concurrent response $f differs from local" >&2
        exit 1
    fi
done

echo "serve-smoke: checking /varz"
curl -fsS "$BASE/varz" >"$tmp/varz.json"
for field in '"requests"' '"stages"' '"tokenHits"'; do
    if ! grep -q "$field" "$tmp/varz.json"; then
        echo "serve-smoke: FAIL /varz missing $field" >&2
        cat "$tmp/varz.json" >&2
        exit 1
    fi
done
# Both responses are written, so the admission gate and its wait queue
# must have drained. The client's output drops the wire's "coalesced"
# flag, so the daemon's coalesce counters show that neither response
# carried it.
for gauge in '"inFlight":0' '"queueDepth":0' '"coalesce":{"hits":0,"misses":0,"inFlightKeys":0}'; do
    if ! grep -q "$gauge" "$tmp/varz.json"; then
        echo "serve-smoke: FAIL /varz does not read $gauge after the requests" >&2
        cat "$tmp/varz.json" >&2
        exit 1
    fi
done
total=$(sed -n 's/.*"total":\([0-9]*\).*/\1/p' "$tmp/varz.json" | head -1)
if [ -z "$total" ] || [ "$total" -lt 3 ]; then
    echo "serve-smoke: FAIL /varz total=$total, want >=3" >&2
    exit 1
fi

echo "serve-smoke: draining via SIGTERM"
kill -TERM "$daemon_pid"
drain_code=0
wait "$daemon_pid" || drain_code=$?
daemon_pid=""
if [ "$drain_code" -ne 0 ]; then
    echo "serve-smoke: FAIL daemon exited $drain_code after SIGTERM" >&2
    cat "$tmp/daemon.log" >&2
    exit 1
fi
grep -q 'drained' "$tmp/daemon.log"

echo "serve-smoke: PASS"
