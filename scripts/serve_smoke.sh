#!/usr/bin/env sh
# Smoke test for crserve: drives one stdio session through every answer
# path (cold miss, exact-match cache hit, a textual variant's parse-path
# hit and its repeat's memo hit, the cached text escaped another way,
# a memoized literal under a duplicated key, malformed line, budget
# rejection),
# restarts on the session's --state and checks the snapshot it left is
# replayed and left byte-identical, checks the exit-code contract, and
# validates every
# response line through the same JSON grammar the telemetry export
# uses (`crserve --validate-jsonl`). Run from the repo root; the
# in-depth byte-identity assertions live in
# crates/service/tests/service_e2e.rs — this script is the fast
# shell-level gate wired into scripts/check.sh.
set -eu

cargo build --release -q -p clockroute-service
BIN=target/release/crserve
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

fail() {
    echo "serve_smoke: FAIL: $1" >&2
    exit 1
}

# Two-net scenario; literal \n stay escaped so they land inside the
# JSON string for the parser to decode.
SCEN='die 25mm 25mm\ngrid 12 12\nblock hard 4 4 6 6\nnet comb name=a src=0,0 dst=11,11\nnet reg name=b src=0,6 dst=11,6 period=2000\n'
# The same scenario with CRLF line ends: a different text, the same entry.
SCEN_CRLF=$(printf '%s' "$SCEN" | sed 's/\\n/\\r\\n/g')
# The same text with its newlines escaped as \u000a: other bytes on the
# wire, so the memo (which matches raw literals) leaves it to the parser.
SCEN_U=$(printf '%s' "$SCEN" | sed 's/\\n/\\u000a/g')

{
    printf '%s\n' '{"id":"p","op":"ping"}'
    printf '{"id":"r1","op":"route","scenario":"%s"}\n' "$SCEN"
    printf '{"id":"r2","op":"route","scenario":"%s"}\n' "$SCEN"
    printf '{"id":"r3","op":"route","scenario":"%s"}\n' "$SCEN_CRLF"
    printf '{"id":"r4","op":"route","scenario":"%s"}\n' "$SCEN_CRLF"
    printf '{"id":"r5","op":"route","scenario":"%s"}\n' "$SCEN_U"
    printf '{"id":"r6","op":"route","scenario":"%s","scenario":"%s"}\n' "$SCEN" "$SCEN"
    printf '%s\n' 'this is not json'
    printf '%s\n' '{"id":"s","op":"stats"}'
    printf '%s\n' '{"id":"q","op":"shutdown"}'
} > "$tmp/session.jsonl"

"$BIN" --quiet --metrics "$tmp/metrics.json" --state "$tmp/state" \
    < "$tmp/session.jsonl" > "$tmp/out.jsonl" \
    || fail "clean session exited non-zero"

[ "$(wc -l < "$tmp/out.jsonl")" -eq 10 ] || fail "expected 10 response lines"
"$BIN" --validate-jsonl < "$tmp/out.jsonl" || fail "responses are not valid JSONL"
# The metrics export is one pretty-printed object; joined onto a
# single line it is a one-line JSONL document.
tr -d '\n' < "$tmp/metrics.json" | "$BIN" --validate-jsonl \
    || fail "metrics file is not valid JSON"

grep -q '"pong"' "$tmp/out.jsonl" || fail "missing pong response"
grep -q '"cache":"cold"' "$tmp/out.jsonl" || fail "missing cold-path response"
grep -q '"cache":"hit"' "$tmp/out.jsonl" || fail "replay did not hit the cache"
grep -q '"status":"malformed"' "$tmp/out.jsonl" || fail "malformed line not reported"
# r3 (first CRLF send, parse path), r4 (its exact repeat, memo path)
# and r5 (the cached text re-escaped, parse path) are hits whose bytes
# equal r1's cold answer apart from id and label.
for n in 4 5 6; do
    sed -n "${n}p" "$tmp/out.jsonl" | grep -q '"cache":"hit"' \
        || fail "line $n was not a cache hit"
done
sed -n '2,6p' "$tmp/out.jsonl" | sed 's/"id":"r[0-9]"//; s/"cache":"[a-z]*"//' \
    | sort -u > "$tmp/answers.txt"
[ "$(wc -l < "$tmp/answers.txt")" -eq 1 ] || fail "hit bytes differ from the cold answer"
# r6 repeats the memoized literal under a duplicated key: the memo must
# not answer a line the parser rejects.
sed -n '7p' "$tmp/out.jsonl" | grep -q '"status":"malformed","error":"duplicate field `scenario`"' \
    || fail "duplicated scenario key was not malformed"
grep -q '"service.hits":4,' "$tmp/out.jsonl" || fail "stats did not count the four hits"
grep -q '"service.malformed":2,' "$tmp/out.jsonl" || fail "stats did not count the two malformed lines"
grep -q '"bye":true' "$tmp/out.jsonl" || fail "missing shutdown acknowledgement"

# Restart on the session's state: the snapshot its clean shutdown
# compacted replays whole, recovering the one entry, and is byte for
# byte the same afterwards.
cp "$tmp/state/cache.snap" "$tmp/before.snap"
printf '%s\n' '{"id":"s","op":"stats"}' '{"id":"q","op":"shutdown"}' > "$tmp/restart.jsonl"
"$BIN" --quiet --state "$tmp/state" < "$tmp/restart.jsonl" > "$tmp/restart_out.jsonl" \
    || fail "restart session exited non-zero"
cmp -s "$tmp/before.snap" "$tmp/state/cache.snap" || fail "restart changed the snapshot"
grep -q '"service.persist.recovered":1[,}]' "$tmp/restart_out.jsonl" \
    || fail "restart did not recover the session's entry"
grep -q '"service.persist.dropped":0[,}]' "$tmp/restart_out.jsonl" \
    || fail "restart dropped a record of a clean snapshot"

# Budget rejection: a 2-net scenario against --max-nets 1 must answer
# busy (and keep serving) rather than queue or die.
{
    printf '{"id":"r","op":"route","scenario":"%s"}\n' "$SCEN"
    printf '%s\n' '{"id":"q","op":"shutdown"}'
} > "$tmp/busy.jsonl"
"$BIN" --quiet --max-nets 1 < "$tmp/busy.jsonl" > "$tmp/busy_out.jsonl" \
    || fail "busy session exited non-zero"
grep -q '"status":"busy"' "$tmp/busy_out.jsonl" || fail "over-limit request not rejected busy"
"$BIN" --validate-jsonl < "$tmp/busy_out.jsonl" || fail "busy responses are not valid JSONL"

# Exit-code contract: unknown flags and unwritable metrics paths are
# usage errors (2), detected before any request is served.
if "$BIN" --definitely-not-a-flag < /dev/null > /dev/null 2>&1; then
    fail "unknown flag accepted"
fi
"$BIN" --definitely-not-a-flag < /dev/null > /dev/null 2>&1 || [ $? -eq 2 ] \
    || fail "unknown flag should exit 2"
"$BIN" --metrics "$tmp/no/such/dir/m.json" < /dev/null > /dev/null 2>&1 || [ $? -eq 2 ] \
    || fail "unwritable metrics path should exit 2"

echo "serve_smoke: OK"
