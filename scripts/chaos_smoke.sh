#!/usr/bin/env sh
# Chaos smoke test for the crash-safe crserve (DESIGN.md §13): drive a
# burst of route requests over TCP against a --state directory, kill
# the process with SIGKILL mid-flight, restart it on the same state,
# and verify (a) every entry answered before the kill is recovered and
# answers byte-identically, and a torn record after them is compacted
# away before the restart listens, (b) a deliberately corrupted snapshot is
# dropped — the service re-solves instead of serving bad bytes, and
# (c) SIGTERM drains gracefully with exit 0. Run from the repo root;
# the in-depth fault-schedule assertions live in
# crates/service/tests/service_chaos.rs — this is the shell-level gate
# wired into scripts/check.sh.
set -eu

cargo build --release -q -p clockroute-service
BIN=target/release/crserve
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"; kill "$pid" 2>/dev/null || true' EXIT
pid=""

fail() {
    echo "chaos_smoke: FAIL: $1" >&2
    exit 1
}

# Starts crserve --tcp --state and records $pid and $addr.
start_server() {
    "$BIN" --tcp 127.0.0.1:0 --state "$tmp/state" --quiet 2> "$tmp/banner" &
    pid=$!
    # The stderr banner carries the bound address. Read only complete
    # (newline-terminated) lines: a read racing the write could see a
    # banner cut short.
    for _ in $(seq 1 100); do
        complete=$(wc -l < "$tmp/banner")
        addr=$(head -n "$complete" "$tmp/banner" |
            sed -n 's/^listening on \([^ ]*:[0-9][0-9]*\)$/\1/p' | head -n 1)
        [ -n "$addr" ] && return 0
        kill -0 "$pid" 2>/dev/null || fail "crserve died on startup"
        sleep 0.05
    done
    fail "no listening banner"
}

# Sends one request line over a fresh TCP connection and prints the
# one response line. Prints nothing if the connection is cut before a
# complete line arrives (a SIGKILL mid-burst may cost the response —
# it must never surface a torn one).
ask() {
    python3 - "$addr" "$1" <<'EOF'
import socket, sys
host, port = sys.argv[1].rsplit(":", 1)
buf = b""
try:
    s = socket.create_connection((host, int(port)), timeout=30)
    s.sendall((sys.argv[2] + "\n").encode())
    while not buf.endswith(b"\n"):
        chunk = s.recv(4096)
        if not chunk:
            break
        buf += chunk
except OSError:
    pass
if buf.endswith(b"\n"):
    sys.stdout.write(buf.decode())
EOF
}

SCEN1='die 25mm 25mm\ngrid 12 12\nblock hard 4 4 6 6\nnet comb name=a src=0,0 dst=11,11\nnet reg name=b src=0,6 dst=11,6 period=2000\n'
SCEN2='die 25mm 25mm\ngrid 12 12\nblock hard 7 4 9 6\nnet comb name=a src=0,0 dst=11,11\nnet reg name=b src=0,6 dst=11,6 period=2000\n'

route() {
    printf '{"id":"%s","op":"route","scenario":"%s"}' "$1" "$2"
}

# --- Burst, then SIGKILL. --------------------------------------------
start_server
r1=$(ask "$(route c1 "$SCEN1")")
r2=$(ask "$(route c2 "$SCEN2")")
echo "$r1" | grep -q '"status":"ok"' || fail "burst request 1 failed: $r1"
echo "$r2" | grep -q '"status":"ok"' || fail "burst request 2 failed: $r2"
kill -9 "$pid" || fail "SIGKILL"
wait "$pid" 2>/dev/null || true

# --- Restart: answered entries recovered, bytes identical. -----------
# A kill mid-append leaves a torn record: the start of a frame with no
# end. Startup drops it and compacts the log back to the answered
# records before it listens.
cp "$tmp/state/cache.snap" "$tmp/killed.snap"
tail -c +9 "$tmp/killed.snap" | head -c 32 >> "$tmp/state/cache.snap"
start_server
cmp -s "$tmp/killed.snap" "$tmp/state/cache.snap" \
    || fail "torn tail not compacted away on restart"
g1=$(ask "$(route c1 "$SCEN1")")
g2=$(ask "$(route c2 "$SCEN2")")
echo "$g1" | grep -q '"cache":"hit"' || fail "entry 1 lost across SIGKILL: $g1"
echo "$g2" | grep -q '"cache":"hit"' || fail "entry 2 lost across SIGKILL: $g2"
norm() { printf '%s' "$1" | sed 's/"cache":"[a-z]*"/"cache":"X"/'; }
[ "$(norm "$r1")" = "$(norm "$g1")" ] || fail "bytes changed across crash: $g1"
[ "$(norm "$r2")" = "$(norm "$g2")" ] || fail "bytes changed across crash: $g2"
stats=$(ask '{"op":"stats"}')
echo "$stats" | grep -q '"service.persist.recovered":2' \
    || fail "recovery count wrong: $stats"
echo "$stats" | grep -q '"service.persist.dropped":1[,}]' \
    || fail "torn tail not counted dropped: $stats"

# --- SIGTERM: graceful drain, exit 0, snapshot intact. ---------------
kill -TERM "$pid" || fail "SIGTERM"
rc=0
wait "$pid" || rc=$?
pid=""
[ "$rc" -eq 0 ] || fail "SIGTERM drain exited $rc, want 0"
[ -f "$tmp/state/cache.snap" ] || fail "snapshot missing after drain"

# --- Corruption: flipped byte is dropped, never served. --------------
python3 - "$tmp/state/cache.snap" <<'EOF'
import sys
path = sys.argv[1]
data = bytearray(open(path, "rb").read())
data[len(data) // 2] ^= 0x40
open(path, "wb").write(data)
EOF
start_server
c1=$(ask "$(route c1 "$SCEN1")")
echo "$c1" | grep -q '"status":"ok"' || fail "post-corruption request failed: $c1"
[ "$(norm "$r1")" = "$(norm "$c1")" ] || fail "corrupt state changed bytes: $c1"
stats=$(ask '{"op":"stats"}')
echo "$stats" | grep -q '"service.persist.dropped":[1-9]' \
    || fail "corrupt record not counted dropped: $stats"
bye=$(ask '{"op":"shutdown"}')
echo "$bye" | grep -q '"bye":true' || fail "shutdown not acknowledged: $bye"
wait "$pid" || fail "clean shutdown exited non-zero"
pid=""

# --- Concurrent burst, SIGKILL mid-flight, recover (DESIGN.md §14). --
# Eight parallel clients over two scenarios (duplicates exercise the
# single-flight path); answered ⟹ durable must hold for every response
# that completed before the kill, regardless of interleaving.
rm -rf "$tmp/state"
start_server
for i in 1 2 3 4 5 6 7 8; do
    case $i in 1|3|5|7) scen=$SCEN1 ;; *) scen=$SCEN2 ;; esac
    ask "$(route x "$scen")" > "$tmp/burst.$i" &
done
# Kill once at least two answers are out, so the SIGKILL lands with
# responses both before and (likely) still in flight.
for _ in $(seq 1 200); do
    landed=$(grep -l '"status":"ok"' "$tmp"/burst.* 2>/dev/null | wc -l)
    [ "$landed" -ge 2 ] && break
    sleep 0.05
done
kill -9 "$pid" || fail "SIGKILL mid-burst"
wait "$pid" 2>/dev/null || true
wait || true # collect the client jobs; cut connections print nothing

start_server
answered=0
for i in 1 2 3 4 5 6 7 8; do
    case $i in 1|3|5|7) scen=$SCEN1 ;; *) scen=$SCEN2 ;; esac
    line=$(cat "$tmp/burst.$i" 2>/dev/null || true)
    case $line in
        *'"status":"ok"'*)
            answered=$((answered + 1))
            again=$(ask "$(route x "$scen")")
            echo "$again" | grep -q '"cache":"hit"' \
                || fail "burst answer $i lost across SIGKILL: $again"
            [ "$(norm "$line")" = "$(norm "$again")" ] \
                || fail "burst bytes changed across crash: $again"
            ;;
    esac
done
[ "$answered" -ge 1 ] || fail "no burst response completed before SIGKILL"
bye=$(ask '{"op":"shutdown"}')
echo "$bye" | grep -q '"bye":true' || fail "shutdown not acknowledged: $bye"
wait "$pid" || fail "clean shutdown exited non-zero"
pid=""

echo "chaos_smoke: OK"
