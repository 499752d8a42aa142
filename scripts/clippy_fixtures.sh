#!/usr/bin/env sh
# Fixture gate for the clippy half of the invariant rules (DESIGN.md
# §11): builds a throwaway crate from crlint's fixtures for the rules
# that clippy.toml carries and checks that clippy flags exactly their
# `BAD (line N)` lines — every one, and nothing on a GOOD line or in
# test code. Lines marked `BAD for crlint (line N)` are crlint's.
#
# clippy only warns when a clippy.toml path names nothing (and `-D
# warnings` does not promote that warning), so a misspelled path would
# silently drop its ban; this gate is what catches it. Run from the
# repo root; needs no network and no dependencies.
set -eu

root=$(pwd)
fixtures="$root/crates/lint/tests/fixtures"
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/src"
cat >"$tmp/Cargo.toml" <<'EOF'
[package]
name = "fixtures"
version = "0.0.0"
edition = "2021"
publish = false

[workspace]
EOF
{
    # Mirrors the workspace crate roots: test code is exempt.
    echo '#![allow(dead_code)]'
    echo '#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]'
} >"$tmp/src/lib.rs"
: >"$tmp/expected"
for n in 1 2 3 4 6 8; do
    f="cr00$n.rs"
    cp "$fixtures/$f" "$tmp/src/$f"
    echo "mod cr00$n;" >>"$tmp/src/lib.rs"
    grep -o 'BAD (line [0-9]*)' "$fixtures/$f" | sed "s/^BAD (line \([0-9]*\))$/$f:\1/" >>"$tmp/expected"
done
sort -u "$tmp/expected" -o "$tmp/expected"

# The lint levels of the workspace, at warn so every finding is listed.
if ! (cd "$tmp" && CLIPPY_CONF_DIR="$root" cargo clippy --offline -q --all-targets \
    --message-format=short -- -A clippy::all -W clippy::disallowed_methods \
    -W clippy::disallowed_types -W clippy::unwrap_used -W clippy::expect_used) \
    >"$tmp/out" 2>&1; then
    cat "$tmp/out" >&2
    echo "clippy_fixtures: FAIL: the fixture crate does not build" >&2
    exit 1
fi
sed -n 's/^src\/\(cr00[0-9]\.rs\):\([0-9]*\):[0-9]*: warning: .*/\1:\2/p' "$tmp/out" \
    | sort -u >"$tmp/got"
# Anything else clippy says (a clippy.toml path that names nothing, a
# lint outside the four) is a failure too.
if grep -v '^src/cr00[0-9]\.rs:[0-9]*:[0-9]*: warning: ' "$tmp/out" >"$tmp/other"; then
    cat "$tmp/other" >&2
    echo "clippy_fixtures: FAIL: unexpected clippy output" >&2
    exit 1
fi
if ! diff "$tmp/expected" "$tmp/got" >"$tmp/diff"; then
    echo "clippy_fixtures: FAIL: findings differ from the fixtures' BAD lines" >&2
    echo "(< expected but not flagged, > flagged but not BAD):" >&2
    cat "$tmp/diff" >&2
    exit 1
fi
echo "clippy_fixtures: $(wc -l <"$tmp/got") fixture lines flagged, as marked"
