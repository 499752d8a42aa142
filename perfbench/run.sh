#!/usr/bin/env bash
# Builds crserve, crplan and the benchmark (release) from the checkout
# it is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload serve_hit --seed 7 --seconds 20 --trace 0
#
# Run it from the repository root. Build output goes to
# $CARGO_TARGET_DIR (default .bench_build); run-time files go under
# $CARGO_TARGET_DIR/perfbench-work and are removed at the end of a run.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p clockroute-service -p clockroute-cli --bins >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --bin-dir "$CARGO_TARGET_DIR/release" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" "$@"
