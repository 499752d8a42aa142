#!/usr/bin/env sh
# Full local gate: release build, the whole test suite in both profiles
# (debug catches debug_assert guards; release catches what CI ships), and
# clippy with warnings promoted to errors. Run from the repo root.
set -eu

# Format gate, scoped to the crates already formatted; it widens crate by
# crate until `cargo fmt --all --check` passes.
cargo fmt --check -p clockroute-plan -p clockroute-flow -p clockroute-grid
cargo build --release
# crlint first: the invariant gate (NaN-safe orderings, cancellable
# search loops, deterministic reports — see DESIGN.md §11) is cheaper
# than the test suite and its findings explain later failures.
cargo run --release -p clockroute-lint -- --workspace
cargo test --workspace -q
cargo test --workspace --release -q
# Lock-discipline gate: the service concurrency and chaos suites in the
# debug profile, where every OrderedMutex asserts rank monotonicity at
# runtime (lockcheck::ENABLED; see DESIGN.md §16). The workspace run
# above already covers these, but name them so a rank violation fails
# here with an obvious label rather than deep in a generic test wall.
cargo test -p clockroute-service -q --test service_concurrent --test service_chaos
# ThreadSanitizer pass when a nightly toolchain is available; a no-op
# with a notice otherwise (offline containers ship stable only).
sh scripts/tsan.sh
# Differential fuzz suite against the exhaustive oracles (fixed seeds,
# so a failure here reproduces exactly; see tests/differential.rs).
cargo test --release -q --test differential
# Flow-mode differential/metamorphic suite: uncongested scenarios must
# delegate byte-identically to the sequential planner, and the
# capacity-relaxation and net-permutation invariants must hold (see
# crates/flow/tests/flow_differential.rs and DESIGN.md §17).
cargo test --release -q -p clockroute-flow --test flow_differential
# Substrate counter gate: re-run the arena engine on small grids and
# fail unless every deterministic counter equals the last BENCH_core.json
# rows exactly (bootstrap runs with no baseline pass; see DESIGN.md §15).
cargo run --release -p clockroute-bench --bin corebench -- --check
# Flow quality gate: on every shipped congested scenario the flow
# planner must route all nets with strictly less overflow than the
# order-driven sequential plan (see DESIGN.md §17).
cargo run --release -p clockroute-bench --bin flowbench -- --check
# Benchmark build gate: perfbench is a separate package that imports
# the service, planner and telemetry APIs, so a change to one of them
# fails here rather than in a benchmark run.
cargo test --release --offline --manifest-path perfbench/Cargo.toml
# Service smoke: one crserve session through every answer path, JSONL
# validation, and the exit-code contract (see DESIGN.md §12).
sh scripts/serve_smoke.sh
# Chaos smoke: SIGKILL mid-burst + restart on the same --state dir,
# SIGTERM graceful drain, snapshot corruption, and a concurrent-client
# burst SIGKILLed mid-flight (see DESIGN.md §13–14).
sh scripts/chaos_smoke.sh
# --workspace: at the root, which is itself a package, plain
# `cargo clippy` would lint only that package and skip crates/*.
cargo clippy --workspace --all-targets -- -D warnings
