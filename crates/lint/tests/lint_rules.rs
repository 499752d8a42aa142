//! Fixture-based rule tests: every rule CR000–CR007 must fire on its
//! known-bad snippet at the documented file:line, and stay silent on
//! the good patterns embedded in the same fixtures.
//!
//! Fixtures live under `tests/fixtures/` (excluded from the workspace
//! walk — they are data, not code) and are linted under an
//! *impersonated* workspace-relative path so each rule's scope logic
//! is exercised too.

use clockroute_lint::lint_source;
use std::path::Path;

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {name}: {e}"))
}

/// Lints fixture `name` as if it lived at `rel`, returning
/// `(rule, line)` pairs in report order.
fn run(name: &str, rel: &str) -> Vec<(String, u32)> {
    lint_source(rel, &fixture(name))
        .into_iter()
        .map(|f| (f.rule, f.line))
        .collect()
}

#[test]
fn cr001_fires_on_nan_unsound_orderings() {
    // Anywhere in non-test code; impersonate a core source file.
    let got = run("cr001.rs", "crates/core/src/engine.rs");
    assert_eq!(
        got,
        [
            ("CR001".to_string(), 15), // impl PartialOrd without delegation
            ("CR001".to_string(), 18), // .partial_cmp( inside it
            ("CR001".to_string(), 24), // sort_by footgun
        ],
        "{got:?}"
    );
}

#[test]
fn cr001_is_silent_once_the_delegation_exists() {
    // The same fixture keeps a canonical `Good` impl: no findings for it.
    let src = fixture("cr001.rs");
    let good_only = &src[src.find("struct Good").expect("fixture marker")..];
    assert!(lint_source("crates/core/src/engine.rs", good_only).is_empty());
}

#[test]
fn cr002_fires_in_core_crates_only() {
    let got = run("cr002.rs", "crates/elmore/src/gate.rs");
    assert_eq!(
        got,
        [("CR002".to_string(), 5), ("CR002".to_string(), 7)],
        "{got:?}"
    );
    // The flow crate joined the unwrap-free set in PR 10.
    let flow = run("cr002.rs", "crates/flow/src/lib.rs");
    assert_eq!(flow.len(), 2, "{flow:?}");
    // Same file outside the algorithmic crates: out of scope.
    assert!(run("cr002.rs", "crates/bench/src/lib.rs").is_empty());
    // Same file in a tests/ directory: test scope.
    assert!(run("cr002.rs", "crates/core/tests/x.rs").is_empty());
}

#[test]
fn cr003_fires_outside_the_clock_seams() {
    let got = run("cr003.rs", "crates/core/src/rbp.rs");
    assert_eq!(
        got,
        [("CR003".to_string(), 6), ("CR003".to_string(), 8)],
        "{got:?}"
    );
    // The three allowlisted files may read clocks.
    assert!(run("cr003.rs", "crates/core/src/budget.rs").is_empty());
    assert!(run("cr003.rs", "crates/core/src/telemetry.rs").is_empty());
    assert!(run("cr003.rs", "crates/service/src/admission.rs").is_empty());
    // The rest of the service crate stays clock-free.
    let got = run("cr003.rs", "crates/service/src/server.rs");
    assert_eq!(got.len(), 2, "{got:?}");
}

#[test]
fn cr004_fires_on_threads_and_static_mut() {
    let got = run("cr004.rs", "crates/core/src/fastpath.rs");
    assert_eq!(
        got,
        [
            ("CR004".to_string(), 5),  // static mut
            ("CR004".to_string(), 9),  // thread::spawn
            ("CR004".to_string(), 12), // thread::scope
        ],
        "{got:?}"
    );
    // The planner and the service connection loop may create threads —
    // but static mut stays banned in both.
    let plan = run("cr004.rs", "crates/plan/src/lib.rs");
    assert_eq!(plan, [("CR004".to_string(), 5)], "{plan:?}");
    let server = run("cr004.rs", "crates/service/src/server.rs");
    assert_eq!(server, [("CR004".to_string(), 5)], "{server:?}");
    // The bounded worker pool is an allowed spawn site too.
    let pool = run("cr004.rs", "crates/service/src/pool.rs");
    assert_eq!(pool, [("CR004".to_string(), 5)], "{pool:?}");
    // Other service modules stay thread-free.
    let cache = run("cr004.rs", "crates/service/src/cache.rs");
    assert_eq!(cache.len(), 3, "{cache:?}");
}

#[test]
fn cr005_fires_on_uncharged_queue_loops() {
    let got = run("cr005.rs", "crates/core/src/gals.rs");
    // Line 6: the classic uncharged loop. Line 52: the arena-substrate
    // shape (pop → dead-skip → expand) without a charge — the dead-skip
    // alone must not read as cancellable. The charged arena loop and the
    // suppressed bounded drain in the same fixture must stay clean.
    assert_eq!(
        got,
        [("CR005".to_string(), 6), ("CR005".to_string(), 52)],
        "{got:?}"
    );
    // The flow oracle's priced Dijkstra is held to the same bar.
    let flow = run("cr005.rs", "crates/flow/src/price.rs");
    assert_eq!(
        flow,
        [("CR005".to_string(), 6), ("CR005".to_string(), 52)],
        "{flow:?}"
    );
    // Outside the search modules the rule is out of scope.
    assert!(run("cr005.rs", "crates/core/src/engine.rs").is_empty());
}

#[test]
fn cr006_fires_on_unordered_collections_in_report_modules() {
    let got = run("cr006.rs", "crates/grid/src/render.rs");
    assert_eq!(
        got,
        [
            ("CR006".to_string(), 3),
            ("CR006".to_string(), 5),
            ("CR006".to_string(), 11),
        ],
        "{got:?}"
    );
    // The service's response-building modules are held to the same bar.
    let got = run("cr006.rs", "crates/service/src/protocol.rs");
    assert_eq!(got.len(), 3, "{got:?}");
    // So are the flow crate's plan/report modules (PR 10): their
    // congestion section is byte-compared across runs and --jobs.
    assert_eq!(run("cr006.rs", "crates/flow/src/lib.rs").len(), 3);
    assert_eq!(run("cr006.rs", "crates/flow/src/report.rs").len(), 3);
    // A non-report module may use HashMap (e.g. the reference oracles).
    assert!(run("cr006.rs", "crates/core/src/reference.rs").is_empty());
}

#[test]
fn cr007_fires_on_unbounded_service_reads() {
    let got = run("cr007.rs", "crates/service/src/server.rs");
    assert_eq!(
        got,
        [
            ("CR007".to_string(), 4),  // BufRead::lines
            ("CR007".to_string(), 13), // read_line
            ("CR007".to_string(), 19), // UFCS read_to_string
        ],
        "{got:?}"
    );
    // The bounded reader itself is the exemption.
    assert!(run("cr007.rs", "crates/service/src/frame.rs").is_empty());
    // Outside the service crate the rule is out of scope.
    assert!(run("cr007.rs", "crates/cli/src/lib.rs").is_empty());
    // Integration tests of the service crate are test scope by path.
    assert!(run("cr007.rs", "crates/service/tests/x.rs").is_empty());
}

#[test]
fn cr008_fires_on_raw_sync_primitives_in_threaded_crates() {
    let got = run("cr008.rs", "crates/core/src/engine.rs");
    assert_eq!(
        got,
        [
            ("CR008".to_string(), 6), // Mutex::new
            ("CR008".to_string(), 7), // RwLock::new
            ("CR008".to_string(), 8), // Condvar::new
        ],
        "{got:?}"
    );
    // The checked-lock module itself is the one exemption.
    assert!(run("cr008.rs", "crates/core/src/lockcheck.rs").is_empty());
    // Outside the threaded crates the rule is out of scope.
    assert!(run("cr008.rs", "crates/cli/src/lib.rs").is_empty());
    // Integration tests are test scope by path.
    assert!(run("cr008.rs", "crates/service/tests/x.rs").is_empty());
}

#[test]
fn cr009_fires_on_computed_ranks_and_escaping_guards() {
    let got = run("cr009.rs", "crates/service/src/shard.rs");
    assert_eq!(
        got,
        [
            ("CR009".to_string(), 9),  // computed rank argument
            ("CR009".to_string(), 13), // returning a .lock( guard
            ("CR009".to_string(), 17), // MutexGuard named in a field
        ],
        "{got:?}"
    );
    assert!(run("cr009.rs", "crates/core/src/lockcheck.rs").is_empty());
    assert!(run("cr009.rs", "crates/bench/src/lib.rs").is_empty());
}

#[test]
fn cr010_fires_on_waits_with_extra_guards_live() {
    let got = run("cr010.rs", "crates/service/src/pool.rs");
    assert_eq!(
        got,
        [
            ("CR010".to_string(), 8),  // wait while `outer` is live
            ("CR010".to_string(), 31), // wait_timeout while `held` is live
        ],
        "{got:?}"
    );
    assert!(run("cr010.rs", "crates/core/src/lockcheck.rs").is_empty());
    assert!(run("cr010.rs", "crates/cli/src/main.rs").is_empty());
}

#[test]
fn cr000_requires_reason_and_known_rule() {
    let got = run("cr000.rs", "crates/core/src/x.rs");
    assert_eq!(
        got,
        [
            ("CR000".to_string(), 4),  // allow without reason…
            ("CR002".to_string(), 5),  // …suppresses nothing
            ("CR000".to_string(), 14), // unknown rule id
        ],
        "{got:?}"
    );
}

// ---------------------------------------------------------------------
// Acceptance: mutating the *real* sources must fail the gate.
// ---------------------------------------------------------------------

fn real_source(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {rel}: {e}"))
}

#[test]
fn deleting_the_total_cmp_delegation_fails_cr001() {
    for rel in ["crates/grid/src/dijkstra.rs", "crates/flow/src/price.rs"] {
        let src = real_source(rel);
        // The file as shipped is clean.
        assert!(
            lint_source(rel, &src).is_empty(),
            "{rel} should be crlint-clean as shipped"
        );
        // Delete the total-order delegation, as a careless refactor would.
        let broken = src.replace("Some(self.cmp(other))", "None");
        assert_ne!(src, broken, "{rel} lost its delegation anchor");
        let findings = lint_source(rel, &broken);
        assert!(
            findings.iter().any(|f| f.rule == "CR001"),
            "removing total_cmp from {rel} must trip CR001: {findings:?}"
        );
    }
}

#[test]
fn deleting_a_budget_charge_fails_cr005() {
    // Every CR005 file is clean as shipped, the four search modules
    // included: they hold no queue loop of their own, only the hooks the
    // driver calls.
    for rel in [
        "crates/core/src/search.rs",
        "crates/core/src/fastpath.rs",
        "crates/core/src/rbp.rs",
        "crates/core/src/gals.rs",
        "crates/core/src/latch.rs",
        "crates/flow/src/price.rs",
    ] {
        let src = real_source(rel);
        assert!(
            lint_source(rel, &src).is_empty(),
            "{rel} should be crlint-clean as shipped"
        );
    }
    // The files that hold the loops trip the rule once their charges go.
    for rel in ["crates/core/src/search.rs", "crates/flow/src/price.rs"] {
        let src = real_source(rel);
        // Strip every charge call the way a careless refactor would.
        let broken = src
            .replace("charge_pop(", "uncharged_pop_stub(")
            .replace("charge_expand(", "uncharged_expand_stub(");
        assert_ne!(src, broken, "{rel} lost its charge anchors");
        let findings = lint_source(rel, &broken);
        assert!(
            findings.iter().any(|f| f.rule == "CR005"),
            "removing charges from {rel} must trip CR005: {findings:?}"
        );
    }
}

#[test]
fn reverting_a_ranked_lock_to_std_mutex_fails_cr008() {
    for rel in [
        "crates/service/src/shard.rs",
        "crates/service/src/pool.rs",
        "crates/core/src/telemetry.rs",
    ] {
        let src = real_source(rel);
        assert!(
            lint_source(rel, &src).is_empty(),
            "{rel} should be crlint-clean as shipped"
        );
        // Undo the lockcheck migration the way a careless revert would.
        let broken = src.replace("OrderedMutex::new(", "Mutex::new(");
        assert_ne!(src, broken, "{rel} lost its OrderedMutex anchor");
        let findings = lint_source(rel, &broken);
        assert!(
            findings.iter().any(|f| f.rule == "CR008"),
            "reverting {rel} to raw Mutex must trip CR008: {findings:?}"
        );
    }
}

#[test]
fn computing_a_lock_rank_fails_cr009() {
    let rel = "crates/service/src/shard.rs";
    let src = real_source(rel);
    assert!(lint_source(rel, &src).is_empty());
    // Route the rank through a helper call instead of a literal.
    let broken = src.replace(
        "OrderedMutex::new(LockRank::",
        "OrderedMutex::new(rank_of(LockRank::",
    );
    assert_ne!(src, broken, "{rel} lost its literal-rank anchor");
    let findings = lint_source(rel, &broken);
    assert!(
        findings.iter().any(|f| f.rule == "CR009"),
        "computing a rank in {rel} must trip CR009: {findings:?}"
    );
}

#[test]
fn deleting_a_lock_rank_argument_fails_cr009() {
    let rel = "crates/core/src/telemetry.rs";
    let src = real_source(rel);
    assert!(lint_source(rel, &src).is_empty());
    // Drop the rank argument entirely, as if OrderedMutex had a
    // one-argument constructor.
    let broken = src.replace("OrderedMutex::new(LockRank::Telemetry, ", "OrderedMutex::new(");
    assert_ne!(src, broken, "{rel} lost its rank-argument anchor");
    let findings = lint_source(rel, &broken);
    assert!(
        findings.iter().any(|f| f.rule == "CR009"),
        "deleting the rank argument in {rel} must trip CR009: {findings:?}"
    );
}

#[test]
fn hoisting_a_guard_across_a_wait_fails_cr010() {
    let rel = "crates/service/src/shard.rs";
    let src = real_source(rel);
    assert!(lint_source(rel, &src).is_empty());
    // Seed a second live guard around the single-flight wait loop, the
    // shape a "just peek at the cache while we wait" patch would take.
    let anchor = "pending = shard.done.wait(pending);";
    assert!(src.contains(anchor), "{rel} lost its wait-loop anchor");
    let broken = src.replace(
        anchor,
        "let peek = shard.cache.lock();\n                pending = shard.done.wait(pending);",
    );
    let findings = lint_source(rel, &broken);
    assert!(
        findings.iter().any(|f| f.rule == "CR010"),
        "waiting with a second guard live in {rel} must trip CR010: {findings:?}"
    );
}
