//! The tool runs on itself: the workspace must be crlint-clean, every
//! suppression must carry a reason, and the `--json` output must
//! satisfy the same dependency-free JSON checker the e2e suite uses
//! for `--metrics` files.

use std::path::Path;
use std::process::Command;

fn workspace_root() -> &'static Path {
    Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../.."))
}

#[test]
fn workspace_is_crlint_clean() {
    let findings = clockroute_lint::run_workspace(workspace_root()).expect("walk");
    assert!(
        findings.is_empty(),
        "the workspace must be crlint-clean; fix or suppress-with-reason:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn binary_exits_zero_and_emits_valid_json_on_clean_tree() {
    let out = Command::new(env!("CARGO_BIN_EXE_crlint"))
        .args(["--workspace", "--json", "--root"])
        .arg(workspace_root())
        .output()
        .expect("spawn crlint");
    assert!(out.status.success(), "expected exit 0: {out:?}");
    let json = String::from_utf8(out.stdout).expect("utf8");
    clockroute_core::json::validate_json(&json).expect("crlint --json must be valid JSON");
    assert!(json.contains("\"findings\":[]"), "clean tree: {json}");
}

#[test]
fn binary_exits_one_and_emits_valid_deterministic_json_on_findings() {
    // A throwaway tree with one known violation per scoped location.
    // Sparse trees fail the allowlist staleness gate by construction,
    // so it is skipped here — it has its own test below.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("crlint_bad_ws");
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(
        src_dir.join("bad.rs"),
        "fn f(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n",
    )
    .expect("write fixture tree");

    let run = || {
        Command::new(env!("CARGO_BIN_EXE_crlint"))
            .args(["--workspace", "--json", "--no-allowlist-check", "--root"])
            .arg(&dir)
            .output()
            .expect("spawn crlint")
    };
    let out = run();
    assert_eq!(out.status.code(), Some(1), "findings must exit 1: {out:?}");
    let json = String::from_utf8(out.stdout).expect("utf8");
    clockroute_core::json::validate_json(&json).expect("valid JSON with findings");
    assert!(json.contains("\"rule\":\"CR002\""), "{json}");
    assert!(json.contains("\"path\":\"crates/core/src/bad.rs\""), "{json}");
    assert!(json.contains("\"line\":2"), "{json}");
    // Deterministic: byte-identical across runs.
    let again = String::from_utf8(run().stdout).expect("utf8");
    assert_eq!(json, again, "crlint --json must be byte-stable");
}

#[test]
fn binary_exits_two_on_internal_error() {
    let out = Command::new(env!("CARGO_BIN_EXE_crlint"))
        .args(["--no-such-flag"])
        .output()
        .expect("spawn crlint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn workspace_allowlists_are_not_stale() {
    let dead = clockroute_lint::check_allowlists(workspace_root());
    assert!(
        dead.is_empty(),
        "rule allowlists reference paths that no longer exist — a file \
         moved without updating crates/lint/src/rules.rs:\n{}",
        dead.join("\n")
    );
}

#[test]
fn binary_exits_two_naming_the_dead_allowlist_entry() {
    // A sparse tree is missing (almost) every allowlisted path; the
    // staleness gate must refuse to declare such a tree clean, naming
    // a dead entry so the fix is obvious.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("crlint_stale_ws");
    std::fs::create_dir_all(dir.join("crates/core/src")).expect("mkdir");
    let out = Command::new(env!("CARGO_BIN_EXE_crlint"))
        .args(["--workspace", "--root"])
        .arg(&dir)
        .output()
        .expect("spawn crlint");
    assert_eq!(out.status.code(), Some(2), "stale allowlist must exit 2: {out:?}");
    let stderr = String::from_utf8(out.stderr).expect("utf8");
    assert!(
        stderr.contains("CR007: crates/service/src/frame.rs"),
        "error must name the dead entry: {stderr}"
    );
}

#[test]
fn explain_covers_every_rule_and_reaches_the_json() {
    // Every rule ID has both a one-liner and a full --explain text.
    for rule in clockroute_lint::rules::RULE_IDS {
        assert!(
            clockroute_lint::rules::explain_line(rule).is_some(),
            "{rule} has no one-line explanation"
        );
        let out = Command::new(env!("CARGO_BIN_EXE_crlint"))
            .args(["--explain", rule])
            .output()
            .expect("spawn crlint");
        assert!(out.status.success(), "--explain {rule}: {out:?}");
        let text = String::from_utf8(out.stdout).expect("utf8");
        assert!(text.contains(rule), "--explain {rule} must name the rule");
        assert!(
            rule == "CR000" || text.contains("crlint-allow"),
            "--explain {rule} must show the suppression syntax: {text}"
        );
    }
    // Unknown rules are an internal error, not silence.
    let out = Command::new(env!("CARGO_BIN_EXE_crlint"))
        .args(["--explain", "CR999"])
        .output()
        .expect("spawn crlint");
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    // The one-liner rides along in machine output: lint a tree with a
    // known finding and check the `explain` field validates as JSON.
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("crlint_explain_ws");
    let src_dir = dir.join("crates/core/src");
    std::fs::create_dir_all(&src_dir).expect("mkdir");
    std::fs::write(
        src_dir.join("bad.rs"),
        "fn f(v: &[u32]) -> u32 {\n    *v.first().unwrap()\n}\n",
    )
    .expect("write fixture tree");
    let out = Command::new(env!("CARGO_BIN_EXE_crlint"))
        .args(["--workspace", "--json", "--no-allowlist-check", "--root"])
        .arg(&dir)
        .output()
        .expect("spawn crlint");
    let json = String::from_utf8(out.stdout).expect("utf8");
    clockroute_core::json::validate_json(&json).expect("json with explain field");
    assert!(
        json.contains("\"explain\":\"unwrap/expect in core crates"),
        "{json}"
    );
}
