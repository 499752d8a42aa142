//! `crlint` — workspace static analysis for the clockroute invariants.
//!
//! ```text
//! crlint --workspace [--json] [--root <dir>] [--no-allowlist-check]
//! crlint --explain CRxxx
//! ```
//!
//! Exit codes mirror `crplan`: 0 clean, 1 findings, 2 internal error
//! (bad arguments, unreadable tree, stale rule allowlist). See
//! DESIGN.md §11 for the rules.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("crlint: error: {msg}");
            ExitCode::from(2)
        }
    }
}

/// Returns `Ok(true)` when the tree is clean, `Ok(false)` on findings.
fn run(args: Vec<String>) -> Result<bool, String> {
    let mut workspace = false;
    let mut json = false;
    let mut check_allowlists = true;
    let mut root: Option<PathBuf> = None;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => workspace = true,
            "--json" => json = true,
            "--no-allowlist-check" => check_allowlists = false,
            "--root" => {
                let dir = it.next().ok_or("--root requires a directory")?;
                root = Some(PathBuf::from(dir));
            }
            "--explain" => {
                let rule = it
                    .next()
                    .ok_or("--explain requires a rule ID (e.g. CR005)")?;
                let text = clockroute_lint::rules::explain(&rule).ok_or_else(|| {
                    format!(
                        "unknown rule `{rule}`; known rules: {}",
                        clockroute_lint::rules::RULE_IDS.join(", ")
                    )
                })?;
                println!("{text}");
                return Ok(true);
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(true);
            }
            other => return Err(format!("unknown argument `{other}`\n{USAGE}")),
        }
    }
    if !workspace {
        return Err(format!("nothing to do: pass --workspace\n{USAGE}"));
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().map_err(|e| e.to_string())?;
            clockroute_lint::find_workspace_root(&cwd)
                .ok_or("no workspace root found above the current directory")?
        }
    };

    // A stale allowlist means some rule is silently mis-scoped, which
    // poisons every subsequent "clean" verdict — so it is an internal
    // error (exit 2), not a finding.
    if check_allowlists {
        let dead = clockroute_lint::check_allowlists(&root);
        if !dead.is_empty() {
            return Err(format!(
                "stale rule allowlist entr{} (file moved without updating \
                 crates/lint/src/rules.rs?):\n  {}",
                if dead.len() == 1 { "y" } else { "ies" },
                dead.join("\n  ")
            ));
        }
    }

    let findings = clockroute_lint::run_workspace(&root)?;
    if json {
        println!("{}", clockroute_lint::to_json(&findings));
    } else {
        for f in &findings {
            println!("{f}");
        }
        if findings.is_empty() {
            println!("crlint: workspace clean");
        } else {
            println!("crlint: {} finding(s)", findings.len());
        }
    }
    Ok(findings.is_empty())
}

const USAGE: &str = "\
usage: crlint --workspace [--json] [--root <dir>] [--no-allowlist-check]
       crlint --explain CRxxx

  --workspace           lint every first-party .rs file in the workspace
  --json                machine-readable output (deterministic ordering)
  --root <dir>          workspace root (default: walk up from the current dir)
  --no-allowlist-check  skip verifying rule allowlist paths exist on disk
  --explain CRxxx       print a rule's rationale, motivating bug, and
                        suppression syntax

exit codes: 0 clean, 1 findings, 2 internal error";
