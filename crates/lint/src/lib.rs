//! `crlint` — the DRC for the source code.
//!
//! `crates/core/src/drc.rs` checks that a *routed plan* obeys the
//! physical design rules; this crate checks that the *source tree*
//! obeys the correctness invariants PRs 1–3 established by hand:
//!
//! | Rule  | Invariant | Introduced by |
//! |-------|-----------|---------------|
//! | CR000 | `crlint-allow` suppressions must name a known rule and a reason | this PR |
//! | CR001 | ordering keys are totally ordered (no NaN-unsound `partial_cmp`) | PR 2 heap fix |
//! | CR002 | no `unwrap`/`expect` panics in the algorithmic core | PR 1 ladder |
//! | CR003 | wall-clock reads confined to budget/telemetry seams | PR 2 promptness fix |
//! | CR004 | threads confined to the planner; no `static mut` | PR 2 Send/Sync audit |
//! | CR005 | search queue loops are budget-cancellable | PR 2 promptness fix |
//! | CR006 | report/serialization modules use ordered collections | PR 3 `--jobs` byte-identity |
//! | CR007 | service reads untrusted streams only through the bounded frame reader | PR 6 crash-safety |
//! | CR008 | no raw `std::sync` locks in threaded crates — ranked `lockcheck` wrappers only | PR 9 lock discipline |
//! | CR009 | lock ranks are literal; guards stay lexical (no storing/returning) | PR 9 lock discipline |
//! | CR010 | no condvar wait while another named guard is live | PR 9 lock discipline |
//!
//! Dependency-free by design (it gates the build that would build its
//! dependencies). The binary is `crlint`; the library entry points are
//! [`lint_source`] for one file and [`run_workspace`] for the tree.
//!
//! Suppression syntax (the reason is mandatory — CR000 fires without
//! one): a line comment `// crlint-allow: CR003 span start, duration
//! only reaches telemetry` suppresses that rule on the same line and
//! the next line.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod lexer;
pub mod rules;
pub mod scan;

/// Diagnostic severity. Every current rule reports `Error`; the field
/// exists so future advisory rules don't need a schema change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    Warning,
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One diagnostic: rule, location, human message.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: String,
    pub severity: Severity,
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {} {}: {}",
            self.path, self.line, self.rule, self.severity, self.message
        )
    }
}

/// A parsed `crlint-allow` directive.
struct Allow {
    rule: String,
    line: u32,
    reason_ok: bool,
    known_rule: bool,
}

/// Extracts `crlint-allow: CRxxx reason…` directives from comments.
/// Only line comments are honoured — a directive buried in a block
/// comment spanning many lines would have ambiguous scope.
fn parse_allows(ctx: &scan::FileCtx) -> Vec<Allow> {
    let mut allows = Vec::new();
    for c in &ctx.comments {
        // Plain `//` comments only: block comments have ambiguous line
        // scope, and doc comments (`///`, `//!`) are documentation —
        // they may *mention* the syntax without meaning it.
        if c.text.starts_with("/*") || c.text.starts_with("///") || c.text.starts_with("//!") {
            continue;
        }
        let Some(at) = c.text.find("crlint-allow:") else {
            continue;
        };
        let rest = c.text[at + "crlint-allow:".len()..].trim_start();
        let rule: String = rest.chars().take_while(|c| !c.is_whitespace()).collect();
        let reason = rest[rule.len()..].trim();
        allows.push(Allow {
            known_rule: rules::RULE_IDS.contains(&rule.as_str()),
            rule,
            line: c.line,
            reason_ok: !reason.is_empty(),
        });
    }
    allows
}

/// Lints one file's source text. `rel` is the workspace-relative path;
/// rules use it to decide scope (which crate, which module list), so
/// fixture tests can impersonate any location.
pub fn lint_source(rel: &str, src: &str) -> Vec<Finding> {
    let ctx = scan::FileCtx::new(rel, src);
    let mut findings = Vec::new();
    rules::check_file(&ctx, &mut findings);

    let allows = parse_allows(&ctx);
    // CR000: malformed suppressions are themselves findings, and they
    // suppress nothing.
    for a in &allows {
        if !a.known_rule {
            findings.push(Finding {
                rule: "CR000".to_string(),
                severity: Severity::Error,
                path: rel.to_string(),
                line: a.line,
                message: format!(
                    "`crlint-allow` names unknown rule `{}`; known rules are {}",
                    a.rule,
                    rules::RULE_IDS.join(", ")
                ),
            });
        } else if !a.reason_ok {
            findings.push(Finding {
                rule: "CR000".to_string(),
                severity: Severity::Error,
                path: rel.to_string(),
                line: a.line,
                message: format!(
                    "`crlint-allow: {}` carries no reason; suppressions must \
                     say why the invariant holds here",
                    a.rule
                ),
            });
        }
    }
    // A well-formed allow covers its own line (trailing comment) and
    // the following line (comment-above style).
    findings.retain(|f| {
        f.rule == "CR000"
            || !allows.iter().any(|a| {
                a.known_rule
                    && a.reason_ok
                    && a.rule == f.rule
                    && (f.line == a.line || f.line == a.line + 1)
            })
    });
    sort_findings(&mut findings);
    findings
}

fn sort_findings(findings: &mut [Finding]) {
    findings.sort_by(|a, b| {
        (&a.path, a.line, &a.rule, &a.message).cmp(&(&b.path, b.line, &b.rule, &b.message))
    });
}

/// Walks the workspace rooted at `root` and lints every first-party
/// `.rs` file. Vendored stubs (`vendor/`), build output (`target/`) and
/// lint fixtures (`fixtures/`) are excluded; everything else — sources,
/// integration tests, benches, examples, this crate itself — is
/// scanned (test scope relaxes some rules per file, see
/// [`scan::FileCtx::in_test`]).
///
/// # Errors
///
/// Returns a message on I/O failure (unreadable file or directory).
pub fn run_workspace(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_rs(root, root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel))
            .map_err(|e| format!("reading {rel}: {e}"))?;
        findings.extend(lint_source(rel, &src));
    }
    sort_findings(&mut findings);
    Ok(findings)
}

/// Verifies every path hardcoded in the rule allowlists
/// ([`rules::allowlists`]) still exists under `root`, returning the
/// dead entries as `"CRxxx: path"` strings (sorted, deduplicated).
/// Entries ending in `/` must be directories; the rest must be files.
///
/// Allowlists rot silently: when `crates/service/src/frame.rs` moves,
/// CR007's exemption stops matching and CR007 starts firing on a file
/// that no longer exists while the *new* location goes unchecked — or
/// worse, a scope list shrinks and a whole rule silently stops
/// applying. The binary fails the run (exit 2) when this returns any
/// entries.
pub fn check_allowlists(root: &Path) -> Vec<String> {
    let mut dead = Vec::new();
    for (rule, list) in rules::allowlists() {
        for entry in list {
            let path = root.join(entry);
            let alive = if entry.ends_with('/') {
                path.is_dir()
            } else {
                path.is_file()
            };
            if !alive {
                dead.push(format!("{rule}: {entry}"));
            }
        }
    }
    dead.sort();
    dead.dedup();
    dead
}

fn collect_rs(root: &Path, dir: &Path, out: &mut Vec<String>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("reading {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("reading {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "target" | "vendor" | "fixtures" | ".git") {
                continue;
            }
            collect_rs(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|e| e.to_string())?
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// Renders findings as one deterministic JSON object (sorted by path,
/// line, rule; stable key order). Validated in the test suite by the
/// same dependency-free `validate_json` checker the e2e tests use for
/// `--metrics` output.
pub fn to_json(findings: &[Finding]) -> String {
    let mut s = String::from("{\"version\":1,\"findings\":[");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "{{\"rule\":{},\"severity\":{},\"path\":{},\"line\":{},\"message\":{},\"explain\":{}}}",
            json_str(&f.rule),
            json_str(&f.severity.to_string()),
            json_str(&f.path),
            f.line,
            json_str(&f.message),
            json_str(rules::explain_line(&f.rule).unwrap_or(""))
        ));
    }
    let errors = findings
        .iter()
        .filter(|f| f.severity == Severity::Error)
        .count();
    s.push_str(&format!(
        "],\"counts\":{{\"error\":{},\"warning\":{}}}}}",
        errors,
        findings.len() - errors
    ));
    s
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Locates the workspace root: walks up from `start` until a directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suppression_with_reason_suppresses_same_and_next_line() {
        let src = "\
fn f(q: &Q) {
    // crlint-allow: CR002 value checked non-empty two lines up
    q.get().unwrap();
    q.get().unwrap(); // not covered: two lines below the allow
}
";
        let out = lint_source("crates/core/src/x.rs", src);
        assert_eq!(out.len(), 1, "{out:?}");
        assert_eq!(out[0].rule, "CR002");
        assert_eq!(out[0].line, 4);
    }

    #[test]
    fn suppression_without_reason_is_cr000_and_suppresses_nothing() {
        let src = "\
fn f(q: &Q) {
    // crlint-allow: CR002
    q.get().unwrap();
}
";
        let out = lint_source("crates/core/src/x.rs", src);
        let rules: Vec<&str> = out.iter().map(|f| f.rule.as_str()).collect();
        assert_eq!(rules, ["CR000", "CR002"], "{out:?}");
        assert_eq!(out[0].line, 2);
    }

    #[test]
    fn unknown_rule_in_suppression_is_cr000() {
        let out = lint_source(
            "crates/core/src/x.rs",
            "// crlint-allow: CR999 no such rule\n",
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].rule, "CR000");
    }

    #[test]
    fn json_is_deterministic_and_escaped() {
        let f = Finding {
            rule: "CR003".to_string(),
            severity: Severity::Error,
            path: "a\"b.rs".to_string(),
            line: 7,
            message: "line\nbreak".to_string(),
        };
        let one = to_json(std::slice::from_ref(&f));
        assert_eq!(one, to_json(&[f]));
        assert!(one.contains("a\\\"b.rs"));
        assert!(one.contains("line\\nbreak"));
        assert!(to_json(&[]).contains("\"findings\":[]"));
    }
}
