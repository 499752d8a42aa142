//! The rule set: the invariant checks clippy cannot express by path.
//! Every rule is traceable to a bug class that was fixed by hand; see
//! DESIGN.md §11 for the full table, including the bans that clippy
//! carries (`clippy.toml`).
//!
//! Rules operate on the lexed token stream of one file
//! ([`crate::scan::FileCtx`]) and append [`Finding`]s. Suppression
//! (`// crlint-allow: CRxxx reason`) is applied afterwards by the
//! runner in [`crate::lib`], so rules stay suppression-agnostic.

use crate::scan::FileCtx;
use crate::{Finding, Severity};

/// All rule IDs, in report order.
pub const RULE_IDS: [&str; 7] = [
    "CR000", "CR001", "CR004", "CR005", "CR007", "CR009", "CR010",
];

/// The label-correcting search modules whose queue loops must be
/// budget-cancellable (the PR 2 promptness bug: expansion/promotion
/// loops that never sampled the deadline): the search driver that runs
/// all four searches, the flow oracle's priced Dijkstra, and the four
/// search modules. Those hold no queue loop today — they state their
/// steps as `search::Rules` hooks — and are listed so that a
/// hand-rolled loop added back to one is caught.
const CR005_FILES: [&str; 6] = [
    "crates/core/src/search.rs",
    "crates/core/src/fastpath.rs",
    "crates/core/src/rbp.rs",
    "crates/core/src/gals.rs",
    "crates/core/src/latch.rs",
    "crates/flow/src/price.rs",
];

/// The one file allowed to read raw bytes off an untrusted stream: the
/// bounded frame reader itself, whose whole job is to impose the
/// length and time bounds that CR007 demands of everyone else.
const CR007_EXEMPT_FILES: [&str; 1] = ["crates/service/src/frame.rs"];

/// The threaded crates where CR009–CR010 enforce lock discipline (the
/// raw-lock ban, CR008, is clippy's and covers every crate).
const LOCK_DISCIPLINE_PATHS: [&str; 4] = [
    "crates/core/src/",
    "crates/flow/src/",
    "crates/plan/src/",
    "crates/service/src/",
];

/// The checked-lock wrapper itself, exempt from CR009–CR010: it *is*
/// the seam the rules force everyone else through.
const LOCKCHECK_FILE: [&str; 1] = ["crates/core/src/lockcheck.rs"];

/// Every hardcoded scope/allowlist, paired with the rule it serves.
/// Entries ending in `/` are directory prefixes, the rest are files;
/// [`crate::check_allowlists`] fails the whole run when one no longer
/// exists on disk — a moved file must move its allowlist entry in the
/// same commit, or the rule it configured silently stops applying.
pub fn allowlists() -> Vec<(&'static str, &'static [&'static str])> {
    vec![
        ("CR005", &CR005_FILES),
        ("CR007", &CR007_EXEMPT_FILES),
        ("CR009", &LOCK_DISCIPLINE_PATHS),
        ("CR009", &LOCKCHECK_FILE),
    ]
}

/// Shared scope test for the two lock-discipline rules.
fn in_lock_discipline_scope(ctx: &FileCtx) -> bool {
    LOCK_DISCIPLINE_PATHS.iter().any(|p| ctx.rel.starts_with(p))
        && !LOCKCHECK_FILE.contains(&ctx.rel.as_str())
}

/// Runs every rule over one file.
pub fn check_file(ctx: &FileCtx, out: &mut Vec<Finding>) {
    cr001_partial_ord_impls(ctx, out);
    cr004_static_mut(ctx, out);
    cr005_uncharged_loops(ctx, out);
    cr007_unbounded_reads(ctx, out);
    cr009_lock_construction_and_guards(ctx, out);
    cr010_wait_with_extra_guards(ctx, out);
}

fn finding(ctx: &FileCtx, rule: &str, line: u32, message: String) -> Finding {
    Finding {
        rule: rule.to_string(),
        severity: Severity::Error,
        path: ctx.rel.clone(),
        line,
        message,
    }
}

/// CR001 — NaN-unsound orderings (the PR 2 heap bug), the half clippy
/// cannot see: an `impl … PartialOrd for …` block in non-test code that
/// does not delegate to a total order (`self.cmp(…)` or
/// `f64::total_cmp`). The canonical allowed pattern is `HeapEntry` in
/// `crates/grid/src/dijkstra.rs`.
/// `.partial_cmp(` calls are clippy's (`disallowed_methods`).
fn cr001_partial_ord_impls(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        if ctx.ident(i) != Some("impl") {
            continue;
        }
        let Some((open, line)) = partial_ord_impl_header(ctx, i) else {
            continue;
        };
        if ctx.in_test(line) {
            continue;
        }
        let close = ctx.matching_brace(open);
        let delegates = (open..close).any(|j| {
            ctx.ident(j) == Some("total_cmp")
                || (ctx.ident(j) == Some("self")
                    && ctx.sym(j + 1, '.')
                    && ctx.ident(j + 2) == Some("cmp")
                    && ctx.sym(j + 3, '('))
        });
        if !delegates {
            out.push(finding(
                ctx,
                "CR001",
                line,
                "hand-rolled `PartialOrd` impl does not delegate to a \
                 total order; write `Some(self.cmp(other))` over an \
                 `Ord` impl built on `f64::total_cmp`"
                    .to_string(),
            ));
        }
    }
}

/// If token `i` (`impl`) opens a `PartialOrd` *trait impl* (not a
/// generic bound), returns the index of its `{` and the header line.
fn partial_ord_impl_header(ctx: &FileCtx, i: usize) -> Option<(usize, u32)> {
    let mut angle = 0i64;
    let mut saw_trait = false;
    let mut saw_for = false;
    for j in (i + 1)..ctx.tokens.len() {
        if ctx.sym(j, '<') {
            angle += 1;
        } else if ctx.sym(j, '>') {
            angle -= 1;
        } else if ctx.sym(j, ';') {
            return None;
        } else if ctx.sym(j, '{') {
            return (saw_trait && saw_for).then_some((j, ctx.line_of(i)));
        } else if angle == 0 && ctx.ident(j) == Some("PartialOrd") {
            saw_trait = true;
        } else if angle == 0 && ctx.ident(j) == Some("for") && saw_trait {
            saw_for = true;
        }
    }
    None
}

/// CR004 — the race-audit rule's half clippy cannot see: `static mut`
/// is banned outright, tests included (`unsafe_code` would flag only
/// its uses). Thread creation is clippy's (`disallowed_methods`).
fn cr004_static_mut(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        if ctx.ident(i) == Some("static") && ctx.ident(i + 1) == Some("mut") {
            out.push(finding(
                ctx,
                "CR004",
                ctx.line_of(i),
                "`static mut` is banned; use an atomic, a lock, or \
                 `thread_local!`"
                    .to_string(),
            ));
        }
    }
}

/// CR005 — the promptness rule (the PR 2 bug where expansion/promotion
/// loops between pops never sampled the wall-clock deadline): every
/// `loop`/`while` body in the search modules that pops or pushes
/// queue entries must contain a budget `charge*` call so the search
/// stays cancellable from inside the loop.
fn cr005_uncharged_loops(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !CR005_FILES.contains(&ctx.rel.as_str()) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let header = match ctx.ident(i) {
            Some("loop") => ctx.sym(i + 1, '{').then_some(i + 1),
            Some("while") => ctx.next_block_open(i + 1),
            _ => None,
        };
        let Some(open) = header else { continue };
        let line = ctx.line_of(i);
        if ctx.in_test(line) {
            continue;
        }
        let close = ctx.matching_brace(open);
        let mut queue_op = false;
        let mut charged = false;
        for j in open..close {
            if let Some(name) = ctx.ident(j) {
                if name.starts_with("charge") && ctx.sym(j + 1, '(') {
                    charged = true;
                }
            }
            if ctx.sym(j, '.')
                && matches!(ctx.ident(j + 1), Some("pop" | "push"))
                && ctx.sym(j + 2, '(')
            {
                if let Some(recv) = ctx.receiver_of(j) {
                    if is_queue_name(recv) {
                        queue_op = true;
                    }
                }
            }
        }
        // A `while let Some(c) = queue.pop()` condition also counts:
        // the pop sits between the `while` and the `{`.
        for j in i..open {
            if ctx.sym(j, '.') && matches!(ctx.ident(j + 1), Some("pop" | "push")) {
                if let Some(recv) = ctx.receiver_of(j) {
                    if is_queue_name(recv) {
                        queue_op = true;
                    }
                }
            }
        }
        if queue_op && !charged {
            out.push(finding(
                ctx,
                "CR005",
                line,
                "search loop pops/pushes queue entries without a budget \
                 `charge`/`charge_expand` call; the deadline is never \
                 sampled inside this loop (PR 2 promptness bug)"
                    .to_string(),
            ));
        }
    }
}

/// Receiver names that denote search queues/heaps in the search modules.
fn is_queue_name(name: &str) -> bool {
    let lower = name.to_ascii_lowercase();
    lower.contains("queue") || lower.contains("heap") || lower == "spill" || lower == "qstar"
}

/// CR007 — unbounded reads of untrusted streams in the service crate.
/// The denial-of-service audit: `BufRead::read_line`, `read_to_end`,
/// `read_to_string` and `BufRead::lines` buffer until the *peer*
/// decides to stop, so one hostile connection can exhaust memory or
/// pin a drain forever. Every network- or stdin-facing read in
/// `crates/service` must go through `frame::FrameReader`, which
/// enforces the configured line bound and surfaces read timeouts as
/// idle polls.
fn cr007_unbounded_reads(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !ctx.rel.starts_with("crates/service/src/") || CR007_EXEMPT_FILES.contains(&ctx.rel.as_str())
    {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        if !matches!(
            name,
            "read_to_end" | "read_to_string" | "read_line" | "lines"
        ) {
            continue;
        }
        // Method call (`.lines(`) or UFCS (`Read::read_to_string(`);
        // a bare local fn sharing the name is out of scope.
        let dotted = i >= 1 && ctx.sym(i - 1, '.');
        let pathed = i >= 2 && ctx.path_sep(i - 2);
        if !ctx.sym(i + 1, '(') || !(dotted || pathed) || ctx.in_test(ctx.line_of(i)) {
            continue;
        }
        out.push(finding(
            ctx,
            "CR007",
            ctx.line_of(i),
            format!(
                "`{name}(` reads an untrusted stream with no length bound; \
                 go through `frame::FrameReader` (the audited read seam) or \
                 suppress with a proof the source is trusted and finite"
            ),
        ));
    }
}

/// Guard type names whose appearance anywhere in scope means a lock
/// guard is being stored, returned, or otherwise given a non-lexical
/// lifetime.
const CR009_GUARD_TYPES: [&str; 4] = [
    "MutexGuard",
    "RwLockReadGuard",
    "RwLockWriteGuard",
    "OrderedGuard",
];

/// CR009 — lock-construction and guard-lifetime discipline. Three
/// patterns fire:
/// 1. `OrderedMutex::new(` whose first argument is not a literal
///    `LockRank::` path — the lattice must be greppable, not computed;
/// 2. a `return` statement whose expression calls `.lock(` — the guard
///    escapes the function, so its hold time is no longer visible at
///    the acquisition site;
/// 3. any guard *type name* ([`CR009_GUARD_TYPES`]) — naming the type
///    is how guards end up in struct fields and signatures.
fn cr009_lock_construction_and_guards(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !in_lock_discipline_scope(ctx) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        let line = ctx.line_of(i);
        if ctx.in_test(line) {
            continue;
        }
        // Pattern 1: `OrderedMutex::new(<not LockRank::...>`.
        if name == "OrderedMutex"
            && ctx.path_sep(i + 1)
            && ctx.ident(i + 3) == Some("new")
            && ctx.sym(i + 4, '(')
            && !(ctx.ident(i + 5) == Some("LockRank") && ctx.path_sep(i + 6))
        {
            out.push(finding(
                ctx,
                "CR009",
                line,
                "`OrderedMutex::new(` must name its rank as a literal \
                 `LockRank::…` so the whole lattice is greppable; a computed \
                 rank hides the lock order from review"
                    .to_string(),
            ));
        }
        // Pattern 2: `return …/.lock(…` before the statement's `;`.
        if name == "return" {
            let mut depth = 0i64;
            for j in (i + 1)..ctx.tokens.len() {
                if ctx.sym(j, '(') || ctx.sym(j, '[') || ctx.sym(j, '{') {
                    depth += 1;
                } else if ctx.sym(j, ')') || ctx.sym(j, ']') || ctx.sym(j, '}') {
                    depth -= 1;
                    if depth < 0 {
                        break;
                    }
                } else if ctx.sym(j, ';') && depth == 0 {
                    break;
                } else if ctx.sym(j, '.') && ctx.ident(j + 1) == Some("lock") && ctx.sym(j + 2, '(')
                {
                    out.push(finding(
                        ctx,
                        "CR009",
                        ctx.line_of(j + 1),
                        "returning a `.lock(` guard gives it a non-lexical \
                         lifetime; do the guarded work here and return the \
                         data, so hold times stay visible at the acquire site"
                            .to_string(),
                    ));
                    break;
                }
            }
        }
        // Pattern 3: a guard type name in non-test code.
        if CR009_GUARD_TYPES.contains(&name) {
            out.push(finding(
                ctx,
                "CR009",
                line,
                format!(
                    "`{name}` named outside lockcheck.rs: storing or passing \
                     guards detaches their lifetime from the acquiring scope; \
                     keep guards as local `let` bindings"
                ),
            ));
        }
    }
}

/// CR010 — condvar waits while other guards are live. Walks the token
/// stream with a brace-depth tracker, registering every `let`-bound
/// `.lock(` guard at its depth and dropping it on `drop(name)` or when
/// its scope closes; a `.wait(`/`.wait_timeout(` whose first argument
/// is not the *only* live binding fires.
///
/// This is the static shadow of the runtime condvar-purity check
/// (which also catches guards this walker cannot see: `if let`
/// scrutinee temporaries, guards threaded through helper calls).
fn cr010_wait_with_extra_guards(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !in_lock_discipline_scope(ctx) {
        return;
    }
    let mut depth = 0i64;
    let mut live: Vec<(i64, String)> = Vec::new();
    let mut i = 0;
    while i < ctx.tokens.len() {
        if ctx.sym(i, '{') {
            depth += 1;
        } else if ctx.sym(i, '}') {
            depth -= 1;
            live.retain(|&(d, _)| d <= depth);
        } else if ctx.ident(i) == Some("let")
            && !(i >= 1 && matches!(ctx.ident(i - 1), Some("if" | "while")))
        {
            // `let [mut] name = …;` — register `name` if the
            // initializer calls `.lock(`. (`if let`/`while let`
            // scrutinee temporaries are the runtime check's job.)
            let mut j = i + 1;
            if ctx.ident(j) == Some("mut") {
                j += 1;
            }
            if let Some(name) = ctx.ident(j) {
                if name != "_" && ctx.sym(j + 1, '=') {
                    let mut nest = 0i64;
                    let mut locked = false;
                    let mut k = j + 2;
                    while k < ctx.tokens.len() {
                        if ctx.sym(k, '(') || ctx.sym(k, '[') || ctx.sym(k, '{') {
                            nest += 1;
                        } else if ctx.sym(k, ')') || ctx.sym(k, ']') || ctx.sym(k, '}') {
                            nest -= 1;
                            if nest < 0 {
                                break;
                            }
                        } else if ctx.sym(k, ';') && nest == 0 {
                            break;
                        } else if ctx.sym(k, '.')
                            && ctx.ident(k + 1) == Some("lock")
                            && ctx.sym(k + 2, '(')
                        {
                            locked = true;
                        }
                        k += 1;
                    }
                    if locked && !ctx.in_test(ctx.line_of(i)) {
                        live.retain(|(_, n)| n != name); // rebind shadows
                        live.push((depth, name.to_string()));
                    }
                }
            }
        } else if ctx.ident(i) == Some("drop") && ctx.sym(i + 1, '(') && ctx.sym(i + 3, ')') {
            if let Some(name) = ctx.ident(i + 2) {
                live.retain(|(_, n)| n != name);
            }
        } else if ctx.sym(i, '.')
            && matches!(ctx.ident(i + 1), Some("wait" | "wait_timeout"))
            && ctx.sym(i + 2, '(')
        {
            let line = ctx.line_of(i + 1);
            if !ctx.in_test(line) {
                let waited = ctx.ident(i + 3);
                let extras: Vec<&str> = live
                    .iter()
                    .map(|(_, n)| n.as_str())
                    .filter(|n| Some(*n) != waited)
                    .collect();
                if !extras.is_empty() {
                    out.push(finding(
                        ctx,
                        "CR010",
                        line,
                        format!(
                            "condvar wait while guard(s) [{}] are still live; \
                             a wait parks every lock the thread holds for an \
                             unbounded time — drop them first",
                            extras.join(", ")
                        ),
                    ));
                }
            }
        }
        i += 1;
    }
}

/// One-line rationale per rule, embedded in every `--json` finding so
/// CI annotations can say *why* without a second lookup. `None` for
/// unknown rule IDs.
pub fn explain_line(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "CR000" => "a crlint-allow must name a known rule and give a reason",
        "CR001" => "a PartialOrd impl that is not total corrupts heap order on NaN; delegate to Ord",
        "CR004" => "static mut is unsound to audit; use an atomic, a lock or thread_local!",
        "CR005" => "search loops must sample the budget every iteration or deadlines go unenforced",
        "CR007" => "untrusted streams must go through the bounded frame reader or a peer can OOM the service",
        "CR009" => "lock ranks must be literal and guards lexical, or the rank lattice is unauditable",
        "CR010" => "a condvar wait parks every held lock for unbounded time; drop other guards first",
        _ => return None,
    })
}

/// Full `--explain CRxxx` text: what the rule bans, the motivating
/// bug, and how to suppress it where the ban is wrong. `None` for
/// unknown rule IDs.
pub fn explain(rule: &str) -> Option<&'static str> {
    Some(match rule {
        "CR000" => {
            "CR000 — suppression hygiene.\n\
             \n\
             A `// crlint-allow: CRxxx <reason>` comment must name a rule\n\
             crlint knows and say why the invariant holds there. A bare\n\
             allow, or one naming an unknown rule, is itself a finding\n\
             and suppresses nothing. CR002, CR003, CR006 and CR008 and\n\
             the call bans of CR001 and CR004 are clippy's (clippy.toml);\n\
             their seams carry `#[expect(clippy::…, reason = \"…\")]`.\n\
             \n\
             Motivating bug: none — this is the analyzer's own integrity\n\
             check.\n\
             \n\
             Suppression: not suppressible; fix the comment."
        }
        "CR001" => {
            "CR001 — PartialOrd impls that are not total.\n\
             \n\
             A hand-written `impl PartialOrd` in non-test code must\n\
             delegate to a total order: `Some(self.cmp(other))` over an\n\
             `Ord` built on `f64::total_cmp`. On f64 keys `partial_cmp`\n\
             returns None for NaN; callers unwrap it or map None to\n\
             Equal, silently corrupting heap order. `.partial_cmp(`\n\
             calls (derived impls included) are banned by clippy.toml.\n\
             \n\
             Motivating bug: PR 2's search heap returned suboptimal\n\
             routes when a degraded cost went NaN — the BinaryHeap\n\
             invariant broke without panicking.\n\
             \n\
             Suppression: `// crlint-allow: CR001 <reason>` on or above\n\
             the `impl` line."
        }
        "CR004" => {
            "CR004 — `static mut`.\n\
             \n\
             Bans `static mut` everywhere, tests included: a mutable\n\
             global is unsound to even audit for races. Thread creation\n\
             outside the planner and the service's accept loop and pool\n\
             is banned by clippy.toml.\n\
             \n\
             Motivating bug: the PR 2 Send/Sync race audit.\n\
             \n\
             Suppression: `// crlint-allow: CR004 <reason>`."
        }
        "CR005" => {
            "CR005 — uncharged search loops.\n\
             \n\
             In the label-correcting search modules, every\n\
             `while let Some(...) = ...pop` loop must call the budget\n\
             charge/poll in its body, or a blown deadline is never\n\
             noticed.\n\
             \n\
             Motivating bug: PR 2's promptness fix — expansion and\n\
             promotion loops ran arbitrarily long past the deadline\n\
             because only the outer loop sampled it.\n\
             \n\
             Suppression: `// crlint-allow: CR005 <reason>` for loops\n\
             that provably cannot run unbounded."
        }
        "CR007" => {
            "CR007 — unbounded reads from untrusted streams.\n\
             \n\
             Bans `read_line`/`read_to_end`/`read_to_string` on sockets\n\
             and stdio outside the bounded frame reader. A peer that\n\
             never sends a newline must cost a bounded buffer, not the\n\
             process.\n\
             \n\
             Motivating bug: PR 6's crash-safety review — the original\n\
             line reader allocated without limit on attacker-controlled\n\
             input.\n\
             \n\
             Suppression: `// crlint-allow: CR007 <reason>`, or route\n\
             the read through `frame::FrameReader`."
        }
        "CR009" => {
            "CR009 — non-literal ranks and escaping guards.\n\
             \n\
             Three patterns: (1) `OrderedMutex::new` whose first\n\
             argument is not a literal `LockRank::...` — computed ranks\n\
             defeat grep-auditability of the lattice; (2) `return` of an\n\
             expression containing `.lock(` — a guard that escapes its\n\
             acquiring function detaches hold time from lexical scope;\n\
             (3) naming a guard type (`MutexGuard`, `OrderedGuard`, ...)\n\
             in a signature or field, which is how guards get stored.\n\
             \n\
             Motivating bug: the lockcheck design itself — the runtime\n\
             checker's reports are only legible if every rank in the\n\
             program can be found by grepping for `LockRank::`.\n\
             \n\
             Suppression: `// crlint-allow: CR009 <reason>`."
        }
        "CR010" => {
            "CR010 — condvar wait with other guards live.\n\
             \n\
             A `wait`/`wait_timeout` call releases only the waited lock;\n\
             every other guard the thread holds stays locked for the\n\
             entire (unbounded) park. The walker tracks let-bound\n\
             `.lock(` guards per scope and fires when a wait happens\n\
             while any other named guard is live.\n\
             \n\
             This is the static shadow of the runtime check\n\
             (`OrderedCondvar::wait` asserts the held-rank stack is\n\
             exactly the waited rank, catching guards this walker cannot\n\
             see).\n\
             \n\
             Motivating bug: the shard single-flight wait loop — waiting\n\
             on `done` while holding a cache guard would stall every\n\
             reader of that shard behind a parked thread.\n\
             \n\
             Suppression: `// crlint-allow: CR010 <reason>`."
        }
        _ => return None,
    })
}
