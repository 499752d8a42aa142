//! The rule set. Every rule is traceable to a bug class that PRs 1–3
//! fixed by hand; see DESIGN.md §11 for the full motivation table.
//!
//! Rules operate on the lexed token stream of one file
//! ([`crate::scan::FileCtx`]) and append [`Finding`]s. Suppression
//! (`// crlint-allow: CRxxx reason`) is applied afterwards by the
//! runner in [`crate::lib`], so rules stay suppression-agnostic.

use crate::scan::FileCtx;
use crate::{Finding, Severity};

/// All rule IDs, in report order.
pub const RULE_IDS: [&str; 11] = [
    "CR000", "CR001", "CR002", "CR003", "CR004", "CR005", "CR006", "CR007", "CR008", "CR009",
    "CR010",
];

/// Crates whose non-test code must be panic-free (`unwrap`/`expect`):
/// the algorithmic core that the degradation ladder must be able to
/// trust (PR 1 wrapped it in `catch_unwind` precisely because it could
/// not).
const CR002_CRATES: [&str; 6] = [
    "crates/core/src/",
    "crates/grid/src/",
    "crates/elmore/src/",
    "crates/geom/src/",
    "crates/plan/src/",
    "crates/flow/src/",
];

/// The only files allowed to read wall clocks: the budget meter (that
/// is its job), the telemetry module (span durations), and the service
/// admission gate (deadline budgets and request timers — timings feed
/// `service.*` metrics, never response bytes). Everything else must
/// route timing through one of those seams or carry an explicit
/// suppression — the `--jobs` byte-identity contract depends on no
/// other nondeterministic clock reads reaching an output.
const CR003_ALLOWED_FILES: [&str; 3] = [
    "crates/core/src/budget.rs",
    "crates/core/src/telemetry.rs",
    "crates/service/src/admission.rs",
];

/// The only places allowed to create threads: the speculative-commit
/// planner, the service's connection loop, and the service's bounded
/// worker pool (which drains accepted connections from a bounded
/// queue; each request is still solved by the planner's audited
/// protocol). Searches must stay single-threaded and cancellable.
const CR004_THREAD_PATHS: [&str; 3] = [
    "crates/plan/src/",
    "crates/service/src/server.rs",
    "crates/service/src/pool.rs",
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

/// Report/serialization modules whose output is byte-compared across
/// `--jobs`: unordered collections are banned outright (not just their
/// iteration — a `HashMap` that is only probed today becomes one that
/// is iterated tomorrow).
const CR006_FILES: [&str; 18] = [
    "crates/grid/src/render.rs",
    "crates/flow/src/lib.rs",
    "crates/flow/src/report.rs",
    "crates/core/src/json.rs",
    "crates/core/src/telemetry.rs",
    "crates/core/src/result.rs",
    "crates/cli/src/lib.rs",
    "crates/cli/src/main.rs",
    "crates/cli/src/scenario.rs",
    "crates/bench/src/lib.rs",
    "crates/service/src/protocol.rs",
    "crates/service/src/cache.rs",
    "crates/service/src/keys.rs",
    "crates/service/src/server.rs",
    "crates/service/src/shard.rs",
    "crates/service/src/pool.rs",
    "crates/service/src/persist.rs",
    "crates/service/src/frame.rs",
];

/// The one file allowed to read raw bytes off an untrusted stream: the
/// bounded frame reader itself, whose whole job is to impose the
/// length and time bounds that CR007 demands of everyone else.
const CR007_EXEMPT_FILES: [&str; 1] = ["crates/service/src/frame.rs"];

/// The threaded crates where CR008–CR010 enforce lock discipline:
/// every lock must be a ranked `lockcheck` wrapper so the runtime rank
/// checker covers the whole process — one raw `Mutex` is a hole in the
/// deadlock-freedom proof.
const CR008_THREADED_PATHS: [&str; 3] = [
    "crates/core/src/",
    "crates/plan/src/",
    "crates/service/src/",
];

/// The one module allowed to touch `std::sync` primitives directly:
/// the checked-lock wrapper itself (exempt from CR008–CR010 — it *is*
/// the seam the rules force everyone else through).
const CR008_EXEMPT_FILES: [&str; 1] = ["crates/core/src/lockcheck.rs"];

/// Every hardcoded scope/allowlist, paired with the rule it serves.
/// Entries ending in `/` are directory prefixes, the rest are files;
/// [`crate::check_allowlists`] fails the whole run when one no longer
/// exists on disk — a moved file must move its allowlist entry in the
/// same commit, or the rule it configured silently stops applying.
pub fn allowlists() -> Vec<(&'static str, &'static [&'static str])> {
    vec![
        ("CR002", &CR002_CRATES),
        ("CR003", &CR003_ALLOWED_FILES),
        ("CR004", &CR004_THREAD_PATHS),
        ("CR005", &CR005_FILES),
        ("CR006", &CR006_FILES),
        ("CR007", &CR007_EXEMPT_FILES),
        ("CR008", &CR008_THREADED_PATHS),
        ("CR008", &CR008_EXEMPT_FILES),
    ]
}

/// Shared scope test for the three lock-discipline rules.
fn in_lock_discipline_scope(ctx: &FileCtx) -> bool {
    CR008_THREADED_PATHS.iter().any(|p| ctx.rel.starts_with(p))
        && !CR008_EXEMPT_FILES.contains(&ctx.rel.as_str())
}

/// Runs every rule over one file.
pub fn check_file(ctx: &FileCtx, out: &mut Vec<Finding>) {
    cr001_partial_cmp(ctx, out);
    cr002_unwrap(ctx, out);
    cr003_wall_clock(ctx, out);
    cr004_threads(ctx, out);
    cr005_uncharged_loops(ctx, out);
    cr006_unordered_collections(ctx, out);
    cr007_unbounded_reads(ctx, out);
    cr008_raw_sync_primitives(ctx, out);
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

/// CR001 — NaN-unsound orderings (the PR 2 heap bug).
///
/// Two patterns fire:
/// 1. any `.partial_cmp(` call in non-test code — on `f64` keys it
///    returns `None` for NaN and callers invariably `unwrap` or treat
///    `None` as `Equal`, silently corrupting heap order;
/// 2. an `impl PartialOrd for …` block that does not delegate to a
///    total order (`self.cmp(…)` or `f64::total_cmp`). The canonical
///    allowed pattern is `HeapEntry` in `crates/grid/src/dijkstra.rs`
///    and `crates/flow/src/price.rs`.
fn cr001_partial_cmp(ctx: &FileCtx, out: &mut Vec<Finding>) {
    for i in 0..ctx.tokens.len() {
        // Pattern 1: `.partial_cmp(`.
        if ctx.sym(i, '.')
            && ctx.ident(i + 1) == Some("partial_cmp")
            && ctx.sym(i + 2, '(')
            && !ctx.in_test(ctx.line_of(i + 1))
        {
            out.push(finding(
                ctx,
                "CR001",
                ctx.line_of(i + 1),
                "NaN-unsound `.partial_cmp(` call on an ordering key; use \
                 `f64::total_cmp` or delegate to a total `Ord` impl \
                 (canonical pattern: HeapEntry in crates/grid/src/dijkstra.rs)"
                    .to_string(),
            ));
        }
        // Pattern 2: `impl … PartialOrd … for … { … }` without a
        // total-order delegation in the body.
        if ctx.ident(i) == Some("impl") {
            if let Some((open, line)) = partial_ord_impl_header(ctx, i) {
                if ctx.in_test(line) {
                    continue;
                }
                let close = ctx.matching_brace(open);
                let mut delegates = false;
                for j in open..close {
                    if ctx.ident(j) == Some("total_cmp") {
                        delegates = true;
                        break;
                    }
                    if ctx.ident(j) == Some("self")
                        && ctx.sym(j + 1, '.')
                        && ctx.ident(j + 2) == Some("cmp")
                        && ctx.sym(j + 3, '(')
                    {
                        delegates = true;
                        break;
                    }
                }
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

/// CR002 — `.unwrap()` / `.expect(` in non-test code of the algorithmic
/// crates. Extends core's old `deny(clippy::unwrap_used)` (now hoisted
/// to `[workspace.lints]`) with `expect`, which clippy left legal: a
/// panic anywhere in the solve path escapes into the degradation
/// ladder's `catch_unwind` and turns an explainable error into a
/// `Degradation::PanicIsolated`.
fn cr002_unwrap(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !CR002_CRATES.iter().any(|p| ctx.rel.starts_with(p)) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        if !ctx.sym(i, '.') {
            continue;
        }
        let Some(name) = ctx.ident(i + 1) else {
            continue;
        };
        if (name == "unwrap" || name == "expect") && ctx.sym(i + 2, '(') {
            let line = ctx.line_of(i + 1);
            if ctx.in_test(line) {
                continue;
            }
            out.push(finding(
                ctx,
                "CR002",
                line,
                format!(
                    "`.{name}(` in non-test core-path code can panic into the \
                     degradation ladder; return a `RouteError` or suppress \
                     with a proof the value is always present"
                ),
            ));
        }
    }
}

/// CR003 — wall-clock reads outside the budget/telemetry seams.
/// Determinism guard for the byte-identical `--jobs` contract: a clock
/// read that influences anything byte-compared is a heisenbug factory.
fn cr003_wall_clock(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if CR003_ALLOWED_FILES.contains(&ctx.rel.as_str()) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        if (name == "Instant" || name == "SystemTime")
            && ctx.path_sep(i + 1)
            && ctx.ident(i + 3) == Some("now")
            && ctx.sym(i + 4, '(')
            && !ctx.in_test(ctx.line_of(i))
        {
            out.push(finding(
                ctx,
                "CR003",
                ctx.line_of(i),
                format!(
                    "`{name}::now()` outside budget.rs/telemetry.rs; route \
                     timing through `SearchBudget` or a telemetry span, or \
                     suppress with a reason the value never reaches \
                     deterministic output"
                ),
            ));
        }
    }
}

/// CR004 — the race-audit rule: thread creation is confined to the
/// planner (whose speculative-commit protocol is the one audited
/// concurrency seam), and `static mut` is banned outright.
fn cr004_threads(ctx: &FileCtx, out: &mut Vec<Finding>) {
    let thread_ok = CR004_THREAD_PATHS.iter().any(|p| ctx.rel.starts_with(p));
    for i in 0..ctx.tokens.len() {
        if ctx.ident(i) == Some("thread")
            && ctx.path_sep(i + 1)
            && matches!(ctx.ident(i + 3), Some("spawn" | "scope"))
            && !thread_ok
            && !ctx.in_test(ctx.line_of(i))
        {
            out.push(finding(
                ctx,
                "CR004",
                ctx.line_of(i),
                "thread creation outside crates/plan; parallelism must go \
                 through the planner's speculative-commit protocol"
                    .to_string(),
            ));
        }
        // `static mut` is unsound to even audit for; flagged in tests too.
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

/// CR006 — unordered collections in report/serialization modules.
/// `MetricsRecorder` aggregates are `--jobs`-independent only because
/// every map that reaches an output iterates in sorted order.
fn cr006_unordered_collections(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !CR006_FILES.contains(&ctx.rel.as_str()) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        if (name == "HashMap" || name == "HashSet") && !ctx.in_test(ctx.line_of(i)) {
            out.push(finding(
                ctx,
                "CR006",
                ctx.line_of(i),
                format!(
                    "`{name}` in a report/serialization module iterates in \
                     nondeterministic order; use `BTreeMap`/`BTreeSet` (the \
                     report is byte-compared across `--jobs`)"
                ),
            ));
        }
    }
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

/// CR008 — raw `std::sync` lock construction in the threaded crates.
/// A `Mutex`/`RwLock`/`Condvar` built outside `lockcheck.rs` is
/// invisible to the rank checker: it can deadlock against the ranked
/// locks without any runtime assert ever firing, so the deadlock-
/// freedom argument of DESIGN.md §16 only holds if this never happens.
fn cr008_raw_sync_primitives(ctx: &FileCtx, out: &mut Vec<Finding>) {
    if !in_lock_discipline_scope(ctx) {
        return;
    }
    for i in 0..ctx.tokens.len() {
        let Some(name) = ctx.ident(i) else { continue };
        if matches!(name, "Mutex" | "RwLock" | "Condvar")
            && ctx.path_sep(i + 1)
            && ctx.ident(i + 3) == Some("new")
            && ctx.sym(i + 4, '(')
            && !ctx.in_test(ctx.line_of(i))
        {
            out.push(finding(
                ctx,
                "CR008",
                ctx.line_of(i),
                format!(
                    "raw `{name}::new(` in a threaded crate bypasses the rank \
                     checker; use `lockcheck::OrderedMutex`/`OrderedCondvar` \
                     so the lock joins the workspace lock order"
                ),
            ));
        }
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
        "CR000" => "source file failed to lex; the other rules could not run on it",
        "CR001" => "partial_cmp on float keys is NaN-unsound; delegate to total_cmp",
        "CR002" => "unwrap/expect in core crates can panic mid-solve; return errors",
        "CR003" => "wall-clock reads outside the budget/telemetry seams break --jobs byte-identity",
        "CR004" => "thread creation outside the audited planner/service seams evades the commit protocol",
        "CR005" => "search loops must sample the budget every iteration or deadlines go unenforced",
        "CR006" => "unordered collections in report paths make output order nondeterministic",
        "CR007" => "untrusted streams must go through the bounded frame reader or a peer can OOM the service",
        "CR008" => "raw std::sync locks bypass the rank checker; use lockcheck::OrderedMutex",
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
            "CR000 — lex failure.\n\
             \n\
             The file could not be tokenized (unterminated string or\n\
             block comment), so none of the other rules ran on it. This\n\
             is always a real problem: a file crlint cannot read is a\n\
             file it cannot vouch for.\n\
             \n\
             Motivating bug: none — this is the analyzer's own integrity\n\
             check.\n\
             \n\
             Suppression: not suppressible; fix the file."
        }
        "CR001" => {
            "CR001 — NaN-unsound orderings.\n\
             \n\
             Bans `.partial_cmp(` in non-test code and `PartialOrd`\n\
             impls that do not delegate to a total order. On f64 keys\n\
             `partial_cmp` returns None for NaN; callers unwrap it or\n\
             map None to Equal, silently corrupting heap order.\n\
             \n\
             Motivating bug: PR 2's search heap returned suboptimal\n\
             routes when a degraded cost went NaN — the BinaryHeap\n\
             invariant broke without panicking. Use `f64::total_cmp`.\n\
             \n\
             Suppression: `// crlint-allow: CR001 <reason>` on or above\n\
             the line."
        }
        "CR002" => {
            "CR002 — panics in the algorithmic core.\n\
             \n\
             Bans `unwrap`/`expect` in non-test code of the core crates\n\
             (see the CR002 allowlist). The degradation ladder must be\n\
             able to trust that a solve returns an error instead of\n\
             unwinding mid-search.\n\
             \n\
             Motivating bug: PR 1 wrapped the planner in catch_unwind\n\
             precisely because the core could panic; the rule makes the\n\
             wrapper a second line of defense instead of the only one.\n\
             \n\
             Suppression: `// crlint-allow: CR002 <reason>` — used where\n\
             an invariant genuinely guarantees Some/Ok (say why)."
        }
        "CR003" => {
            "CR003 — wall-clock reads outside the timing seams.\n\
             \n\
             Bans `Instant::now`/`SystemTime::now` outside the budget\n\
             meter, telemetry, and the admission gate. Everything else\n\
             must be a pure function of its inputs so `--jobs N` output\n\
             is byte-identical.\n\
             \n\
             Motivating bug: PR 3's parallel runner diffed report bytes\n\
             across job counts; a stray timestamp in a report path is\n\
             exactly the nondeterminism that contract forbids.\n\
             \n\
             Suppression: `// crlint-allow: CR003 <reason>`, or add the\n\
             file to CR003_ALLOWED_FILES if it is a new timing seam."
        }
        "CR004" => {
            "CR004 — thread creation outside audited seams.\n\
             \n\
             Bans `thread::spawn`/`Builder::new` outside the speculative\n\
             planner and the service's accept loop and worker pool.\n\
             Searches stay single-threaded and cancellable; concurrency\n\
             lives behind the audited commit protocol.\n\
             \n\
             Motivating bug: the PR 3 speculation design review — a\n\
             thread spawned inside a search can outlive its budget and\n\
             write into freed scratch.\n\
             \n\
             Suppression: `// crlint-allow: CR004 <reason>`, or extend\n\
             CR004_THREAD_PATHS for a new audited seam."
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
        "CR006" => {
            "CR006 — unordered collections in report paths.\n\
             \n\
             Bans HashMap/HashSet (construction *or* type mention) in\n\
             modules whose output is byte-compared across `--jobs`. A\n\
             map that is only probed today becomes one that is iterated\n\
             tomorrow; BTreeMap/BTreeSet cost little and order\n\
             deterministically.\n\
             \n\
             Motivating bug: PR 3's `--jobs` byte-identity test — hash\n\
             iteration order varies per process, so one HashMap in a\n\
             render path fails the diff nondeterministically.\n\
             \n\
             Suppression: `// crlint-allow: CR006 <reason>`."
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
        "CR008" => {
            "CR008 — raw std::sync primitives in threaded crates.\n\
             \n\
             Bans `Mutex::new`/`RwLock::new`/`Condvar::new` outside\n\
             `core/src/lockcheck.rs` in the threaded crates. Every lock\n\
             must be a ranked `OrderedMutex`/`OrderedCondvar` so the\n\
             runtime rank checker sees the whole process: one raw Mutex\n\
             is a hole in the deadlock-freedom argument, because a cycle\n\
             through it is invisible to the checker.\n\
             \n\
             Motivating bug: PR 8's shard review — the single-flight\n\
             protocol nests pending inside cache locks; a refactor that\n\
             inverted the nesting would deadlock only under load, which\n\
             is exactly when it would first run.\n\
             \n\
             Suppression: `// crlint-allow: CR008 <reason>` — reserved\n\
             for locks provably never held across another acquire."
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
