//! Deterministic fault injection for resilience testing.
//!
//! A *failpoint* is a named site in the search code (e.g. `rbp::pop`)
//! that can be armed to misbehave on a precise hit count: force a budget
//! exhaustion, a panic, or a `NoFeasibleRoute`, at exactly the N-th time
//! the site is reached. This lets tests drive every rung of the planner's
//! degradation ladder without relying on timing or workload size.
//!
//! The registry is **thread-local**, so armed points never leak across
//! concurrently running tests. Code that fans work out to worker threads
//! (the batch planner above one job, cold or warm) inherits failpoints
//! explicitly: it snapshots the spawning thread's registry with
//! [`capture`] and each worker [`install`]s the snapshot before every
//! unit of work, so `CLOCKROUTE_FAILPOINTS` armed in a binary still fires
//! deterministically inside workers. Because the snapshot is re-installed
//! per unit of work, hit counts restart with each unit — `@N` means "the
//! N-th hit *within one net*" with workers, versus a global count at
//! `jobs` 1, where nets are routed inline on the calling thread. Arming
//! is either programmatic ([`arm`]) or environment-driven
//! ([`arm_from_env`]) for end-to-end tests that exercise the `crplan`
//! binary:
//!
//! ```text
//! CLOCKROUTE_FAILPOINTS="rbp::pop=budget@100,plan::net=panic@2+"
//! ```
//!
//! `@N` fires exactly once, on the N-th hit; `@N+` fires on the N-th hit
//! and every hit after it (sticky). Actions: `panic`, `budget`,
//! `noroute`, `ioerr`, `short`.
//!
//! The I/O actions (`ioerr`, `short`) exist for the service layer's
//! fault sites (`serve::read`, `serve::write`, `serve::persist`,
//! `serve::fsync`): `ioerr` makes the site behave as if the underlying
//! syscall returned an `io::Error`, `short` as if it transferred fewer
//! bytes than asked (a torn read or write). Search sites ignore them.
//!
//! When nothing is armed the per-hit cost is a thread-local boolean load,
//! so production callers pay essentially nothing.

use std::cell::RefCell;

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Panic with a message naming the site (exercises panic isolation).
    Panic,
    /// Behave as if the search budget were exhausted at this pop.
    BudgetExhausted,
    /// Behave as if the search proved infeasibility.
    NoRoute,
    /// At an I/O site: behave as if the operation failed with an
    /// `io::Error` (injected, deterministic).
    IoError,
    /// At an I/O site: transfer fewer bytes than requested — a short
    /// read (torn frame) or a short write (torn record).
    ShortIo,
}

#[derive(Debug, Clone)]
struct Armed {
    site: String,
    action: FailAction,
    /// 1-based hit count on which the action fires.
    at: u64,
    /// Fire on every hit ≥ `at` instead of only the `at`-th.
    sticky: bool,
    hits: u64,
}

thread_local! {
    static REGISTRY: RefCell<Vec<Armed>> = const { RefCell::new(Vec::new()) };
}

/// Arms `site` to perform `action` on its `at`-th hit (1-based), exactly
/// once. Several points may be armed at the same site.
pub fn arm(site: &str, action: FailAction, at: u64) {
    arm_with(site, action, at, false);
}

/// Arms `site` to perform `action` on every hit from the `at`-th onwards.
pub fn arm_sticky(site: &str, action: FailAction, at: u64) {
    arm_with(site, action, at, true);
}

fn arm_with(site: &str, action: FailAction, at: u64, sticky: bool) {
    REGISTRY.with(|r| {
        r.borrow_mut().push(Armed {
            site: site.to_owned(),
            action,
            at: at.max(1),
            sticky,
            hits: 0,
        });
    });
}

/// Disarms every failpoint on this thread.
pub fn disarm_all() {
    REGISTRY.with(|r| r.borrow_mut().clear());
}

/// A snapshot of one thread's armed failpoints, for handing to workers.
///
/// Obtained with [`capture`] on the arming thread; a worker [`install`]s
/// it to make the same failpoints (including their current hit counts)
/// active on its own thread. The set is immutable and cheap to clone.
#[derive(Debug, Clone, Default)]
pub struct ArmedSet {
    armed: Vec<Armed>,
}

impl ArmedSet {
    /// `true` when nothing is armed (install still clears the registry).
    pub fn is_empty(&self) -> bool {
        self.armed.is_empty()
    }
}

/// Snapshots the calling thread's registry, hit counts included.
pub fn capture() -> ArmedSet {
    REGISTRY.with(|r| ArmedSet {
        armed: r.borrow().clone(),
    })
}

/// Replaces the calling thread's registry with a snapshot.
///
/// Workers call this before each unit of work so hit counting restarts
/// from the snapshot's state every time, independent of how work was
/// distributed across threads.
pub fn install(set: &ArmedSet) {
    REGISTRY.with(|r| {
        *r.borrow_mut() = set.armed.clone();
    });
}

/// Records a hit at `site` and returns the action to perform, if any.
///
/// Search code calls this at instrumented sites; library users never
/// need to.
pub fn hit(site: &str) -> Option<FailAction> {
    REGISTRY.with(|r| {
        let mut reg = r.borrow_mut();
        if reg.is_empty() {
            return None;
        }
        let mut fired = None;
        for armed in reg.iter_mut().filter(|a| a.site == site) {
            armed.hits += 1;
            let fires = if armed.sticky {
                armed.hits >= armed.at
            } else {
                armed.hits == armed.at
            };
            if fires && fired.is_none() {
                fired = Some(armed.action);
            }
        }
        fired
    })
}

/// Parses one `site=action@N[+]` clause.
fn parse_clause(clause: &str) -> Result<(String, FailAction, u64, bool), String> {
    let (site, rest) = clause
        .split_once('=')
        .ok_or_else(|| format!("bad failpoint clause `{clause}` (expected site=action@N)"))?;
    let (action, count) = rest
        .split_once('@')
        .ok_or_else(|| format!("failpoint `{clause}` is missing `@N`"))?;
    let action = match action {
        "panic" => FailAction::Panic,
        "budget" => FailAction::BudgetExhausted,
        "noroute" => FailAction::NoRoute,
        "ioerr" => FailAction::IoError,
        "short" => FailAction::ShortIo,
        other => return Err(format!("unknown failpoint action `{other}`")),
    };
    let (count, sticky) = match count.strip_suffix('+') {
        Some(c) => (c, true),
        None => (count, false),
    };
    let at: u64 = count
        .parse()
        .map_err(|_| format!("bad failpoint count `{count}`"))?;
    Ok((site.trim().to_owned(), action, at, sticky))
}

/// Arms failpoints from a comma-separated spec string (the format of the
/// `CLOCKROUTE_FAILPOINTS` environment variable).
///
/// # Errors
///
/// Returns a description of the first malformed clause; earlier valid
/// clauses stay armed.
pub fn arm_from_spec(spec: &str) -> Result<(), String> {
    for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
        let (site, action, at, sticky) = parse_clause(clause.trim())?;
        arm_with(&site, action, at, sticky);
    }
    Ok(())
}

/// Arms failpoints from `CLOCKROUTE_FAILPOINTS`, if set. Intended for
/// binaries; does nothing when the variable is absent.
///
/// # Errors
///
/// Propagates [`arm_from_spec`] errors.
pub fn arm_from_env() -> Result<(), String> {
    match std::env::var("CLOCKROUTE_FAILPOINTS") {
        Ok(spec) => arm_from_spec(&spec),
        Err(_) => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_exactly_on_nth_hit() {
        disarm_all();
        arm("test::a", FailAction::NoRoute, 3);
        assert_eq!(hit("test::a"), None);
        assert_eq!(hit("test::a"), None);
        assert_eq!(hit("test::a"), Some(FailAction::NoRoute));
        assert_eq!(hit("test::a"), None); // one-shot
        disarm_all();
    }

    #[test]
    fn sticky_fires_from_nth_hit_onwards() {
        disarm_all();
        arm_sticky("test::b", FailAction::Panic, 2);
        assert_eq!(hit("test::b"), None);
        assert_eq!(hit("test::b"), Some(FailAction::Panic));
        assert_eq!(hit("test::b"), Some(FailAction::Panic));
        disarm_all();
    }

    #[test]
    fn sites_are_independent() {
        disarm_all();
        arm("test::c", FailAction::BudgetExhausted, 1);
        assert_eq!(hit("test::other"), None);
        assert_eq!(hit("test::c"), Some(FailAction::BudgetExhausted));
        disarm_all();
    }

    #[test]
    fn unarmed_is_silent() {
        disarm_all();
        assert_eq!(hit("test::anything"), None);
    }

    #[test]
    fn capture_and_install_carry_failpoints_across_threads() {
        disarm_all();
        arm("test::xthread", FailAction::NoRoute, 2);
        assert_eq!(hit("test::xthread"), None); // consume hit 1
        let snapshot = capture();
        let fired = std::thread::spawn(move || {
            // Fresh thread: nothing armed until the snapshot is installed.
            assert_eq!(hit("test::xthread"), None);
            install(&snapshot);
            // Hit count was captured at 1, so the next hit is the 2nd.
            let first = hit("test::xthread");
            // Re-install resets to the captured count; fires again.
            install(&snapshot);
            let second = hit("test::xthread");
            (first, second)
        })
        .join()
        .unwrap();
        assert_eq!(fired, (Some(FailAction::NoRoute), Some(FailAction::NoRoute)));
        disarm_all();
    }

    #[test]
    fn install_replaces_existing_registry() {
        disarm_all();
        let empty = capture();
        assert!(empty.is_empty());
        arm("test::replaced", FailAction::Panic, 1);
        install(&empty);
        assert_eq!(hit("test::replaced"), None);
        disarm_all();
    }

    #[test]
    fn spec_parsing_round_trip() {
        disarm_all();
        arm_from_spec("test::d=budget@2, test::e=panic@1+").unwrap();
        assert_eq!(hit("test::d"), None);
        assert_eq!(hit("test::d"), Some(FailAction::BudgetExhausted));
        assert_eq!(hit("test::e"), Some(FailAction::Panic));
        assert_eq!(hit("test::e"), Some(FailAction::Panic));
        disarm_all();
    }

    #[test]
    fn spec_errors_are_descriptive() {
        assert!(arm_from_spec("nonsense").unwrap_err().contains("clause"));
        assert!(arm_from_spec("a=panic").unwrap_err().contains("@N"));
        assert!(arm_from_spec("a=explode@1").unwrap_err().contains("action"));
        assert!(arm_from_spec("a=panic@zero").unwrap_err().contains("count"));
        disarm_all();
    }

    #[test]
    fn io_actions_parse_and_fire() {
        disarm_all();
        arm_from_spec("serve::read=short@1,serve::persist=ioerr@2").unwrap();
        assert_eq!(hit("serve::read"), Some(FailAction::ShortIo));
        assert_eq!(hit("serve::persist"), None);
        assert_eq!(hit("serve::persist"), Some(FailAction::IoError));
        disarm_all();
    }

    #[test]
    fn empty_spec_is_ok() {
        assert!(arm_from_spec("").is_ok());
        assert!(arm_from_spec(" , ").is_ok());
    }
}
