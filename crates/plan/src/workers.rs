//! The worker fan-outs of the workspace.
//!
//! Every fan-out runs through this module, so thread creation,
//! failpoint inheritance and the lock-free pin live in one place. There
//! are two shapes:
//!
//! * [`map_indexed`] — a fixed list of independent items on a shared
//!   cursor, results in index order: the commit scheduler's speculative
//!   routing ([`Planner::jobs`](crate::Planner::jobs)).
//! * [`beside`] — helpers that consume work while the calling thread
//!   produces it: flow mode (`clockroute-flow`) routes and legalizes
//!   nets on the helpers while the caller rips up, one fan-out per run.

use clockroute_core::failpoint::{self, ArmedSet};
use clockroute_core::lockcheck;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `work(&mut state, k)` for every `k` in `0..count` and returns
/// the results in index order.
///
/// Without `inherited` failpoints the items run inline on the calling
/// thread, in order, on one `init()` state and under the caller's own
/// failpoints: the one-job path. With them, up to `jobs` scoped worker
/// threads pull indices off a shared cursor, each on its own `init()`
/// state, and re-install `inherited` before every item, so failpoint
/// hit counts restart per item whichever worker takes it (see
/// [`clockroute_core::failpoint`]). Which worker runs which item
/// depends on scheduling; callers make each item's result a function of
/// its index alone, so the returned vector does not.
pub fn map_indexed<S, T>(
    jobs: usize,
    count: usize,
    inherited: Option<&ArmedSet>,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize) -> T + Sync,
) -> Vec<T>
where
    T: Send,
{
    let Some(inherited) = inherited else {
        let mut state = init();
        return (0..count).map(|k| work(&mut state, k)).collect();
    };
    let cursor = AtomicUsize::new(0);
    #[expect(
        clippy::disallowed_methods,
        reason = "the planner's fan-out is an audited thread seam (CR004)"
    )]
    #[expect(
        clippy::expect_used,
        reason = "work items catch their own panics (the planner's ladder); a panic crossing join is a harness bug"
    )]
    let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..jobs.max(1).min(count))
            .map(|_| {
                s.spawn(|| {
                    // A checked lock held across a unit of work would
                    // serialize the whole fan-out (and a rank below
                    // Telemetry would trip when a shard recorder locks);
                    // pin "workers start lock-free".
                    lockcheck::assert_lock_free("workers::map_indexed");
                    let mut state = init();
                    let mut mine = Vec::new();
                    loop {
                        let k = cursor.fetch_add(1, Ordering::Relaxed);
                        if k >= count {
                            break;
                        }
                        // Re-install before every item: hit counting
                        // restarts per item regardless of which worker
                        // picked it up.
                        failpoint::install(inherited);
                        mine.push((k, work(&mut state, k)));
                    }
                    mine
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, t)| t).collect()
}

/// The failpoints a [`beside`] fan-out runs its units of work under.
#[derive(Debug)]
pub struct Crew<'a> {
    inherited: Option<&'a ArmedSet>,
}

impl Crew<'_> {
    /// Runs one unit of work. With inherited failpoints they are
    /// re-installed first, so hit counts restart with each unit on
    /// whichever thread runs it, as [`map_indexed`]'s workers do with
    /// each item; without them the unit runs under the calling thread's
    /// own failpoints.
    pub fn item<T>(&self, work: impl FnOnce() -> T) -> T {
        if let Some(inherited) = self.inherited {
            failpoint::install(inherited);
        }
        work()
    }
}

/// Puts the calling thread's own failpoints back when a [`beside`]
/// fan-out ends, however it ends.
struct RestoreFailpoints(ArmedSet);

impl Drop for RestoreFailpoints {
    fn drop(&mut self) {
        failpoint::install(&self.0);
    }
}

/// Runs `caller` on the calling thread beside `helpers` scoped worker
/// threads, each running `helper` once, and returns `caller`'s result
/// after every helper has returned.
///
/// Caller and helpers hand work to each other through state the caller
/// owns (flow mode's board is a ranked lock and condvar); helpers start
/// lock-free, and `caller` must let them finish — a helper that waits
/// for work has to be told when there is no more, on unwinding too.
/// Units of work run through [`Crew::item`] on every thread. Without
/// `inherited` failpoints no helper starts and `caller` runs alone
/// under its own failpoints: the one-job path. With them, the caller's
/// units re-install them too, and the calling thread's own failpoints
/// are put back when the fan-out ends.
pub fn beside<R>(
    helpers: usize,
    inherited: Option<&ArmedSet>,
    helper: impl Fn(&Crew<'_>) + Sync,
    caller: impl FnOnce(&Crew<'_>) -> R,
) -> R {
    let crew = Crew { inherited };
    if inherited.is_none() {
        return caller(&crew);
    }
    let _restore = RestoreFailpoints(failpoint::capture());
    #[expect(
        clippy::disallowed_methods,
        reason = "flow mode's fan-out is an audited thread seam (CR004)"
    )]
    std::thread::scope(|s| {
        for _ in 0..helpers {
            s.spawn(|| {
                lockcheck::assert_lock_free("workers::beside");
                helper(&crew);
            });
        }
        caller(&crew)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_core::failpoint::FailAction;

    #[test]
    fn results_come_back_in_index_order_at_any_job_count() {
        let want: Vec<usize> = (0..50).map(|k| k * k).collect();
        let inherited = ArmedSet::default();
        for jobs in [1, 2, 4, 8] {
            let got = map_indexed(jobs, 50, Some(&inherited), || (), |_, k| k * k);
            assert_eq!(got, want, "jobs {jobs}");
        }
        assert_eq!(map_indexed(4, 50, None, || (), |_, k| k * k), want);
        assert!(map_indexed(4, 0, Some(&inherited), || (), |_, k| k).is_empty());
    }

    #[test]
    fn inline_items_share_one_state_in_order() {
        let seen = map_indexed(4, 5, None, Vec::new, |s: &mut Vec<usize>, k| {
            s.push(k);
            s.clone()
        });
        assert_eq!(seen[4], vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn beside_runs_helpers_and_restores_the_callers_failpoints() {
        use std::sync::atomic::AtomicU64;
        failpoint::disarm_all();
        failpoint::arm_sticky("test::beside", FailAction::NoRoute, 2);
        let inherited = failpoint::capture();
        failpoint::disarm_all();
        failpoint::arm("test::own", FailAction::Panic, 5);
        let helped = AtomicU64::new(0);
        let fired = beside(
            3,
            Some(&inherited),
            |crew| {
                // Each unit restarts the count: the second hit fires.
                let f = crew.item(|| {
                    [
                        failpoint::hit("test::beside"),
                        failpoint::hit("test::beside"),
                    ]
                });
                assert_eq!(f, [None, Some(FailAction::NoRoute)]);
                helped.fetch_add(1, Ordering::Relaxed);
            },
            |crew| crew.item(|| failpoint::hit("test::beside")),
        );
        assert_eq!(fired, None);
        assert_eq!(helped.load(Ordering::Relaxed), 3);
        // The caller's own set is back, its hit count untouched.
        assert_eq!(failpoint::hit("test::beside"), None);
        assert_eq!(
            (0..5).filter_map(|_| failpoint::hit("test::own")).count(),
            1
        );
        failpoint::disarm_all();

        // Without inherited failpoints nothing starts beside the caller.
        let out = beside(
            4,
            None,
            |_| unreachable!("no helper runs"),
            |crew| crew.item(|| 7),
        );
        assert_eq!(out, 7);
    }

    #[test]
    fn workers_restart_failpoint_counts_per_item() {
        failpoint::disarm_all();
        failpoint::arm("test::workers", FailAction::NoRoute, 1);
        let inherited = failpoint::capture();
        failpoint::disarm_all();
        let fired = map_indexed(
            2,
            6,
            Some(&inherited),
            || (),
            |_, _| failpoint::hit("test::workers"),
        );
        assert_eq!(fired, vec![Some(FailAction::NoRoute); 6]);
    }
}
