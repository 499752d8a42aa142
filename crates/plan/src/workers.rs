//! The one worker loop of the workspace.
//!
//! Every fan-out — the commit scheduler's speculative routing
//! ([`Planner::jobs`](crate::Planner::jobs)) and flow mode's price
//! rounds and legalization (`clockroute-flow`) — runs through
//! [`map_indexed`], so thread creation, failpoint inheritance and the
//! lock-free pin live in one place.

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
            // crlint-allow: CR002 work items catch their own panics (the planner's ladder); a panic crossing join is a harness bug
            .flat_map(|h| h.join().expect("worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|(k, _)| *k);
    done.into_iter().map(|(_, t)| t).collect()
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
