//! Sharded result cache with single-flight miss coalescing.
//!
//! The single `Mutex<ResultCache>` the service started with serializes
//! every lookup, insert, and warm scan — fine for one connection, a
//! wall for many. [`ShardedCache`] partitions the canonical-fingerprint
//! keyspace across N independent LRU shards (`shard = key mod N`), each
//! behind its own lock, so requests for different keys proceed without
//! contending. The paper's analogue is partitioning cores across TAM
//! wires so concurrent tests share the ceiling, not a single bus.
//!
//! **Single-flight.** Concurrent misses on the *same* fingerprint are
//! coalesced: the first thread to claim the key becomes the leader
//! (`Lookup::Lead`) and solves; followers block on the shard's condvar
//! and are answered from the leader's inserted entry
//! (`Lookup::Coalesced`) — one solve, many answers, one snapshot
//! record. The leader's [`SolveSlot`] releases followers on `Drop`,
//! which the service performs only *after* the fsynced append — so a
//! coalesced response is never sent before the bytes it echoes are
//! durable ("answered ⟹ durable" holds on every path).
//!
//! **Lock order.** Each shard has two locks: `cache` and `pending`.
//! The only place both are held is the miss path, which acquires
//! `pending` first and then re-checks `cache` under it (closing the
//! race where a leader completes between a thread's miss and its
//! claim). Nothing acquires `pending` while holding `cache`, and no
//! path touches two shards' locks at once except the warm scan, which
//! takes them strictly one at a time — so the order is acyclic and
//! deadlock-free. Since PR 9 this is machine-checked, not just
//! documented: both locks are [`OrderedMutex`]es
//! (`LockRank::Pending < LockRank::Cache`, all shards sharing the two
//! ranks), so an inverted acquire *or* any two shards held at once
//! panics in debug/lockcheck builds — see
//! [`clockroute_core::lockcheck`] and DESIGN.md §16.
//!
//! **Capacity.** The total budget is split evenly (`cap/N`, remainder
//! to the low shards), but every shard keeps room for at least one
//! entry whenever caching is enabled — otherwise a shard with budget 0
//! could never retain the solve its own leader just produced and
//! single-flight would degrade to solve-per-request for those keys.
//! The split can therefore overshoot `cap` by at most `N - 1`.
//!
//! Recency ticks come from one clock shared by all shards (see
//! [`ResultCache::with_clock`]), so [`export`](ShardedCache::export)
//! merges per-shard rows into the same global LRU order a 1-shard
//! cache would produce — snapshot bytes are shard-count-independent.

use crate::cache::{ResultCache, Solved, WarmPrior};
use clockroute_cli::scenario::Scenario;
use clockroute_core::lockcheck::{LockRank, OrderedCondvar, OrderedMutex};
use std::collections::BTreeSet;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

#[derive(Debug)]
struct Shard {
    /// Poison is ridden through inside `OrderedMutex`: a panicking
    /// solver must not wedge every later request for the same shard.
    cache: OrderedMutex<ResultCache>,
    /// Keys with a solve in flight. Guarded separately from `cache` so
    /// followers waiting on the condvar never hold up hits on other
    /// keys in the same shard.
    pending: OrderedMutex<BTreeSet<u64>>,
    /// Signalled by a leader's [`SolveSlot`] drop.
    done: OrderedCondvar,
}

/// What a request learns about its key (see module docs).
#[derive(Debug)]
pub enum Lookup<'a> {
    /// The entry was cached; recency bumped, solve skipped. Shared with
    /// the cache, not copied.
    Hit(Arc<Solved>),
    /// The entry was produced by a concurrent leader this thread waited
    /// for — same bytes as a hit, different accounting.
    Coalesced(Arc<Solved>),
    /// This thread claimed the key and must solve. Dropping the slot
    /// releases any coalesced waiters, so hold it until the entry is
    /// inserted *and* durable.
    Lead(SolveSlot<'a>),
}

/// The leader's claim on one in-flight key.
#[derive(Debug)]
pub struct SolveSlot<'a> {
    shard: &'a Shard,
    key: u64,
}

impl SolveSlot<'_> {
    /// Stores the leader's solve, returning
    /// `(evictions caused, shard len after)`.
    pub fn insert(&self, base: u64, scenario: Scenario, solved: Arc<Solved>) -> (u64, usize) {
        let mut cache = self.shard.cache.lock();
        let before = cache.evictions();
        cache.insert(self.key, base, scenario, solved);
        (cache.evictions() - before, cache.len())
    }
}

impl Drop for SolveSlot<'_> {
    fn drop(&mut self) {
        self.shard.pending.lock().remove(&self.key);
        self.shard.done.notify_all();
    }
}

/// N per-shard LRUs over one partitioned keyspace. All methods take
/// `&self`; shard locks are internal.
#[derive(Debug)]
pub struct ShardedCache {
    shards: Vec<Shard>,
}

impl ShardedCache {
    /// `shard_count` shards (clamped to at least 1) splitting a total
    /// capacity of roughly `cap` entries.
    pub fn new(shard_count: usize, cap: usize) -> ShardedCache {
        let n = shard_count.max(1);
        let clock = Arc::new(AtomicU64::new(0));
        let shards = (0..n)
            .map(|i| {
                let share = cap / n + usize::from(i < cap % n);
                let share = if cap == 0 { 0 } else { share.max(1) };
                Shard {
                    cache: OrderedMutex::new(
                        LockRank::Cache,
                        "shard.cache",
                        ResultCache::with_clock(share, clock.clone()),
                    ),
                    pending: OrderedMutex::new(LockRank::Pending, "shard.pending", BTreeSet::new()),
                    done: OrderedCondvar::new(),
                }
            })
            .collect();
        ShardedCache { shards }
    }

    fn shard(&self, key: u64) -> &Shard {
        // Vec len >= 1 by construction; usize truncation of the mod is
        // exact because the mod is < shard count.
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Number of shards (for stats and tests).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Resolves `key`: a cached answer, a coalesced answer after
    /// waiting out a concurrent leader, or leadership of the solve.
    pub fn lookup_or_claim(&self, key: u64, scenario: &Scenario) -> Lookup<'_> {
        let shard = self.shard(key);
        let mut waited = false;
        let answer = |s: Arc<Solved>, waited: bool| {
            if waited {
                Lookup::Coalesced(s)
            } else {
                Lookup::Hit(s)
            }
        };
        loop {
            if let Some(s) = shard.cache.lock().lookup(key, scenario) {
                return answer(s, waited);
            }
            let mut pending = shard.pending.lock();
            if !pending.contains(&key) {
                // Re-check under `pending`: a leader inserts into the
                // cache before clearing its claim, so an entry missed
                // above may exist by now; without this a thread racing
                // the leader's completion would redundantly re-solve.
                // (Pending → Cache is the one nested acquire; the rank
                // order exists so exactly this is legal and the
                // reverse is not.)
                if let Some(s) = shard.cache.lock().lookup(key, scenario) {
                    return answer(s, waited);
                }
                pending.insert(key);
                return Lookup::Lead(SolveSlot { shard, key });
            }
            waited = true;
            while pending.contains(&key) {
                pending = shard.done.wait(pending);
            }
            drop(pending);
            // Loop: usually the leader's entry is now a (coalesced)
            // hit; if it was evicted already — tiny caps — or the
            // leader failed, this thread claims leadership itself.
        }
    }

    /// Cross-shard warm scan: the globally most recent entry sharing
    /// `scenario`'s base, if its blockage delta fits `max_dirty`.
    /// Phase one reads every shard (one lock at a time) for its best
    /// candidate; phase two re-locks only the winner's shard. The entry
    /// may have been evicted between phases — then there is simply no
    /// warm start, which is always a safe answer.
    pub fn find_warm(&self, base: u64, scenario: &Scenario, max_dirty: usize) -> Option<WarmPrior> {
        let mut best: Option<(usize, u64, u64)> = None;
        for (i, shard) in self.shards.iter().enumerate() {
            if let Some((key, tick)) = shard.cache.lock().best_warm_candidate(base, scenario) {
                if best.is_none_or(|(_, _, best_tick)| tick > best_tick) {
                    best = Some((i, key, tick));
                }
            }
        }
        let (i, key, _) = best?;
        self.shards[i]
            .cache
            .lock()
            .warm_prior_for(key, scenario, max_dirty)
    }

    /// Direct insert, used by snapshot recovery (single-threaded, no
    /// coalescing needed). Routes to the owning shard, so replay lands
    /// entries exactly where live traffic would have put them.
    pub fn insert(&self, key: u64, base: u64, scenario: Scenario, solved: Arc<Solved>) {
        self.shard(key)
            .cache
            .lock()
            .insert(key, base, scenario, solved);
    }

    /// Total entries across shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.cache.lock().len()).sum()
    }

    /// `true` if nothing is cached anywhere.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total evictions across shards.
    pub fn evictions(&self) -> u64 {
        self.shards.iter().map(|s| s.cache.lock().evictions()).sum()
    }

    /// Per-shard entry counts, in shard order (for tests and stats).
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.cache.lock().len()).collect()
    }

    /// Every entry across all shards in global LRU order (least
    /// recently used first) — the snapshot writer's view. Owned rows
    /// (the solve shared, not copied): shard locks are taken one at a
    /// time, so borrows cannot be carried out.
    pub fn export(&self) -> Vec<(u64, u64, Scenario, Arc<Solved>)> {
        let mut rows: Vec<(u64, u64, u64, Scenario, Arc<Solved>)> = Vec::new();
        for shard in &self.shards {
            let cache = shard.cache.lock();
            rows.extend(
                cache
                    .export_ticked()
                    .into_iter()
                    .map(|(t, k, b, s, v)| (t, k, b, s.clone(), Arc::clone(v))),
            );
        }
        rows.sort_by_key(|&(tick, ..)| tick);
        rows.into_iter()
            .map(|(_, k, b, s, v)| (k, b, s, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{base_key, scenario_key};
    use clockroute_cli::scenario::parse;
    use std::sync::mpsc;

    fn scenario(block_x: u32) -> Scenario {
        parse(&format!(
            "die 10mm 10mm\ngrid 20 20\nblock hard {block_x} 2 {} 4\nnet comb name=a src=0,0 dst=19,19\n",
            block_x + 2
        ))
        .unwrap()
    }

    fn solved(tag: &str) -> Arc<Solved> {
        Arc::new(Solved {
            report: tag.to_owned(),
            ..Solved::default()
        })
    }

    /// Resolve to a solved answer, solving with `make` when leading.
    fn get_or_solve(cache: &ShardedCache, s: &Scenario, tag: &str) -> (Arc<Solved>, &'static str) {
        match cache.lookup_or_claim(scenario_key(s), s) {
            Lookup::Hit(v) => (v, "hit"),
            Lookup::Coalesced(v) => (v, "coalesced"),
            Lookup::Lead(slot) => {
                let v = solved(tag);
                slot.insert(base_key(s), s.clone(), Arc::clone(&v));
                (v, "lead")
            }
        }
    }

    #[test]
    fn keys_route_to_their_shard_and_totals_aggregate() {
        let cache = ShardedCache::new(4, 16);
        assert_eq!(cache.shard_count(), 4);
        let scenarios: Vec<Scenario> = (0..6).map(|i| scenario(2 + i)).collect();
        for (i, s) in scenarios.iter().enumerate() {
            let (_, path) = get_or_solve(&cache, s, &format!("v{i}"));
            assert_eq!(path, "lead");
        }
        assert_eq!(cache.len(), 6);
        assert_eq!(cache.shard_lens().iter().sum::<usize>(), 6);
        for s in &scenarios {
            let key = scenario_key(s);
            let lens = cache.shard_lens();
            // The entry is findable, and in exactly the mod shard.
            let (_, path) = get_or_solve(&cache, s, "never");
            assert_eq!(path, "hit");
            assert!(lens[(key % 4) as usize] > 0);
        }
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn hits_and_export_share_the_leaders_solve() {
        let cache = ShardedCache::new(2, 8);
        let s = scenario(3);
        let (led, _) = get_or_solve(&cache, &s, "x");
        let (hit, path) = get_or_solve(&cache, &s, "never");
        assert_eq!(path, "hit");
        assert!(
            Arc::ptr_eq(&led, &hit),
            "a hit shares the entry, never copies it"
        );
        let rows = cache.export();
        assert!(Arc::ptr_eq(&rows[0].3, &led), "export shares it too");
    }

    #[test]
    fn capacity_split_keeps_every_shard_usable() {
        // cap 1 over 8 shards: the naive split gives 7 shards zero
        // capacity; the floor of 1 keeps single-flight meaningful.
        let cache = ShardedCache::new(8, 1);
        for i in 0..8 {
            let s = scenario(2 + i);
            let (_, path) = get_or_solve(&cache, &s, "x");
            assert_eq!(path, "lead");
            let (_, again) = get_or_solve(&cache, &s, "never");
            assert_eq!(again, "hit", "every shard retains its last solve");
        }
        assert!(cache.len() <= 8, "overshoot bounded by shard count");
    }

    #[test]
    fn zero_capacity_disables_all_shards() {
        let cache = ShardedCache::new(4, 0);
        let s = scenario(2);
        let (_, path) = get_or_solve(&cache, &s, "x");
        assert_eq!(path, "lead");
        assert!(cache.is_empty());
        // No entry was kept, so the next request leads again.
        let (_, again) = get_or_solve(&cache, &s, "y");
        assert_eq!(again, "lead");
    }

    #[test]
    fn export_merges_shards_in_global_lru_order() {
        for shards in [1usize, 2, 8] {
            let cache = ShardedCache::new(shards, 64);
            let scenarios: Vec<Scenario> = (0..5).map(|i| scenario(2 + i)).collect();
            for (i, s) in scenarios.iter().enumerate() {
                get_or_solve(&cache, s, &format!("v{i}"));
            }
            // Touch v1 so it becomes globally most recent.
            get_or_solve(&cache, &scenarios[1], "never");
            let order: Vec<String> = cache
                .export()
                .into_iter()
                .map(|(_, _, _, v)| v.report.clone())
                .collect();
            assert_eq!(
                order,
                ["v0", "v2", "v3", "v4", "v1"],
                "{shards}-shard export must match the 1-shard LRU order"
            );
        }
    }

    #[test]
    fn single_flight_coalesces_a_concurrent_miss() {
        let cache = Arc::new(ShardedCache::new(2, 8));
        let s = scenario(3);
        let key = scenario_key(&s);

        // Deterministic interleaving: claim leadership on this thread,
        // then start a follower that must block until the slot drops.
        let slot = match cache.lookup_or_claim(key, &s) {
            Lookup::Lead(slot) => slot,
            other => panic!("fresh key must lead, got {other:?}"),
        };
        let (tx, rx) = mpsc::channel();
        let follower = {
            let cache = cache.clone();
            let s = s.clone();
            std::thread::spawn(move || {
                tx.send(()).unwrap(); // follower is about to block
                let outcome = cache.lookup_or_claim(key, &s);
                match outcome {
                    Lookup::Coalesced(v) => v.report.clone(),
                    other => panic!("follower must coalesce, got {other:?}"),
                }
            })
        };
        rx.recv().unwrap();
        // Give the follower time to reach the condvar; even if it has
        // not, it observes `pending` and waits — the assertion below
        // does not depend on this sleep.
        std::thread::sleep(std::time::Duration::from_millis(20));
        slot.insert(base_key(&s), s.clone(), solved("the-answer"));
        drop(slot); // release the follower only now
        assert_eq!(follower.join().unwrap(), "the-answer");

        // And the entry is a plain hit afterwards.
        let (v, path) = get_or_solve(&cache, &s, "never");
        assert_eq!((v.report.as_str(), path), ("the-answer", "hit"));
    }

    #[test]
    fn follower_reclaims_leadership_when_the_leader_fails() {
        let cache = ShardedCache::new(1, 8);
        let s = scenario(3);
        let key = scenario_key(&s);
        let slot = match cache.lookup_or_claim(key, &s) {
            Lookup::Lead(slot) => slot,
            other => panic!("fresh key must lead, got {other:?}"),
        };
        drop(slot); // leader gave up without inserting (solve error)
        let second = cache.lookup_or_claim(key, &s);
        assert!(
            matches!(second, Lookup::Lead(_)),
            "next request must lead again, got {second:?}"
        );
    }

    #[test]
    fn cross_shard_warm_scan_finds_the_most_recent_base_match() {
        let cache = ShardedCache::new(4, 16);
        let (s1, s2, s3) = (scenario(2), scenario(5), scenario(8));
        get_or_solve(&cache, &s1, "one");
        get_or_solve(&cache, &s2, "two");
        // s3 shares the base; the most recent of s1/s2 must win
        // regardless of which shards they landed in.
        let warm = cache.find_warm(base_key(&s3), &s3, 1 << 20).unwrap();
        assert!(!warm.dirty.is_empty());
        assert!(
            cache.find_warm(base_key(&s3), &s3, 1).is_none(),
            "delta cap"
        );
    }
}
