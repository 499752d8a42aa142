//! Bounded LRU cache of solved scenarios, keyed by canonical hash.
//!
//! Each entry keeps the parsed [`Scenario`] alongside its solve so
//! lookups can be verified *structurally* — a canonical-hash collision
//! degrades to a miss, it never serves a wrong answer. Entries are
//! also indexed by their blockage-independent base key, which is what
//! makes near-miss warm-starting possible: a request whose base
//! matches a cached entry but whose blocks differ re-routes only the
//! nets whose footprints intersect the blockage delta (see
//! [`crate::keys::block_delta`]).
//!
//! The map is a `BTreeMap`, not a hash map, so iteration order — and
//! therefore which base-key candidate wins when several match — is
//! deterministic across runs and platforms.
//!
//! The memo works on wire bytes in both directions. Each entry keeps
//! its report escaped once as a JSON string literal, spliced into every
//! `ok` response it answers, and a few raw `scenario` literals of
//! requests whose decoded text parsed to its scenario (its *aliases*),
//! so an exact repeat is answered without decoding or parsing: an alias
//! matches only on equal length and equal bytes, never on a hash.
//! Aliases live and die with their entry — eviction and same-key
//! replacement drop them, a zero-capacity cache never holds one — and
//! they are never exported, so snapshots do not carry them.

use crate::keys::{block_delta, same_base, same_blocks};
use clockroute_cli::scenario::Scenario;
use clockroute_core::json::json_string;
use clockroute_plan::TracedPlan;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Everything a `route` response needs, as produced by a cold solve.
/// A cache hit replays these fields verbatim, which is what makes hit
/// responses byte-identical to cold ones. The cache holds each one
/// behind an `Arc`, so a hit shares the entry instead of copying it.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Solved {
    /// The plan plus per-net footprints (for warm-starting later).
    pub traced: TracedPlan,
    /// Rendered per-net report — byte-identical to `crplan --quiet`.
    pub report: String,
    /// Nets routed (possibly degraded).
    pub routed: usize,
    /// Nets that failed outright.
    pub failed: usize,
    /// Nets routed by a fallback ladder rung.
    pub degraded: usize,
}

/// A solve as the cache holds it and the service answers with it: the
/// solve, plus its report escaped once as a JSON string literal, so no
/// `ok` response escapes the report again.
#[derive(Debug)]
pub struct Answer {
    /// The solve.
    pub solved: Arc<Solved>,
    /// `json_string(&solved.report)`, quotes included.
    pub report_literal: String,
}

impl Answer {
    /// Escapes `solved`'s report: once per solve entering the cache or
    /// replayed from a snapshot.
    pub fn new(solved: Arc<Solved>) -> Answer {
        let report_literal = json_string(&solved.report);
        Answer {
            solved,
            report_literal,
        }
    }
}

/// Scenario literals kept per entry. Four is the number of textual
/// forms the `serve_hit` benchmark sends per scenario (`STYLES` in
/// `perfbench/src/gen.rs`: plain, comments, CRLF, reordered blocks),
/// each with one escaping; later literals of a full entry take the
/// parse path.
const MAX_ALIASES: usize = 4;

/// One cached scenario.
#[derive(Debug, Clone)]
struct Entry {
    base: u64,
    scenario: Scenario,
    answer: Arc<Answer>,
    last_used: u64,
    /// Raw `scenario` literals (quotes included) of requests whose
    /// decoded text parsed to `scenario`: at most [`MAX_ALIASES`], no
    /// spare capacity per literal.
    aliases: Vec<Box<str>>,
}

impl Entry {
    fn has_alias(&self, literal: &str) -> bool {
        self.aliases
            .iter()
            .any(|a| a.len() == literal.len() && a.as_bytes() == literal.as_bytes())
    }
}

/// A warm-start candidate pulled from the cache.
#[derive(Debug, Clone)]
pub struct WarmPrior {
    /// The cached solve to reuse nets from (its `traced` plan).
    pub solved: Arc<Solved>,
    /// Grid points invalidated by the blockage delta.
    pub dirty: Vec<clockroute_geom::Point>,
}

/// Bounded LRU over canonical scenario keys.
///
/// Recency ticks come from a shared atomic clock so several caches —
/// the per-shard LRUs of [`crate::shard::ShardedCache`] — order their
/// entries on one global timeline: exports merged across shards sort
/// identically no matter how the keyspace was partitioned.
#[derive(Debug)]
pub struct ResultCache {
    cap: usize,
    clock: Arc<AtomicU64>,
    entries: BTreeMap<u64, Entry>,
    evictions: u64,
}

impl ResultCache {
    /// An empty cache holding at most `cap` solves (`cap == 0` disables
    /// caching entirely), with its own private recency clock.
    pub fn new(cap: usize) -> ResultCache {
        ResultCache::with_clock(cap, Arc::new(AtomicU64::new(0)))
    }

    /// An empty cache drawing recency ticks from `clock`, shared with
    /// sibling shards.
    pub fn with_clock(cap: usize, clock: Arc<AtomicU64>) -> ResultCache {
        ResultCache {
            cap,
            clock,
            entries: BTreeMap::new(),
            evictions: 0,
        }
    }

    /// Number of cached solves.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total entries evicted to honour the capacity bound.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    fn next_tick(&mut self) -> u64 {
        // Relaxed is enough: ticks only need to be unique and roughly
        // monotonic per entry touch; entry state itself is guarded by
        // the shard lock the caller holds.
        self.clock.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Exact lookup: the stored answer for `scenario` if an entry with
    /// this `key` exists *and* structurally matches. Bumps recency.
    pub fn lookup(&mut self, key: u64, scenario: &Scenario) -> Option<Arc<Answer>> {
        let tick = self.next_tick();
        let entry = self.entries.get_mut(&key)?;
        if !(same_base(&entry.scenario, scenario) && same_blocks(&entry.scenario, scenario)) {
            // A 64-bit collision: treat as a miss; the insert after the
            // cold solve will replace this slot.
            return None;
        }
        entry.last_used = tick;
        Some(Arc::clone(&entry.answer))
    }

    /// Records `literal` as an alias of entry `key`, unless the entry is
    /// gone, already holds it, or is full. The caller must hold the
    /// lock under which it verified that the literal's decoded text
    /// parses to the entry's scenario (a [`lookup`](Self::lookup) hit
    /// or the insert itself).
    pub fn remember(&mut self, key: u64, literal: &str) {
        if let Some(entry) = self.entries.get_mut(&key) {
            if entry.aliases.len() < MAX_ALIASES && !entry.has_alias(literal) {
                entry.aliases.push(literal.into());
            }
        }
    }

    /// Memo scan: the key and net count of the entry holding exactly
    /// `literal` as an alias. Read-only — recency is bumped only by
    /// [`lookup_alias`](Self::lookup_alias).
    pub fn find_alias(&self, literal: &str) -> Option<(u64, usize)> {
        self.entries
            .iter()
            .find(|(_, e)| e.has_alias(literal))
            .map(|(k, e)| (*k, e.scenario.nets.len()))
    }

    /// Memo hit: the stored answer of entry `key` if it still holds
    /// exactly `literal` as an alias (it may have been evicted or
    /// replaced since [`find_alias`](Self::find_alias)). Bumps recency.
    pub fn lookup_alias(&mut self, key: u64, literal: &str) -> Option<Arc<Answer>> {
        let tick = self.next_tick();
        let entry = self.entries.get_mut(&key)?;
        if !entry.has_alias(literal) {
            return None;
        }
        entry.last_used = tick;
        Some(Arc::clone(&entry.answer))
    }

    /// Near-miss lookup: the most recently used entry sharing
    /// `scenario`'s base (same die, grid, tech, nets, reservation) with
    /// a blockage delta of at most `max_dirty` grid points. Bumps the
    /// chosen entry's recency.
    pub fn find_warm(
        &mut self,
        base: u64,
        scenario: &Scenario,
        max_dirty: usize,
    ) -> Option<WarmPrior> {
        let (key, _) = self.best_warm_candidate(base, scenario)?;
        self.warm_prior_for(key, scenario, max_dirty)
    }

    /// Phase one of a (possibly cross-shard) warm search: the most
    /// recently used entry sharing `scenario`'s base, as
    /// `(key, last_used)`. Read-only — recency is bumped only when the
    /// winning candidate is actually taken via
    /// [`warm_prior_for`](Self::warm_prior_for).
    pub fn best_warm_candidate(&self, base: u64, scenario: &Scenario) -> Option<(u64, u64)> {
        self.entries
            .iter()
            .filter(|(_, e)| e.base == base && same_base(&e.scenario, scenario))
            .max_by_key(|(_, e)| e.last_used)
            .map(|(k, e)| (*k, e.last_used))
    }

    /// Phase two: the warm prior from entry `key`, if its blockage
    /// delta stays within `max_dirty` grid points. Bumps recency on
    /// success.
    pub fn warm_prior_for(
        &mut self,
        key: u64,
        scenario: &Scenario,
        max_dirty: usize,
    ) -> Option<WarmPrior> {
        let tick = self.next_tick();
        let entry = self.entries.get_mut(&key)?;
        let dirty = block_delta(&entry.scenario, scenario);
        if dirty.len() > max_dirty {
            return None;
        }
        entry.last_used = tick;
        Some(WarmPrior {
            solved: Arc::clone(&entry.answer.solved),
            dirty,
        })
    }

    /// Every entry in LRU order (least recently used first), as
    /// `(key, base, scenario, solved)` — the snapshot writer's view.
    /// Replaying the list through [`insert`](Self::insert) in order
    /// reproduces both the contents and the eviction order.
    pub fn export(&self) -> Vec<(u64, u64, &Scenario, &Arc<Solved>)> {
        self.export_ticked()
            .into_iter()
            .map(|(_, k, b, s, v)| (k, b, s, v))
            .collect()
    }

    /// Like [`export`](Self::export) but with each entry's recency tick
    /// leading the tuple, so rows from several shards can be merged
    /// into one global LRU order (ticks come from the shared clock and
    /// are unique across shards).
    pub fn export_ticked(&self) -> Vec<(u64, u64, u64, &Scenario, &Arc<Solved>)> {
        let mut rows: Vec<(&u64, &Entry)> = self.entries.iter().collect();
        rows.sort_by_key(|(_, e)| e.last_used);
        rows.into_iter()
            .map(|(k, e)| (e.last_used, *k, e.base, &e.scenario, &e.answer.solved))
            .collect()
    }

    /// Stores an answer, evicting the least recently used entry if the
    /// cache is full. A no-op when the capacity is zero. Replacing an
    /// entry under the same key drops the old entry's aliases.
    pub fn insert(&mut self, key: u64, base: u64, scenario: Scenario, answer: Arc<Answer>) {
        if self.cap == 0 {
            return;
        }
        let tick = self.next_tick();
        self.entries.insert(
            key,
            Entry {
                base,
                scenario,
                answer,
                last_used: tick,
                aliases: Vec::new(),
            },
        );
        while self.entries.len() > self.cap {
            // Oldest tick loses; ties are impossible (ticks are unique).
            if let Some(oldest) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.entries.remove(&oldest);
                self.evictions += 1;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::{base_key, scenario_key};
    use clockroute_cli::scenario::parse;

    fn text(block_x: u32) -> String {
        format!(
            "die 10mm 10mm\ngrid 20 20\nblock hard {block_x} 2 {} 4\nnet comb name=a src=0,0 dst=19,19\n",
            block_x + 2
        )
    }

    fn scenario(block_x: u32) -> Scenario {
        parse(&text(block_x)).unwrap()
    }

    /// `text` as a request carries it: a JSON string literal.
    fn literal(block_x: u32) -> String {
        json_string(&text(block_x))
    }

    fn solved(tag: &str) -> Arc<Answer> {
        Arc::new(Answer::new(Arc::new(Solved {
            report: tag.to_owned(),
            ..Solved::default()
        })))
    }

    fn report_of(cache: &mut ResultCache, s: &Scenario) -> Option<String> {
        cache
            .lookup(scenario_key(s), s)
            .map(|v| v.solved.report.clone())
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut cache = ResultCache::new(2);
        let (s1, s2, s3) = (scenario(2), scenario(5), scenario(8));
        for (s, tag) in [(&s1, "one"), (&s2, "two")] {
            cache.insert(scenario_key(s), base_key(s), s.clone(), solved(tag));
        }
        // Touch s1 so s2 becomes the eviction victim.
        assert_eq!(report_of(&mut cache, &s1).as_deref(), Some("one"));
        cache.insert(
            scenario_key(&s3),
            base_key(&s3),
            s3.clone(),
            solved("three"),
        );
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(report_of(&mut cache, &s2).is_none(), "s2 evicted");
        assert!(report_of(&mut cache, &s1).is_some());
        assert!(report_of(&mut cache, &s3).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut cache = ResultCache::new(0);
        let s = scenario(2);
        cache.insert(scenario_key(&s), base_key(&s), s.clone(), solved("x"));
        assert!(cache.is_empty());
        assert!(report_of(&mut cache, &s).is_none());
    }

    #[test]
    fn warm_candidate_requires_matching_base() {
        let mut cache = ResultCache::new(4);
        let s1 = scenario(2);
        cache.insert(scenario_key(&s1), base_key(&s1), s1.clone(), solved("one"));
        // Same base, moved block: warm candidate with a bounded delta.
        let s2 = scenario(5);
        let warm = cache.find_warm(base_key(&s2), &s2, 1024).unwrap();
        assert!(!warm.dirty.is_empty());
        assert!(
            cache.find_warm(base_key(&s2), &s2, 1).is_none(),
            "delta cap"
        );
        // Different nets: no candidate despite sharing the die.
        let s3 = parse(
            "die 10mm 10mm\ngrid 20 20\nblock hard 2 2 4 4\nnet comb name=zz src=0,0 dst=19,19\n",
        )
        .unwrap();
        assert!(cache.find_warm(base_key(&s3), &s3, 1024).is_none());
    }

    #[test]
    fn export_is_in_lru_order() {
        let mut cache = ResultCache::new(4);
        let (s1, s2) = (scenario(2), scenario(5));
        cache.insert(scenario_key(&s1), base_key(&s1), s1.clone(), solved("one"));
        cache.insert(scenario_key(&s2), base_key(&s2), s2.clone(), solved("two"));
        // Touch s1: it becomes most recent, so it exports last.
        assert!(report_of(&mut cache, &s1).is_some());
        let order: Vec<String> = cache
            .export()
            .into_iter()
            .map(|(_, _, _, v)| v.report.clone())
            .collect();
        assert_eq!(order, ["two", "one"]);
    }

    #[test]
    fn capacities_separate_cache_entries() {
        // Two scenarios equal in every respect except the capacity
        // section must hash to distinct keys and keep distinct cached
        // answers — a capacitated solve must never serve an
        // unconstrained request or vice versa.
        const BASE: &str = "die 10mm 10mm\ngrid 20 20\nnet comb name=a src=0,0 dst=19,19\n";
        let open = parse(BASE).unwrap();
        let capped = parse(&format!("{BASE}capacity default 1\n")).unwrap();
        assert_ne!(scenario_key(&open), scenario_key(&capped));

        let mut cache = ResultCache::new(4);
        cache.insert(
            scenario_key(&open),
            base_key(&open),
            open.clone(),
            solved("open"),
        );
        cache.insert(
            scenario_key(&capped),
            base_key(&capped),
            capped.clone(),
            solved("capped"),
        );
        assert_eq!(report_of(&mut cache, &open).as_deref(), Some("open"));
        assert_eq!(report_of(&mut cache, &capped).as_deref(), Some("capped"));
        // Even a forged key cross-lookup is rejected structurally:
        // same_base compares the capacity sections.
        assert!(cache.lookup(scenario_key(&open), &capped).is_none());
        // And warm-start never crosses a capacity change either — a
        // capacitated request falls back to a cold solve.
        let mut fresh = ResultCache::new(4);
        fresh.insert(scenario_key(&open), base_key(&open), open, solved("open"));
        assert!(fresh.find_warm(base_key(&capped), &capped, 1024).is_none());
    }

    #[test]
    fn collision_degrades_to_miss() {
        let mut cache = ResultCache::new(4);
        let s1 = scenario(2);
        let s2 = scenario(5);
        // Deliberately file s1's solve under s2's key, with s1's text
        // as an alias.
        let key = scenario_key(&s2);
        cache.insert(key, base_key(&s1), s1, solved("wrong"));
        cache.remember(key, &literal(2));
        assert!(
            report_of(&mut cache, &s2).is_none(),
            "structural verification rejects the colliding entry"
        );
        // The cold solve's insert replaces the slot: no alias of the
        // old entry may serve its answer any more.
        cache.insert(key, base_key(&s2), s2.clone(), solved("right"));
        assert!(cache.find_alias(&literal(2)).is_none());
        assert!(cache.lookup_alias(key, &literal(2)).is_none());
        assert_eq!(report_of(&mut cache, &s2).as_deref(), Some("right"));
    }

    #[test]
    fn aliases_are_exact_bytes_and_bounded() {
        let mut cache = ResultCache::new(4);
        let s = scenario(2);
        let key = scenario_key(&s);
        cache.insert(key, base_key(&s), s, solved("two"));
        let forms: Vec<String> = (0..MAX_ALIASES + 2)
            .map(|i| json_string(&format!("{}{}", "# pad\n".repeat(i), text(2))))
            .collect();
        for form in &forms {
            cache.remember(key, form);
            cache.remember(key, form); // a repeat is not stored twice
        }
        for (i, form) in forms.iter().enumerate() {
            let held = cache.find_alias(form).is_some();
            assert_eq!(held, i < MAX_ALIASES, "alias {i}");
            assert_eq!(cache.lookup_alias(key, form).is_some(), held);
        }
        // One byte off, same length: no hit; nor the same text escaped
        // another way.
        let mutant = literal(2).replacen("die", "dIe", 1);
        assert!(cache.find_alias(&mutant).is_none());
        assert!(cache.lookup_alias(key, &mutant).is_none());
        let mutant = literal(2).replace("\\n", "\\u000a");
        assert!(cache.find_alias(&mutant).is_none());
        assert!(cache.lookup_alias(key, &mutant).is_none());
    }
}
