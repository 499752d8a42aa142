//! Shared search-engine internals: candidate arena, priority queue and
//! inferiority pruning.
//!
//! All four searches (fast path, RBP, GALS, latch) are label-correcting
//! searches over the grid graph whose candidates carry a downstream
//! capacitance `c` and a delay `d`. This module holds the data
//! structures they share; the search loop over them is
//! [`search`](crate::search).

use clockroute_elmore::GateId;
use clockroute_grid::NodeId;
use std::cmp::Ordering;
#[cfg(test)]
use std::collections::BinaryHeap;
use std::collections::VecDeque;

pub(crate) const NO_PARENT: u32 = u32::MAX;

/// One step of a partial route, stored in a persistent arena so candidate
/// extension is O(1) and path reconstruction is a parent walk.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Step {
    pub node: NodeId,
    pub gate: Option<GateId>,
    pub parent: u32,
}

/// Size of one arena step record, for arena-memory telemetry.
pub(crate) fn step_size_bytes() -> usize {
    std::mem::size_of::<Step>()
}

/// Append-only arena of [`Step`]s shared by all candidates of a search.
#[derive(Debug, Default)]
pub(crate) struct Arena {
    steps: Vec<Step>,
}

impl Arena {
    pub fn new() -> Arena {
        Arena::default()
    }

    /// Number of steps allocated — the budget meter's arena-memory
    /// measure (each step is one fixed-size record).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Empties the arena, keeping its capacity for the next search.
    pub fn clear(&mut self) {
        self.steps.clear();
    }

    /// Bytes the arena holds, for the scratch ceiling.
    pub fn held_bytes(&self) -> usize {
        self.steps.capacity() * std::mem::size_of::<Step>()
    }

    pub fn push(&mut self, node: NodeId, gate: Option<GateId>, parent: u32) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "arena growth is capped by the budget meter well below u32::MAX steps"
        )]
        let id = u32::try_from(self.steps.len()).expect("arena overflow");
        self.steps.push(Step { node, gate, parent });
        id
    }

    /// Bounding box of every node an arena step was allocated for.
    ///
    /// All grid state a search reads is at or adjacent to such a node, so
    /// this box (dilated by one step) over-approximates the search's read
    /// set — see [`TouchedRegion`](crate::TouchedRegion).
    pub fn touched(&self, graph: &clockroute_grid::GridGraph) -> Option<crate::TouchedRegion> {
        let mut steps = self.steps.iter();
        let mut region = crate::TouchedRegion::of_point(graph.point(steps.next()?.node));
        for step in steps {
            region.include(graph.point(step.node));
        }
        Some(region)
    }

    /// Walks from `trail` (the source-side head) to the root (the sink),
    /// merging consecutive same-node steps (a gate-insertion step shares
    /// its node with the arrival step it decorates).
    ///
    /// Returns `(nodes, labels)` in source→sink order.
    pub fn reconstruct(&self, trail: u32) -> (Vec<NodeId>, Vec<Option<GateId>>) {
        let mut nodes = Vec::new();
        let mut labels: Vec<Option<GateId>> = Vec::new();
        let mut cur = trail;
        while cur != NO_PARENT {
            let step = self.steps[cur as usize];
            if nodes.last() == Some(&step.node) {
                // Same node: keep the strongest label seen (gate steps are
                // pushed after arrival steps, so the gate is already
                // recorded; arrival steps carry `None`).
                if let Some(last @ None) = labels.last_mut() {
                    *last = step.gate;
                }
            } else {
                nodes.push(step.node);
                labels.push(step.gate);
            }
            cur = step.parent;
        }
        (nodes, labels)
    }
}

/// A partial solution. Field meaning follows the paper's candidate tuples
/// `(c, d, m, v)` (fast path / RBP) and `(c, d, m, v, z, l)` (GALS); the
/// labelling `m` is materialised lazily through the arena `trail`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Cand {
    /// Downstream input capacitance seen at `node`, in fF.
    pub cap: f64,
    /// Delay from `node` to the most recent downstream synchronizer (or
    /// the sink), in ps. For fast path this is the full delay to `t`.
    pub delay: f64,
    pub node: NodeId,
    /// Arena index of the head step.
    pub trail: u32,
    /// `true` if the candidate's labelling already places a gate at
    /// `node` (then no further insertion may occur here).
    pub gate_here: bool,
    /// GALS: `true` once the MCFIFO has been inserted (paper's `z`).
    pub fifo_inserted: bool,
    /// GALS: accumulated latency `l` from the last synchronizer to `t`.
    pub latency: f64,
    /// Delay of the stage adjacent to the sink (fixed once the first
    /// synchronizer is inserted); used by the slack tie-break.
    pub sink_stage: f64,
    /// Latch extension: cumulative time borrowed so far, in ps.
    pub borrowed: f64,
    /// Fast path: candidate represents a completed route (source gate
    /// delay already added); popping it terminates the search.
    pub finalized: bool,
}

impl Cand {
    pub fn start(cap: f64, delay: f64, trail: u32, node: NodeId) -> Cand {
        Cand {
            cap,
            delay,
            node,
            trail,
            gate_here: true,
            fifo_inserted: false,
            latency: 0.0,
            sink_stage: f64::NAN,
            borrowed: 0.0,
            finalized: false,
        }
    }
}

/// A Pareto entry of the [`PruneTable`] reference model.
///
/// `capable` is `true` when the candidate can still receive a gate at its
/// node (`m(v) = 0`); a gate-bearing candidate must never prune a
/// still-capable one at equal `(c, d)`, or a legal insertion could be
/// lost. `extra` is a third dominated dimension used by the latch
/// extension (borrowed time); it is 0 elsewhere.
#[cfg(test)]
#[derive(Debug, Clone, Copy)]
struct Entry {
    cap: f64,
    delay: f64,
    extra: f64,
    capable: bool,
}

#[cfg(test)]
impl Entry {
    /// `self` dominates `other` (other may be pruned).
    fn dominates(&self, other: &Entry) -> bool {
        self.cap <= other.cap
            && self.delay <= other.delay
            && self.extra <= other.extra
            && (self.capable || !other.capable)
    }

    /// Strict domination: at least one coordinate strictly better, so the
    /// dominated candidate cannot be the entry itself.
    fn dominates_strictly(&self, other: &Entry) -> bool {
        self.dominates(other)
            && (self.cap < other.cap
                || self.delay < other.delay
                || self.extra < other.extra
                || (self.capable && !other.capable))
    }
}

/// Per-key Pareto fronts as unsorted lists with linear-scan dominance.
/// Test-only: the searches run on [`SortedFronts`]; this table survives
/// as the decision model the sorted fronts are property-tested against.
///
/// Keys are `node.index()` for single-domain searches and
/// `node.index() * 2 + z` for GALS (separate fronts per `z`, per the
/// paper's rule that candidates with different `z` are never compared).
#[cfg(test)]
pub(crate) struct PruneTable {
    lists: Vec<Vec<Entry>>,
    stamps: Vec<u64>,
    epoch: u64,
    comparisons: u64,
}

#[cfg(test)]
impl PruneTable {
    pub fn new(keys: usize) -> PruneTable {
        PruneTable {
            lists: vec![Vec::new(); keys],
            stamps: vec![0; keys],
            epoch: 1,
            comparisons: 0,
        }
    }

    /// Total pairwise entry comparisons performed by dominance checks —
    /// the work measure the sorted-frontier rewrite is judged against.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Starts a new wave front: all fronts are (lazily) cleared.
    pub fn advance_wave(&mut self) {
        self.epoch += 1;
    }

    /// Attempts to admit a candidate with the given coordinates.
    ///
    /// Returns `false` (and leaves the front unchanged) if an existing
    /// entry dominates it; otherwise inserts it, evicts entries it
    /// dominates, and returns `true`. `evicted` is incremented by the
    /// number of entries removed.
    pub fn try_admit(
        &mut self,
        key: usize,
        cap: f64,
        delay: f64,
        extra: f64,
        capable: bool,
        evicted: &mut u64,
    ) -> bool {
        let entry = Entry {
            cap,
            delay,
            extra,
            capable,
        };
        if self.stamps[key] != self.epoch {
            self.stamps[key] = self.epoch;
            self.lists[key].clear();
        }
        let mut scanned = 0u64;
        let dominated = self.lists[key].iter().any(|e| {
            scanned += 1;
            e.dominates(&entry)
        });
        if dominated {
            self.comparisons += scanned;
            return false;
        }
        let list = &mut self.lists[key];
        scanned += list.len() as u64;
        self.comparisons += scanned;
        let before = list.len();
        list.retain(|e| !entry.dominates(e));
        *evicted += (before - list.len()) as u64;
        list.push(entry);
        true
    }

    /// `true` if the candidate has become stale: some entry now strictly
    /// dominates it (it can no longer be on the Pareto front).
    pub fn is_stale(
        &mut self,
        key: usize,
        cap: f64,
        delay: f64,
        extra: f64,
        capable: bool,
    ) -> bool {
        let entry = Entry {
            cap,
            delay,
            extra,
            capable,
        };
        if self.stamps[key] != self.epoch {
            self.stamps[key] = self.epoch;
            self.lists[key].clear();
        }
        let mut scanned = 0u64;
        let stale = self.lists[key].iter().any(|e| {
            scanned += 1;
            e.dominates_strictly(&entry)
        });
        self.comparisons += scanned;
        stale
    }
}

const FLAG_GATE_HERE: u8 = 1 << 0;
const FLAG_FIFO_INSERTED: u8 = 1 << 1;
const FLAG_FINALIZED: u8 = 1 << 2;
const FLAG_DEAD: u8 = 1 << 3;

/// Struct-of-arrays candidate store addressed by `u32` indices.
///
/// The queue and the frontier table hold bare indices into this arena.
/// A frontier eviction marks the index dead instead of removing it from
/// the queue; the search loop skips dead pops before charging any budget
/// or telemetry. A dead candidate is strictly dominated, so the stale
/// test would have skipped it anyway — skipping it first saves the
/// charge and the front probe.
#[derive(Debug, Default)]
pub(crate) struct CandArena {
    cap: Vec<f64>,
    delay: Vec<f64>,
    latency: Vec<f64>,
    sink_stage: Vec<f64>,
    borrowed: Vec<f64>,
    node: Vec<NodeId>,
    trail: Vec<u32>,
    flags: Vec<u8>,
}

impl CandArena {
    pub fn new() -> CandArena {
        CandArena::default()
    }

    /// Empties the arena, keeping its capacity for the next search.
    pub fn clear(&mut self) {
        self.cap.clear();
        self.delay.clear();
        self.latency.clear();
        self.sink_stage.clear();
        self.borrowed.clear();
        self.node.clear();
        self.trail.clear();
        self.flags.clear();
    }

    /// Bytes the arena holds, for the scratch ceiling.
    pub fn held_bytes(&self) -> usize {
        // Five `f64` columns, the node and trail columns, the flags.
        self.cap.capacity() * (5 * 8 + std::mem::size_of::<NodeId>() + 4 + 1)
    }

    pub fn alloc(&mut self, cand: &Cand) -> u32 {
        #[expect(
            clippy::expect_used,
            reason = "arena growth is capped by the budget meter well below u32::MAX candidates"
        )]
        let id = u32::try_from(self.cap.len()).expect("candidate arena overflow");
        self.cap.push(cand.cap);
        self.delay.push(cand.delay);
        self.latency.push(cand.latency);
        self.sink_stage.push(cand.sink_stage);
        self.borrowed.push(cand.borrowed);
        self.node.push(cand.node);
        self.trail.push(cand.trail);
        let mut flags = 0u8;
        if cand.gate_here {
            flags |= FLAG_GATE_HERE;
        }
        if cand.fifo_inserted {
            flags |= FLAG_FIFO_INSERTED;
        }
        if cand.finalized {
            flags |= FLAG_FINALIZED;
        }
        self.flags.push(flags);
        id
    }

    pub fn get(&self, idx: u32) -> Cand {
        let i = idx as usize;
        Cand {
            cap: self.cap[i],
            delay: self.delay[i],
            node: self.node[i],
            trail: self.trail[i],
            gate_here: self.flags[i] & FLAG_GATE_HERE != 0,
            fifo_inserted: self.flags[i] & FLAG_FIFO_INSERTED != 0,
            latency: self.latency[i],
            sink_stage: self.sink_stage[i],
            borrowed: self.borrowed[i],
            finalized: self.flags[i] & FLAG_FINALIZED != 0,
        }
    }

    /// Marks a queued-but-dominated candidate dead (lazy deletion).
    pub fn kill(&mut self, idx: u32) {
        self.flags[idx as usize] |= FLAG_DEAD;
    }

    pub fn is_dead(&self, idx: u32) -> bool {
        self.flags[idx as usize] & FLAG_DEAD != 0
    }
}

#[cfg(test)]
struct IdxEntry {
    key: f64,
    tie: u64,
    idx: u32,
}

#[cfg(test)]
impl PartialEq for IdxEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.tie == other.tie
    }
}

#[cfg(test)]
impl Eq for IdxEntry {}

#[cfg(test)]
impl Ord for IdxEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

// The canonical CR001 pattern: `PartialOrd` delegates to the total
// `Ord` above (see crates/lint, rule CR001).
#[cfg(test)]
impl PartialOrd for IdxEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Index-valued min-heap on `(key, tie)` under `f64::total_cmp` (Rust's
/// `BinaryHeap` is a max-heap, hence the reversed ordering). Test-only:
/// the production searches and the flow oracle run on [`DialQueue`];
/// the heap survives as the pop-order reference the dial queue is
/// property-tested against.
#[cfg(test)]
pub(crate) struct HeapQueue {
    heap: BinaryHeap<IdxEntry>,
}

#[cfg(test)]
impl HeapQueue {
    pub fn new() -> HeapQueue {
        HeapQueue {
            heap: BinaryHeap::new(),
        }
    }

    pub fn push(&mut self, key: f64, tie: u64, idx: u32) {
        debug_assert!(key.is_finite(), "non-finite queue key {key}");
        self.heap.push(IdxEntry { key, tie, idx });
    }

    pub fn pop(&mut self) -> Option<u32> {
        self.heap.pop().map(|e| e.idx)
    }

    pub fn peek_key(&mut self) -> Option<f64> {
        self.heap.peek().map(|e| e.key)
    }
}

/// A queued index with its key in [`order_bits`] form, so comparing
/// two entries is one integer comparison of their [`rank`](Self::rank).
#[derive(Debug, Clone, Copy)]
struct DialEntry {
    ord: u64,
    tie: u64,
    idx: u32,
}

impl DialEntry {
    #[inline]
    fn key(&self) -> f64 {
        from_order_bits(self.ord)
    }

    /// `(key, tie)` as one integer, in the queue's pop order.
    #[inline]
    fn rank(&self) -> u128 {
        (u128::from(self.ord) << 64) | u128::from(self.tie)
    }
}

/// `key`'s bits mapped so that unsigned integer order is
/// `f64::total_cmp` order: the sign bit flipped on a non-negative key,
/// every bit flipped on a negative one.
#[inline]
fn order_bits(key: f64) -> u64 {
    let bits = key.to_bits();
    bits ^ ((((bits as i64) >> 63) as u64) | (1 << 63))
}

/// The inverse of [`order_bits`].
#[inline]
fn from_order_bits(ord: u64) -> f64 {
    f64::from_bits(if ord >> 63 == 1 {
        ord ^ (1 << 63)
    } else {
        !ord
    })
}

/// Number of calendar buckets kept addressable; keys further out overflow
/// into an unsorted far list that is re-anchored when the ring drains.
const DIAL_SPAN: usize = 1 << 15;

/// Monotone-cost bucket ("dial") queue.
///
/// Keys in the Dijkstra-style searches are non-decreasing over pops, so a
/// calendar of fixed-width buckets replaces the heap: push is O(1)
/// amortized and pop sorts one small bucket instead of maintaining a
/// global heap. The pop order is *identical* to a binary heap
/// ([`HeapQueue`]) on ascending `(key, tie)` under `f64::total_cmp`,
/// where the caller supplies the tie with every push: the searches pass
/// their push sequence, the flow oracle (`clockroute-flow`) the node
/// index. Entries with equal `(key, tie)` pop in an unspecified order;
/// neither caller pushes two.
///
/// That identity does not rest on floating-point luck. An entry's
/// bucket is `⌊(key − origin) · 1/width⌋`, a monotone function of the
/// key for a fixed `origin`, so an entry in a lower bucket never has a
/// larger key, and buckets are counted from `origin` instead of from a
/// running base, so entries filed at different times agree on it.
/// `origin` moves only when nothing is filed against it: when a push
/// finds the queue empty (wave-style searches drain the queue, then
/// re-seed at small keys), and when the ring drains and the far list is
/// re-anchored at its minimum.
///
/// Out-of-band keys keep the guarantee too. A key whose bucket is below
/// the ring's front (a push below the bucket being drained) is sorted
/// into the active bucket. A key [`DIAL_SPAN`] or more buckets past the
/// front, or at or above the far list's minimum, goes to the far list,
/// so every ring entry stays below every far entry however far the
/// ring has advanced since the far list was filled.
///
/// Drained buckets go to a spare pool instead of being freed, and
/// [`reset`](DialQueue::reset) returns every bucket there, so a queue
/// reused across searches stops allocating once its pool covers the
/// calendar it needs.
pub struct DialQueue {
    inv_width: f64,
    /// Key at the lower edge of bucket 0.
    origin: f64,
    /// Bucket number of `ring[0]`; every active entry is in a lower one.
    front: usize,
    ring: VecDeque<Vec<DialEntry>>,
    /// Bucket being drained, sorted ascending by `(key, tie)`; entries
    /// before `head` are popped. Ascending, because a bucket mostly fills
    /// in near-ascending tie order and the sort then has little to move.
    active: Vec<DialEntry>,
    head: usize,
    /// Unsorted entries above every ring entry, refiled when the ring
    /// drains.
    far: Vec<DialEntry>,
    /// Empty buckets, capacity kept, for the ring to reuse.
    spare: Vec<Vec<DialEntry>>,
    far_min: f64,
    len: usize,
    last_pop: f64,
}

impl DialQueue {
    /// `scale` hints the bucket width: the smallest key increment the
    /// search commonly produces (e.g. the cheapest single-edge wire
    /// delay). Degenerate hints are clamped to keep the calendar sane.
    pub fn new(scale: f64) -> DialQueue {
        let width = if scale.is_finite() && scale > 1e-6 {
            scale
        } else {
            1e-6
        };
        DialQueue {
            inv_width: 1.0 / width,
            origin: 0.0,
            front: 0,
            ring: VecDeque::new(),
            active: Vec::new(),
            head: 0,
            far: Vec::new(),
            spare: Vec::new(),
            far_min: f64::INFINITY,
            len: 0,
            last_pop: f64::NEG_INFINITY,
        }
    }

    /// Empties the queue into the state [`new`](DialQueue::new) builds
    /// for `scale` — every field comes from `new` — so the next search
    /// pops in the same order as on a new queue. Only the buckets'
    /// capacity survives, in the spare pool.
    pub fn reset(&mut self, scale: f64) {
        let DialQueue {
            mut ring,
            mut active,
            mut far,
            mut spare,
            ..
        } = std::mem::replace(self, DialQueue::new(scale));
        for mut bucket in ring.drain(..) {
            bucket.clear();
            spare.push(bucket);
        }
        active.clear();
        far.clear();
        self.ring = ring;
        self.active = active;
        self.far = far;
        self.spare = spare;
    }

    /// Bytes the queue holds, for the scratch ceiling.
    pub fn held_bytes(&self) -> usize {
        let entries: usize = self
            .ring
            .iter()
            .chain(&self.spare)
            .chain([&self.active, &self.far])
            .map(Vec::capacity)
            .sum();
        entries * std::mem::size_of::<DialEntry>()
            + (self.ring.capacity() + self.spare.capacity()) * std::mem::size_of::<Vec<DialEntry>>()
    }

    /// The bucket `key` falls in. Rounding and the saturating cast are
    /// both monotone, so a larger key never lands in a lower bucket.
    #[inline]
    fn bucket(&self, key: f64) -> usize {
        ((key - self.origin) * self.inv_width) as usize
    }

    /// Files `e`, whose key is `key`.
    #[inline]
    fn file(&mut self, key: f64, e: DialEntry) {
        if key >= self.far_min {
            self.far.push(e);
            return;
        }
        let b = self.bucket(key);
        if b < self.front {
            // Below the ring while entries are in flight: the key must
            // pop before everything in the ring — it joins the active
            // bucket at its sorted position.
            let rank = e.rank();
            let pos = self.active[self.head..].partition_point(|x| x.rank() < rank);
            self.active.insert(self.head + pos, e);
            return;
        }
        let rel = b - self.front;
        if rel >= DIAL_SPAN {
            self.far_min = key;
            self.far.push(e);
            return;
        }
        if self.ring.len() <= rel {
            let spare = &mut self.spare;
            self.ring
                .resize_with(rel + 1, || spare.pop().unwrap_or_default());
        }
        self.ring[rel].push(e);
    }

    /// Ensures `active` holds the next bucket to drain. Returns `false`
    /// when the queue is empty.
    #[inline]
    fn ensure_active(&mut self) -> bool {
        self.head < self.active.len() || self.activate_next()
    }

    /// Moves the next non-empty bucket into `active`, refiling the far
    /// list when the ring has drained. Returns `false` when the queue is
    /// empty.
    fn activate_next(&mut self) -> bool {
        loop {
            while matches!(self.ring.front(), Some(b) if b.is_empty()) {
                if let Some(empty) = self.ring.pop_front() {
                    self.spare.push(empty);
                }
                self.front += 1;
            }
            if let Some(mut bucket) = self.ring.pop_front() {
                self.front += 1;
                // The callers' `(key, tie)` pairs are distinct, so the
                // order is strict and an unstable sort gives the stable
                // sort's result.
                bucket.sort_unstable_by_key(DialEntry::rank);
                let mut drained = std::mem::replace(&mut self.active, bucket);
                drained.clear();
                self.spare.push(drained);
                self.head = 0;
                return true;
            }
            if self.far.is_empty() {
                return false;
            }
            // Ring drained: restart the calendar at the far list's
            // minimum and refile the far list against it.
            self.origin = self.far_min;
            self.front = 0;
            self.far_min = f64::INFINITY;
            let mut pending = std::mem::take(&mut self.far);
            for e in pending.drain(..) {
                self.file(e.key(), e);
            }
            if self.far.is_empty() {
                self.far = pending;
            }
        }
    }

    /// Queue empty: restarts the calendar — and the monotonicity epoch —
    /// at `key`. Nothing is filed against the old origin.
    fn restart(&mut self, key: f64) {
        for bucket in self.ring.drain(..) {
            self.spare.push(bucket);
        }
        self.origin = key;
        self.front = 0;
        self.far_min = f64::INFINITY;
        self.last_pop = f64::NEG_INFINITY;
    }

    /// Queues `idx` at `key`, ordered among equal keys by `tie`.
    #[inline]
    pub fn push(&mut self, key: f64, tie: u64, idx: u32) {
        debug_assert!(key.is_finite(), "non-finite queue key {key}");
        if self.len == 0 {
            self.restart(key);
        }
        self.len += 1;
        let ord = order_bits(key);
        self.file(key, DialEntry { ord, tie, idx });
    }

    /// Pops the least `(key, tie)` entry as `(key, idx)`.
    #[inline]
    pub fn pop_keyed(&mut self) -> Option<(f64, u32)> {
        if !self.ensure_active() {
            return None;
        }
        let e = *self.active.get(self.head)?;
        self.head += 1;
        self.len -= 1;
        let key = e.key();
        debug_assert!(
            key.total_cmp(&self.last_pop) != Ordering::Less,
            "dial queue popped keys out of order: {key} after {}",
            self.last_pop
        );
        self.last_pop = key;
        Some((key, e.idx))
    }

    /// Pops the least `(key, tie)` entry's index.
    #[inline]
    pub fn pop(&mut self) -> Option<u32> {
        self.pop_keyed().map(|(_, idx)| idx)
    }

    /// Minimum key currently queued, for the pop-order property tests.
    /// Takes `&mut self` because the calendar may need to activate its
    /// next bucket to answer.
    #[cfg(test)]
    pub fn peek_key(&mut self) -> Option<f64> {
        if !self.ensure_active() {
            return None;
        }
        self.active.get(self.head).map(DialEntry::key)
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[derive(Debug, Clone, Copy)]
struct FrontEntry {
    cap: f64,
    delay: f64,
    extra: f64,
    idx: u32,
}

/// Where one front list lives in the [`SortedFronts`] slab: `len`
/// entries from `start`, with room for `room`.
#[derive(Debug, Clone, Copy, Default)]
struct Seg {
    start: usize,
    len: usize,
    room: usize,
}

impl Seg {
    fn range(self) -> std::ops::Range<usize> {
        self.start..self.start + self.len
    }
}

/// One key's Pareto front, split by the `capable` class.
///
/// While `uniform` holds (every entry shares `extra0` — true for fast
/// path, RBP and GALS, whose third dimension is constantly zero per
/// front) each list is a staircase: `cap` strictly ascending, `delay`
/// strictly descending. Dominance against a staircase is a single
/// binary-search probe; eviction is one contiguous removal.
#[derive(Debug, Clone, Copy)]
struct KeyFront {
    capable: Seg,
    gated: Seg,
    extra0: f64,
    uniform: bool,
}

impl KeyFront {
    fn empty() -> KeyFront {
        KeyFront {
            capable: Seg::default(),
            gated: Seg::default(),
            extra0: f64::NAN,
            uniform: true,
        }
    }
}

/// Filler for slab room no list uses yet.
const NO_ENTRY: FrontEntry = FrontEntry {
    cap: 0.0,
    delay: 0.0,
    extra: 0.0,
    idx: 0,
};

/// Inserts `entry` at `pos` of the list `seg`. A full list moves to
/// the end of the slab with twice the room (at least 4), or grows in
/// place when it already ends the slab.
fn slab_insert(slab: &mut Vec<FrontEntry>, seg: &mut Seg, pos: usize, entry: FrontEntry) {
    if seg.len == seg.room {
        let room = (2 * seg.room).max(4);
        if seg.start + seg.room != slab.len() {
            let start = slab.len();
            slab.extend_from_within(seg.range());
            seg.start = start;
        }
        slab.resize(seg.start + room, NO_ENTRY);
        seg.room = room;
    }
    let at = seg.start + pos;
    slab.copy_within(at..seg.start + seg.len, at + 1);
    slab[at] = entry;
    seg.len += 1;
}

fn stair_dominated(list: &[FrontEntry], cap: f64, delay: f64, comps: &mut u64) -> bool {
    if list.is_empty() {
        return false;
    }
    *comps += u64::from(list.len().ilog2()) + 1;
    let pos = list.partition_point(|e| e.cap <= cap);
    pos > 0 && list[pos - 1].delay <= delay
}

fn stair_strict(
    list: &[FrontEntry],
    cap: f64,
    delay: f64,
    extra: f64,
    extra0: f64,
    cross_class: bool,
    comps: &mut u64,
) -> bool {
    if list.is_empty() {
        return false;
    }
    *comps += u64::from(list.len().ilog2()) + 1;
    let pos = list.partition_point(|e| e.cap <= cap);
    if pos == 0 {
        return false;
    }
    let e = list[pos - 1];
    if e.delay > delay {
        return false;
    }
    // `e` dominates; the caller established `extra0 <= extra`.
    cross_class || e.cap < cap || e.delay < delay || extra0 < extra
}

fn scan_dominated(list: &[FrontEntry], cap: f64, delay: f64, extra: f64, comps: &mut u64) -> bool {
    for e in list {
        *comps += 1;
        if e.cap > cap {
            return false;
        }
        if e.delay <= delay && e.extra <= extra {
            return true;
        }
    }
    false
}

fn scan_strict(
    list: &[FrontEntry],
    cap: f64,
    delay: f64,
    extra: f64,
    cross_class: bool,
    comps: &mut u64,
) -> bool {
    for e in list {
        *comps += 1;
        if e.cap > cap {
            return false;
        }
        if e.delay <= delay
            && e.extra <= extra
            && (cross_class || e.cap < cap || e.delay < delay || e.extra < extra)
        {
            return true;
        }
    }
    false
}

/// Evicts (and kills) the staircase entries `(cap, delay)` dominates;
/// returns the list's new length.
fn stair_evict(
    list: &mut [FrontEntry],
    cap: f64,
    delay: f64,
    cands: &mut CandArena,
    evicted: &mut u64,
    comps: &mut u64,
) -> usize {
    if list.is_empty() {
        return 0;
    }
    *comps += u64::from(list.len().ilog2()) + 1;
    let start = list.partition_point(|e| e.cap < cap);
    let mut end = start;
    while end < list.len() && list[end].delay >= delay {
        *comps += 1;
        end += 1;
    }
    for e in &list[start..end] {
        cands.kill(e.idx);
        *evicted += 1;
    }
    list.copy_within(end.., start);
    list.len() - (end - start)
}

/// Evicts (and kills) the entries `(cap, delay, extra)` dominates,
/// keeping the rest in order; returns the list's new length.
fn scan_evict(
    list: &mut [FrontEntry],
    cap: f64,
    delay: f64,
    extra: f64,
    cands: &mut CandArena,
    evicted: &mut u64,
    comps: &mut u64,
) -> usize {
    let from = list.partition_point(|e| e.cap < cap);
    let mut kept = from;
    for i in from..list.len() {
        *comps += 1;
        let e = list[i];
        if e.delay >= delay && e.extra >= extra {
            cands.kill(e.idx);
            *evicted += 1;
        } else {
            list[kept] = e;
            kept += 1;
        }
    }
    kept
}

/// Per-key sorted Pareto fronts with binary-search dominance.
///
/// Makes the *same admit, evict and staleness decisions* as the
/// test-only linear-scan model on every input stream — pinned by the
/// model property test below — in O(log f) comparisons per probe on the
/// uniform-`extra` fronts the main searches use, instead of O(f).
///
/// The admit check and the insertion are split so the caller can run the
/// (possibly rejecting) dominance probe *before* allocating trail steps
/// and arena slots, so a rejected extension costs no arena memory:
/// [`admits`](SortedFronts::admits) first, then on success
/// [`insert`](SortedFronts::insert), which also kills evicted indices in
/// the [`CandArena`].
///
/// Every key's two lists live in one slab, so a search allocates no
/// memory per key. A list that fills up moves to the end of the slab
/// with twice the room; the space it leaves is not reused until the next
/// search. A key's lists are emptied lazily, on its first use in a new
/// epoch: a new wave keeps their room, a new search starts them empty.
/// [`reset`](SortedFronts::reset) starts a search by emptying the slab
/// and bumping the epoch, so a table reused across searches costs
/// nothing per key and allocates nothing once its slab is large enough.
pub(crate) struct SortedFronts {
    fronts: Vec<KeyFront>,
    stamps: Vec<u64>,
    slab: Vec<FrontEntry>,
    epoch: u64,
    /// The epoch the current search started in.
    first_epoch: u64,
    comparisons: u64,
}

impl SortedFronts {
    pub fn new(keys: usize) -> SortedFronts {
        let mut fronts = SortedFronts {
            fronts: Vec::new(),
            stamps: Vec::new(),
            slab: Vec::new(),
            epoch: 0,
            first_epoch: 0,
            comparisons: 0,
        };
        fronts.reset(keys);
        fronts
    }

    /// Empties every front for a new search over `keys` keys: a new
    /// epoch makes every existing key stale, and the comparison count
    /// restarts at zero.
    pub fn reset(&mut self, keys: usize) {
        if self.fronts.len() < keys {
            self.fronts.resize(keys, KeyFront::empty());
            self.stamps.resize(keys, 0);
        }
        self.slab.clear();
        self.epoch += 1;
        self.first_epoch = self.epoch;
        self.comparisons = 0;
    }

    /// Bytes the table holds, for the scratch ceiling.
    pub fn held_bytes(&self) -> usize {
        self.fronts.capacity() * (std::mem::size_of::<KeyFront>() + 8)
            + self.slab.capacity() * std::mem::size_of::<FrontEntry>()
    }

    /// Total pairwise entry comparisons (binary-search probes counted at
    /// their actual cost), for `SearchStats::front_comparisons`.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Starts a new wave front: all fronts are (lazily) cleared.
    pub fn advance_wave(&mut self) {
        self.epoch += 1;
    }

    fn refresh(&mut self, key: usize) {
        if self.stamps[key] != self.epoch {
            let f = &mut self.fronts[key];
            if self.stamps[key] < self.first_epoch {
                // Last used by an earlier search, whose slab is gone.
                *f = KeyFront::empty();
            } else {
                f.capable.len = 0;
                f.gated.len = 0;
                f.extra0 = f64::NAN;
                f.uniform = true;
            }
            self.stamps[key] = self.epoch;
        }
    }

    /// `true` if no existing entry dominates the candidate (checked
    /// without inserting).
    pub fn admits(&mut self, key: usize, cap: f64, delay: f64, extra: f64, capable: bool) -> bool {
        self.refresh(key);
        let f = &self.fronts[key];
        let (capable_list, gated) = (&self.slab[f.capable.range()], &self.slab[f.gated.range()]);
        let mut comps = 0u64;
        let admitted = if f.uniform {
            if !f.extra0.is_nan() && f.extra0 > extra {
                // Every entry is worse on the third dimension; nothing
                // can dominate.
                true
            } else {
                let dominated = stair_dominated(capable_list, cap, delay, &mut comps)
                    || (!capable && stair_dominated(gated, cap, delay, &mut comps));
                !dominated
            }
        } else {
            let dominated = scan_dominated(capable_list, cap, delay, extra, &mut comps)
                || (!capable && scan_dominated(gated, cap, delay, extra, &mut comps));
            !dominated
        };
        self.comparisons += comps;
        admitted
    }

    /// Inserts a candidate previously accepted by
    /// [`admits`](SortedFronts::admits): evicts (and kills) every entry
    /// it dominates, then files it at its sorted position. `evicted` is
    /// incremented by the number of entries removed.
    #[allow(clippy::too_many_arguments)]
    pub fn insert(
        &mut self,
        key: usize,
        cap: f64,
        delay: f64,
        extra: f64,
        capable: bool,
        idx: u32,
        cands: &mut CandArena,
        evicted: &mut u64,
    ) {
        self.refresh(key);
        let mut comps = 0u64;
        let f = &mut self.fronts[key];
        let slab = &mut self.slab;
        let (uniform, in_reach) = (f.uniform, f.extra0.is_nan() || extra <= f.extra0);
        let mut evict = |seg: &mut Seg| {
            let list = &mut slab[seg.range()];
            if !uniform {
                seg.len = scan_evict(list, cap, delay, extra, cands, evicted, &mut comps);
            } else if in_reach {
                seg.len = stair_evict(list, cap, delay, cands, evicted, &mut comps);
            }
        };
        // A capable entry dominates in both classes, a gated one only
        // among the gated.
        if capable {
            evict(&mut f.capable);
        }
        evict(&mut f.gated);
        if f.extra0.is_nan() {
            f.extra0 = extra;
        } else if f.extra0 != extra {
            f.uniform = false;
        }
        let entry = FrontEntry {
            cap,
            delay,
            extra,
            idx,
        };
        let seg = if capable {
            &mut f.capable
        } else {
            &mut f.gated
        };
        let pos = slab[seg.range()].partition_point(|e| e.cap < cap);
        slab_insert(slab, seg, pos, entry);
        self.comparisons += comps;
    }

    /// `true` if some entry strictly dominates the candidate: it can no
    /// longer be on the Pareto front.
    pub fn is_stale(
        &mut self,
        key: usize,
        cap: f64,
        delay: f64,
        extra: f64,
        capable: bool,
    ) -> bool {
        self.refresh(key);
        let f = &self.fronts[key];
        let (capable_list, gated) = (&self.slab[f.capable.range()], &self.slab[f.gated.range()]);
        let mut comps = 0u64;
        let stale = if f.uniform {
            if !f.extra0.is_nan() && f.extra0 > extra {
                false
            } else if capable {
                stair_strict(capable_list, cap, delay, extra, f.extra0, false, &mut comps)
            } else {
                stair_strict(capable_list, cap, delay, extra, f.extra0, true, &mut comps)
                    || stair_strict(gated, cap, delay, extra, f.extra0, false, &mut comps)
            }
        } else if capable {
            scan_strict(capable_list, cap, delay, extra, false, &mut comps)
        } else {
            scan_strict(capable_list, cap, delay, extra, true, &mut comps)
                || scan_strict(gated, cap, delay, extra, false, &mut comps)
        };
        self.comparisons += comps;
        stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nid(g: &clockroute_grid::GridGraph, x: u32, y: u32) -> NodeId {
        g.node(clockroute_geom::Point::new(x, y))
    }

    #[test]
    fn arena_reconstruct_merges_gate_steps() {
        use clockroute_geom::units::Length;
        let g = clockroute_grid::GridGraph::open(4, 1, Length::from_um(1.0));
        let mut arena = Arena::new();
        let t = arena.push(nid(&g, 3, 0), None, NO_PARENT);
        let v2 = arena.push(nid(&g, 2, 0), None, t);
        let lib = clockroute_elmore::GateLibrary::paper_library();
        let gate = lib.register();
        let v2g = arena.push(nid(&g, 2, 0), Some(gate), v2);
        let v1 = arena.push(nid(&g, 1, 0), None, v2g);
        let s = arena.push(nid(&g, 0, 0), None, v1);
        let (nodes, labels) = arena.reconstruct(s);
        assert_eq!(nodes.len(), 4);
        assert_eq!(nodes[0], nid(&g, 0, 0));
        assert_eq!(nodes[3], nid(&g, 3, 0));
        assert_eq!(labels, vec![None, None, Some(gate), None]);
        assert_eq!(arena.len(), 5);
    }

    #[test]
    fn arena_touched_covers_all_steps() {
        use clockroute_geom::units::Length;
        let g = clockroute_grid::GridGraph::open(8, 8, Length::from_um(1.0));
        let mut arena = Arena::new();
        assert!(arena.touched(&g).is_none());
        let a = arena.push(nid(&g, 2, 3), None, NO_PARENT);
        arena.push(nid(&g, 6, 1), None, a);
        let r = arena.touched(&g).unwrap();
        assert_eq!((r.min_x, r.min_y, r.max_x, r.max_y), (2, 1, 6, 3));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-finite queue key")]
    fn nan_key_is_rejected_in_debug_builds() {
        let mut q = DialQueue::new(1.0);
        q.push(1.0, 0, 0);
        q.push(f64::NAN, 1, 1);
    }

    #[test]
    fn prune_basic_dominance() {
        let mut t = PruneTable::new(1);
        let mut ev = 0;
        assert!(t.try_admit(0, 10.0, 10.0, 0.0, true, &mut ev));
        // Dominated: both coords worse.
        assert!(!t.try_admit(0, 11.0, 11.0, 0.0, true, &mut ev));
        // Equal: dominated (non-strict) — duplicate suppressed.
        assert!(!t.try_admit(0, 10.0, 10.0, 0.0, true, &mut ev));
        // Incomparable: admitted.
        assert!(t.try_admit(0, 5.0, 20.0, 0.0, true, &mut ev));
        // Dominates both: admitted, evicts both.
        assert!(t.try_admit(0, 5.0, 5.0, 0.0, true, &mut ev));
        assert_eq!(ev, 2);
        assert!(!t.try_admit(0, 6.0, 6.0, 0.0, true, &mut ev));
    }

    #[test]
    fn gate_bearing_cannot_prune_capable_at_equal_coords() {
        let mut t = PruneTable::new(1);
        let mut ev = 0;
        // Gate-bearing entry first.
        assert!(t.try_admit(0, 10.0, 10.0, 0.0, false, &mut ev));
        // Capable candidate at the same coordinates must be admitted…
        assert!(t.try_admit(0, 10.0, 10.0, 0.0, true, &mut ev));
        // …and it evicts the gate-bearing one.
        assert_eq!(ev, 1);
        // A gate-bearing one at equal coords is now dominated.
        assert!(!t.try_admit(0, 10.0, 10.0, 0.0, false, &mut ev));
    }

    #[test]
    fn third_dimension_respected() {
        let mut t = PruneTable::new(1);
        let mut ev = 0;
        assert!(t.try_admit(0, 10.0, 10.0, 5.0, true, &mut ev));
        // Worse cap/delay but less borrowing: incomparable, admitted.
        assert!(t.try_admit(0, 12.0, 12.0, 0.0, true, &mut ev));
        // Dominated in all three: rejected.
        assert!(!t.try_admit(0, 12.0, 12.0, 6.0, true, &mut ev));
    }

    #[test]
    fn wave_advance_clears_fronts() {
        let mut t = PruneTable::new(2);
        let mut ev = 0;
        assert!(t.try_admit(0, 1.0, 1.0, 0.0, true, &mut ev));
        assert!(!t.try_admit(0, 2.0, 2.0, 0.0, true, &mut ev));
        t.advance_wave();
        // Previous wave's entries no longer prune.
        assert!(t.try_admit(0, 2.0, 2.0, 0.0, true, &mut ev));
    }

    #[test]
    fn staleness_is_strict() {
        let mut t = PruneTable::new(1);
        let mut ev = 0;
        t.try_admit(0, 10.0, 10.0, 0.0, true, &mut ev);
        // The entry itself is not stale.
        assert!(!t.is_stale(0, 10.0, 10.0, 0.0, true));
        t.try_admit(0, 9.0, 9.0, 0.0, true, &mut ev);
        assert!(t.is_stale(0, 10.0, 10.0, 0.0, true));
    }

    // ---------------- arena substrate ----------------

    #[test]
    fn cand_arena_roundtrips_all_fields() {
        use clockroute_geom::units::Length;
        let g = clockroute_grid::GridGraph::open(2, 2, Length::from_um(1.0));
        let mut cands = CandArena::new();
        let mut c = Cand::start(3.5, 7.25, 42, nid(&g, 1, 1));
        c.gate_here = false;
        c.fifo_inserted = true;
        c.latency = 9.0;
        c.sink_stage = 11.0;
        c.borrowed = 0.5;
        c.finalized = true;
        let idx = cands.alloc(&c);
        let back = cands.get(idx);
        assert_eq!(back.cap, 3.5);
        assert_eq!(back.delay, 7.25);
        assert_eq!(back.trail, 42);
        assert_eq!(back.node, nid(&g, 1, 1));
        assert!(!back.gate_here);
        assert!(back.fifo_inserted);
        assert_eq!(back.latency, 9.0);
        assert_eq!(back.sink_stage, 11.0);
        assert_eq!(back.borrowed, 0.5);
        assert!(back.finalized);
        assert!(!cands.is_dead(idx));
        cands.kill(idx);
        assert!(cands.is_dead(idx));
    }

    #[test]
    fn dial_queue_orders_like_heap_with_ties_far_overflow_and_promotions() {
        let mut dial = DialQueue::new(1.0);
        let mut heap = HeapQueue::new();
        // 40000.0 is beyond DIAL_SPAN buckets from the anchor: exercises
        // the far list and its re-anchoring.
        let keys = [5.0, 1.0, 3.0, 1.0, 40000.0, 2.5, 2.5];
        for (i, &k) in keys.iter().enumerate() {
            dial.push(k, i as u64, i as u32);
            heap.push(k, i as u64, i as u32);
        }
        assert_eq!(dial.peek_key(), Some(1.0));
        for _ in 0..2 {
            assert_eq!(dial.pop(), heap.pop());
        }
        // Push at the last popped key (a wave-style promotion below the
        // calendar base): must pop next, after nothing, like the heap.
        dial.push(1.0, 99, 99);
        heap.push(1.0, 99, 99);
        while let Some(i) = heap.pop() {
            assert_eq!(dial.pop(), Some(i));
        }
        assert_eq!(dial.pop(), None);
        assert_eq!(dial.len(), 0);
    }

    #[test]
    fn order_bits_order_like_total_cmp_and_invert() {
        let keys = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            250.0,
            2.5e8,
            f64::INFINITY,
        ];
        for (i, &a) in keys.iter().enumerate() {
            assert_eq!(from_order_bits(order_bits(a)).to_bits(), a.to_bits());
            for &b in &keys[i..] {
                assert_eq!(
                    order_bits(a).cmp(&order_bits(b)),
                    a.total_cmp(&b),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn ring_pushes_never_overtake_the_far_list() {
        // 40000 lands in the far list while the ring is anchored at 0.
        // Once the ring has drained up to 10000, 40001 is within the
        // ring's span again, but it must still pop after 40000.
        let mut dial = DialQueue::new(1.0);
        let mut heap = HeapQueue::new();
        for (i, k) in [0.0, 40000.0, 10000.0].into_iter().enumerate() {
            dial.push(k, i as u64, i as u32);
            heap.push(k, i as u64, i as u32);
        }
        for _ in 0..2 {
            assert_eq!(dial.pop(), heap.pop());
        }
        dial.push(40001.0, 3, 3);
        heap.push(40001.0, 3, 3);
        dial.push(39999.5, 4, 4);
        heap.push(39999.5, 4, 4);
        while let Some(i) = heap.pop() {
            assert_eq!(dial.pop(), Some(i));
        }
        assert!(dial.is_empty());
    }

    #[test]
    fn caller_ties_order_equal_keys() {
        // The flow oracle's pattern: the node index breaks distance
        // ties, whatever the push order, and a node re-pushed at a
        // smaller distance pops at that distance first.
        let mut dial = DialQueue::new(125.0);
        let pushes = [
            (250.0, 7u32),
            (250.0, 3),
            (125.0, 9),
            (375.0, 1),
            (250.0, 5),
            (125.0, 7),
        ];
        for &(key, node) in &pushes {
            dial.push(key, u64::from(node), node);
        }
        let mut popped = Vec::new();
        while let Some(entry) = dial.pop_keyed() {
            popped.push(entry);
        }
        assert_eq!(
            popped,
            [
                (125.0, 7),
                (125.0, 9),
                (250.0, 3),
                (250.0, 5),
                (250.0, 7),
                (375.0, 1)
            ]
        );
    }

    #[test]
    fn sorted_fronts_match_prune_table_on_a_fixed_script() {
        use clockroute_geom::units::Length;
        let g = clockroute_grid::GridGraph::open(2, 1, Length::from_um(1.0));
        let n = nid(&g, 0, 0);
        let mut model = PruneTable::new(2);
        let mut fronts = SortedFronts::new(2);
        let mut cands = CandArena::new();
        let script: &[(usize, f64, f64, f64, bool)] = &[
            (0, 10.0, 10.0, 0.0, true),
            (0, 11.0, 9.0, 0.0, true),
            (0, 9.0, 11.0, 0.0, false),
            (0, 10.0, 10.0, 0.0, false),
            (0, 8.0, 8.0, 0.0, true),
            (1, 5.0, 5.0, 1.0, true),
            (1, 5.0, 5.0, 0.0, true),
            (1, 6.0, 6.0, 2.0, true),
        ];
        let (mut ev_a, mut ev_b) = (0u64, 0u64);
        for &(key, cap, delay, extra, capable) in script {
            let admitted = model.try_admit(key, cap, delay, extra, capable, &mut ev_a);
            assert_eq!(fronts.admits(key, cap, delay, extra, capable), admitted);
            if admitted {
                let idx = cands.alloc(&Cand::start(cap, delay, NO_PARENT, n));
                fronts.insert(key, cap, delay, extra, capable, idx, &mut cands, &mut ev_b);
            }
            assert_eq!(ev_a, ev_b);
            assert_eq!(
                model.is_stale(key, cap, delay, extra, capable),
                fronts.is_stale(key, cap, delay, extra, capable)
            );
        }
    }

    #[test]
    fn sorted_fronts_use_fewer_comparisons_on_long_uniform_fronts() {
        // The linear-scan model walks the whole per-key list per probe;
        // the sorted front must make the same decisions in
        // logarithmically many comparisons.
        let mut model = PruneTable::new(1);
        let mut fronts = SortedFronts::new(1);
        let mut cands = CandArena::new();
        let g = {
            use clockroute_geom::units::Length;
            clockroute_grid::GridGraph::open(2, 1, Length::from_um(1.0))
        };
        let n = nid(&g, 0, 0);
        let m = 256;
        for i in 0..m {
            // An antichain: cap ascending, delay descending.
            let (cap, delay) = (i as f64, (2 * m - i) as f64);
            let (mut ea, mut eb) = (0, 0);
            let a = model.try_admit(0, cap, delay, 0.0, true, &mut ea);
            let b = fronts.admits(0, cap, delay, 0.0, true);
            assert!(a && b);
            let idx = cands.alloc(&Cand::start(cap, delay, NO_PARENT, n));
            fronts.insert(0, cap, delay, 0.0, true, idx, &mut cands, &mut eb);
            assert_eq!(ea, eb);
        }
        // Probe staleness across the whole front.
        for i in 0..m {
            let (cap, delay) = (i as f64, (2 * m - i) as f64);
            assert_eq!(
                model.is_stale(0, cap, delay, 0.0, true),
                fronts.is_stale(0, cap, delay, 0.0, true)
            );
        }
        assert!(
            fronts.comparisons() * 8 < model.comparisons(),
            "sorted: {} vs model: {}",
            fronts.comparisons(),
            model.comparisons()
        );
    }

    mod substrate_properties {
        use super::*;
        use proptest::prelude::*;

        /// A compressed op stream over a tiny coordinate domain so that
        /// dominance, ties and evictions all occur frequently.
        fn front_ops() -> impl Strategy<Value = Vec<(u8, u8, u8, u8, u8)>> {
            proptest::collection::vec((0u8..4, 0u8..6, 0u8..6, 0u8..3, 0u8..8), 1..120)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

            #[test]
            fn sorted_fronts_equal_prune_table_on_random_streams(ops in front_ops()) {
                use clockroute_geom::units::Length;
                let g = clockroute_grid::GridGraph::open(2, 1, Length::from_um(1.0));
                let n = nid(&g, 0, 0);
                let mut model = PruneTable::new(4);
                let mut fronts = SortedFronts::new(4);
                let mut cands = CandArena::new();
                let (mut ev_a, mut ev_b) = (0u64, 0u64);
                for (key, cap, delay, extra, action) in ops {
                    let key = key as usize;
                    let (cap, delay) = (cap as f64, delay as f64);
                    // Mostly-zero third dimension: exercises both the
                    // uniform staircase fast path and the 3-D fallback.
                    let extra = if extra == 2 { 1.0 } else { 0.0 };
                    let capable = action % 2 == 0;
                    match action {
                        7 => {
                            model.advance_wave();
                            fronts.advance_wave();
                        }
                        5 | 6 => {
                            prop_assert_eq!(
                                model.is_stale(key, cap, delay, extra, capable),
                                fronts.is_stale(key, cap, delay, extra, capable)
                            );
                        }
                        _ => {
                            let admitted =
                                model.try_admit(key, cap, delay, extra, capable, &mut ev_a);
                            prop_assert_eq!(
                                fronts.admits(key, cap, delay, extra, capable),
                                admitted
                            );
                            if admitted {
                                let idx = cands.alloc(&Cand::start(cap, delay, NO_PARENT, n));
                                fronts.insert(
                                    key, cap, delay, extra, capable, idx, &mut cands, &mut ev_b,
                                );
                            }
                            prop_assert_eq!(ev_a, ev_b);
                        }
                    }
                }
            }
        }

        /// Replays `ops` on `fronts` and returns every decision, the
        /// eviction count and the comparison count.
        fn replay_fronts(
            fronts: &mut SortedFronts,
            ops: &[(u8, u8, u8, u8, u8)],
        ) -> (Vec<bool>, u64, u64) {
            use clockroute_geom::units::Length;
            let g = clockroute_grid::GridGraph::open(2, 1, Length::from_um(1.0));
            let n = nid(&g, 0, 0);
            let mut cands = CandArena::new();
            let mut evicted = 0u64;
            let mut decisions = Vec::new();
            for &(key, cap, delay, extra, action) in ops {
                let key = key as usize;
                let (cap, delay) = (cap as f64, delay as f64);
                let extra = if extra == 2 { 1.0 } else { 0.0 };
                let capable = action % 2 == 0;
                match action {
                    7 => fronts.advance_wave(),
                    5 | 6 => decisions.push(fronts.is_stale(key, cap, delay, extra, capable)),
                    _ => {
                        let admitted = fronts.admits(key, cap, delay, extra, capable);
                        if admitted {
                            let idx = cands.alloc(&Cand::start(cap, delay, NO_PARENT, n));
                            fronts.insert(
                                key,
                                cap,
                                delay,
                                extra,
                                capable,
                                idx,
                                &mut cands,
                                &mut evicted,
                            );
                        }
                        decisions.push(admitted);
                    }
                }
            }
            (decisions, evicted, fronts.comparisons())
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

            /// A table reset after one search decides the next search's
            /// stream exactly as a new table does, comparisons included.
            #[test]
            fn reset_fronts_decide_like_new_fronts(first in front_ops(), second in front_ops()) {
                let mut reused = SortedFronts::new(4);
                replay_fronts(&mut reused, &first);
                // A larger key count grows the table.
                reused.reset(8);
                prop_assert_eq!(
                    replay_fronts(&mut reused, &second),
                    replay_fronts(&mut SortedFronts::new(8), &second)
                );
            }

            /// A queue reset after one search pops the next search's
            /// keys in the order a new queue does.
            #[test]
            fn reset_dial_queue_pops_like_a_new_queue(
                first in queue_ops(),
                second in queue_ops(),
                scale in 1u8..200,
            ) {
                let mut reused = DialQueue::new(0.5);
                replay_queue(&mut reused, &first);
                reused.reset(f64::from(scale) * 0.25);
                let mut fresh = DialQueue::new(f64::from(scale) * 0.25);
                prop_assert_eq!(replay_queue(&mut reused, &second), replay_queue(&mut fresh, &second));
            }
        }

        /// Replays push/pop `ops` on `queue`, then drains it; returns
        /// every popped index.
        fn replay_queue(queue: &mut DialQueue, ops: &[(u16, u8)]) -> Vec<Option<u32>> {
            let mut keys_by_idx: Vec<f64> = Vec::new();
            let mut floor = 0.0f64;
            let mut popped = Vec::new();
            for &(raw, action) in ops {
                if action < 5 {
                    let key = floor + f64::from(raw) * 0.5;
                    let idx = keys_by_idx.len() as u32;
                    queue.push(key, u64::from(idx), idx);
                    keys_by_idx.push(key);
                } else {
                    let i = queue.pop();
                    if let Some(i) = i {
                        floor = keys_by_idx[i as usize];
                    }
                    popped.push(i);
                }
            }
            while let Some(i) = queue.pop() {
                popped.push(Some(i));
            }
            popped
        }

        /// Interleaved push/pop streams; pushes stay at or above the last
        /// popped key (the monotonicity the searches guarantee), with
        /// frequent exact ties and occasional huge keys to force the far
        /// list.
        fn queue_ops() -> impl Strategy<Value = Vec<(u16, u8)>> {
            proptest::collection::vec((0u16..2048, 0u8..8), 1..200)
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 96, ..ProptestConfig::default() })]

            #[test]
            fn dial_queue_pops_in_exact_heap_order(ops in queue_ops(), scale in 1u8..200) {
                let mut dial = DialQueue::new(f64::from(scale) * 0.25);
                let mut heap = HeapQueue::new();
                let mut keys_by_idx: Vec<f64> = Vec::new();
                let mut floor = 0.0f64;
                for (raw, action) in ops {
                    if action < 5 {
                        // Push at or above the pop floor; `raw == 0`
                        // reproduces exact key ties, large raws overflow
                        // the calendar span at small widths.
                        let key = floor + f64::from(raw) * 0.5;
                        let idx = keys_by_idx.len() as u32;
                        keys_by_idx.push(key);
                        dial.push(key, u64::from(idx), idx);
                        heap.push(key, u64::from(idx), idx);
                    } else {
                        prop_assert_eq!(dial.peek_key(), heap.peek_key());
                        let (a, b) = (dial.pop(), heap.pop());
                        prop_assert_eq!(a, b);
                        if let Some(i) = a {
                            floor = keys_by_idx[i as usize];
                        }
                    }
                }
                // Full drain must agree entry for entry.
                loop {
                    prop_assert_eq!(dial.peek_key(), heap.peek_key());
                    let (a, b) = (dial.pop(), heap.pop());
                    prop_assert_eq!(a.is_none(), b.is_none());
                    prop_assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
            }

            /// Caller-supplied ties, against a heap on `(key, tie)`.
            /// Ties are drawn out of push order; keys are multiples of a
            /// step that is also the bucket width (so keys sit on bucket
            /// edges up to rounding), and one push in eight jumps far
            /// past the calendar's span, so the far list fills while the
            /// ring keeps advancing.
            #[test]
            fn dial_queue_pops_in_exact_heap_order_with_caller_ties(
                ops in proptest::collection::vec((0u16..2048, 0u8..8, 0u8..4), 1..200),
                step in 0usize..4,
            ) {
                let step = [0.5, 1.0 / 3.0, 260.416_666_666_666_7, 0.1][step];
                let mut dial = DialQueue::new(step);
                let mut heap = HeapQueue::new();
                let mut keys_by_idx: Vec<f64> = Vec::new();
                let mut floor = 0.0f64;
                for (raw, action, tie_hi) in ops {
                    if action < 5 {
                        let mut key = floor;
                        for _ in 0..raw % 16 {
                            key += step;
                        }
                        if action == 0 {
                            key += f64::from(raw) * step * 64.0;
                        }
                        let idx = keys_by_idx.len() as u32;
                        let tie = (u64::from(tie_hi) << 32) | u64::from(idx);
                        keys_by_idx.push(key);
                        dial.push(key, tie, idx);
                        heap.push(key, tie, idx);
                    } else {
                        prop_assert_eq!(dial.peek_key(), heap.peek_key());
                        let (a, b) = (dial.pop(), heap.pop());
                        prop_assert_eq!(a, b);
                        if let Some(i) = a {
                            floor = keys_by_idx[i as usize];
                        }
                    }
                }
                loop {
                    let (a, b) = (dial.pop(), heap.pop());
                    prop_assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
