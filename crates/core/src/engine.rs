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

    pub fn push(&mut self, node: NodeId, gate: Option<GateId>, parent: u32) -> u32 {
        // crlint-allow: CR002 arena growth is capped by the budget meter well below u32::MAX steps
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
                if labels.last() == Some(&None) {
                    // crlint-allow: CR002 the `last()` probe above just returned Some
                    *labels.last_mut().expect("non-empty") = step.gate;
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
    pub fn is_stale(&mut self, key: usize, cap: f64, delay: f64, extra: f64, capable: bool) -> bool {
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

    pub fn alloc(&mut self, cand: &Cand) -> u32 {
        // crlint-allow: CR002 arena growth is capped by the budget meter well below u32::MAX candidates
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
    seq: u64,
    idx: u32,
}

#[cfg(test)]
impl PartialEq for IdxEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.seq == other.seq
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
            .then_with(|| other.seq.cmp(&self.seq))
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

/// Index-valued min-heap on `(key, seq)` under `f64::total_cmp` (Rust's
/// `BinaryHeap` is a max-heap, hence the reversed ordering). Test-only:
/// the production searches run on [`DialQueue`]; the heap survives as
/// the pop-order reference the dial queue is property-tested against.
#[cfg(test)]
pub(crate) struct HeapQueue {
    heap: BinaryHeap<IdxEntry>,
    seq: u64,
}

#[cfg(test)]
impl HeapQueue {
    pub fn new() -> HeapQueue {
        HeapQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    pub fn push(&mut self, key: f64, idx: u32) {
        debug_assert!(key.is_finite(), "non-finite queue key {key}");
        self.seq += 1;
        self.heap.push(IdxEntry {
            key,
            seq: self.seq,
            idx,
        });
    }

    pub fn pop(&mut self) -> Option<u32> {
        self.heap.pop().map(|e| e.idx)
    }

    pub fn peek_key(&mut self) -> Option<f64> {
        self.heap.peek().map(|e| e.key)
    }
}

#[derive(Debug, Clone, Copy)]
struct DialEntry {
    key: f64,
    seq: u64,
    idx: u32,
}

/// Number of calendar buckets kept addressable; keys further out overflow
/// into an unsorted far list that is re-anchored when the ring drains.
const DIAL_SPAN: usize = 1 << 15;

/// Monotone-cost bucket ("dial") queue.
///
/// Keys in the Dijkstra-style searches are non-decreasing over pops, so a
/// calendar of fixed-width buckets replaces the heap: push is O(1)
/// amortized and pop sorts one small bucket instead of maintaining a
/// global heap. The pop order is *identical* to [`HeapQueue`] —
/// ascending `(key, seq)` under `f64::total_cmp`.
///
/// Out-of-band keys are handled without breaking that guarantee. Keys
/// below the bucket currently being drained (wave-style promotions push
/// at small keys after a wave empties the queue) are sorted into the
/// active bucket, or trigger a downward calendar rebase when no bucket
/// is active; keys beyond [`DIAL_SPAN`] buckets land in the far list.
pub(crate) struct DialQueue {
    width: f64,
    inv_width: f64,
    /// Key at the lower edge of `ring[0]`.
    base: f64,
    anchored: bool,
    ring: VecDeque<Vec<DialEntry>>,
    /// Bucket being drained, sorted descending by `(key, seq)` so pops
    /// come off the end in ascending order.
    active: Vec<DialEntry>,
    far: Vec<DialEntry>,
    far_min: f64,
    seq: u64,
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
            width,
            inv_width: 1.0 / width,
            base: 0.0,
            anchored: false,
            ring: VecDeque::new(),
            active: Vec::new(),
            far: Vec::new(),
            far_min: f64::INFINITY,
            seq: 0,
            len: 0,
            last_pop: f64::NEG_INFINITY,
        }
    }

    fn desc(a: &DialEntry, b: &DialEntry) -> Ordering {
        b.key.total_cmp(&a.key).then_with(|| b.seq.cmp(&a.seq))
    }

    fn file_into_ring(&mut self, e: DialEntry) {
        let rel = ((e.key - self.base) * self.inv_width) as usize;
        if rel >= DIAL_SPAN {
            if e.key < self.far_min {
                self.far_min = e.key;
            }
            self.far.push(e);
            return;
        }
        if self.ring.len() <= rel {
            self.ring.resize_with(rel + 1, Vec::new);
        }
        self.ring[rel].push(e);
    }

    fn place(&mut self, e: DialEntry) {
        if !self.anchored {
            self.base = e.key;
            self.anchored = true;
        }
        if e.key < self.base {
            if self.active.is_empty() && self.ring.is_empty() && self.far.is_empty() {
                // Queue momentarily empty: restart the calendar — and the
                // monotonicity epoch — here. Wave-style searches drain the
                // queue completely, then re-seed at small keys.
                self.base = e.key;
                self.last_pop = f64::NEG_INFINITY;
            } else {
                // Below the calendar while entries are in flight: the
                // key must pop before everything queued (and pushes are
                // monotone, so after everything already popped) — it
                // joins the active bucket at its sorted position.
                let pos = self
                    .active
                    .partition_point(|x| Self::desc(x, &e) == Ordering::Less);
                self.active.insert(pos, e);
                return;
            }
        }
        self.file_into_ring(e);
    }

    /// Ensures `active` holds the next bucket to drain. Returns `false`
    /// when the queue is empty.
    fn ensure_active(&mut self) -> bool {
        if !self.active.is_empty() {
            return true;
        }
        loop {
            while matches!(self.ring.front(), Some(b) if b.is_empty()) {
                self.ring.pop_front();
                self.base += self.width;
            }
            if let Some(mut bucket) = self.ring.pop_front() {
                self.base += self.width;
                bucket.sort_by(Self::desc);
                self.active = bucket;
                return true;
            }
            if self.far.is_empty() {
                return false;
            }
            // Ring drained: restart the calendar at the far list's
            // minimum and redistribute.
            self.base = self.far_min;
            self.far_min = f64::INFINITY;
            let pending = std::mem::take(&mut self.far);
            for e in pending {
                self.file_into_ring(e);
            }
        }
    }

    pub fn push(&mut self, key: f64, idx: u32) {
        debug_assert!(key.is_finite(), "non-finite queue key {key}");
        self.seq += 1;
        self.len += 1;
        let e = DialEntry {
            key,
            seq: self.seq,
            idx,
        };
        self.place(e);
    }

    pub fn pop(&mut self) -> Option<u32> {
        if !self.ensure_active() {
            return None;
        }
        let e = self.active.pop()?;
        self.len -= 1;
        debug_assert!(
            e.key.total_cmp(&self.last_pop) != Ordering::Less,
            "dial queue popped keys out of order: {} after {}",
            e.key,
            self.last_pop
        );
        self.last_pop = e.key;
        Some(e.idx)
    }

    /// Minimum key currently queued, for the pop-order property tests.
    /// Takes `&mut self` because the calendar may need to activate its
    /// next bucket to answer.
    #[cfg(test)]
    pub fn peek_key(&mut self) -> Option<f64> {
        if !self.ensure_active() {
            return None;
        }
        self.active.last().map(|e| e.key)
    }

    pub fn len(&self) -> usize {
        self.len
    }
}

#[derive(Debug, Clone, Copy)]
struct FrontEntry {
    cap: f64,
    delay: f64,
    extra: f64,
    idx: u32,
}

/// One key's Pareto front, split by the `capable` class.
///
/// While `uniform` holds (every entry shares `extra0` — true for fast
/// path, RBP and GALS, whose third dimension is constantly zero per
/// front) each list is a staircase: `cap` strictly ascending, `delay`
/// strictly descending. Dominance against a staircase is a single
/// binary-search probe; eviction is one contiguous drain.
#[derive(Debug, Clone)]
struct KeyFront {
    capable: Vec<FrontEntry>,
    gated: Vec<FrontEntry>,
    extra0: f64,
    uniform: bool,
}

impl KeyFront {
    fn empty() -> KeyFront {
        KeyFront {
            capable: Vec::new(),
            gated: Vec::new(),
            extra0: f64::NAN,
            uniform: true,
        }
    }
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

fn stair_evict(
    list: &mut Vec<FrontEntry>,
    cap: f64,
    delay: f64,
    cands: &mut CandArena,
    evicted: &mut u64,
    comps: &mut u64,
) {
    if list.is_empty() {
        return;
    }
    *comps += u64::from(list.len().ilog2()) + 1;
    let start = list.partition_point(|e| e.cap < cap);
    let mut end = start;
    while end < list.len() && list[end].delay >= delay {
        *comps += 1;
        end += 1;
    }
    for e in list.drain(start..end) {
        cands.kill(e.idx);
        *evicted += 1;
    }
}

fn scan_evict(
    list: &mut Vec<FrontEntry>,
    cap: f64,
    delay: f64,
    extra: f64,
    cands: &mut CandArena,
    evicted: &mut u64,
    comps: &mut u64,
) {
    let mut i = list.partition_point(|e| e.cap < cap);
    while i < list.len() {
        *comps += 1;
        let e = list[i];
        if e.delay >= delay && e.extra >= extra {
            cands.kill(e.idx);
            *evicted += 1;
            list.remove(i);
        } else {
            i += 1;
        }
    }
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
pub(crate) struct SortedFronts {
    fronts: Vec<KeyFront>,
    stamps: Vec<u64>,
    epoch: u64,
    comparisons: u64,
}

impl SortedFronts {
    pub fn new(keys: usize) -> SortedFronts {
        SortedFronts {
            fronts: vec![KeyFront::empty(); keys],
            stamps: vec![0; keys],
            epoch: 1,
            comparisons: 0,
        }
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
            self.stamps[key] = self.epoch;
            self.fronts[key] = KeyFront::empty();
        }
    }

    /// `true` if no existing entry dominates the candidate (checked
    /// without inserting).
    pub fn admits(&mut self, key: usize, cap: f64, delay: f64, extra: f64, capable: bool) -> bool {
        self.refresh(key);
        let f = &self.fronts[key];
        let mut comps = 0u64;
        let admitted = if f.uniform {
            if !f.extra0.is_nan() && f.extra0 > extra {
                // Every entry is worse on the third dimension; nothing
                // can dominate.
                true
            } else {
                let dominated = stair_dominated(&f.capable, cap, delay, &mut comps)
                    || (!capable && stair_dominated(&f.gated, cap, delay, &mut comps));
                !dominated
            }
        } else {
            let dominated = scan_dominated(&f.capable, cap, delay, extra, &mut comps)
                || (!capable && scan_dominated(&f.gated, cap, delay, extra, &mut comps));
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
        if f.uniform {
            if f.extra0.is_nan() || extra <= f.extra0 {
                if capable {
                    stair_evict(&mut f.capable, cap, delay, cands, evicted, &mut comps);
                }
                stair_evict(&mut f.gated, cap, delay, cands, evicted, &mut comps);
            }
        } else {
            if capable {
                scan_evict(&mut f.capable, cap, delay, extra, cands, evicted, &mut comps);
            }
            scan_evict(&mut f.gated, cap, delay, extra, cands, evicted, &mut comps);
        }
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
        let list = if capable { &mut f.capable } else { &mut f.gated };
        let pos = list.partition_point(|e| e.cap < cap);
        list.insert(pos, entry);
        self.comparisons += comps;
    }

    /// `true` if some entry strictly dominates the candidate: it can no
    /// longer be on the Pareto front.
    pub fn is_stale(&mut self, key: usize, cap: f64, delay: f64, extra: f64, capable: bool) -> bool {
        self.refresh(key);
        let f = &self.fronts[key];
        let mut comps = 0u64;
        let stale = if f.uniform {
            if !f.extra0.is_nan() && f.extra0 > extra {
                false
            } else if capable {
                stair_strict(&f.capable, cap, delay, extra, f.extra0, false, &mut comps)
            } else {
                stair_strict(&f.capable, cap, delay, extra, f.extra0, true, &mut comps)
                    || stair_strict(&f.gated, cap, delay, extra, f.extra0, false, &mut comps)
            }
        } else if capable {
            scan_strict(&f.capable, cap, delay, extra, false, &mut comps)
        } else {
            scan_strict(&f.capable, cap, delay, extra, true, &mut comps)
                || scan_strict(&f.gated, cap, delay, extra, false, &mut comps)
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
        q.push(1.0, 0);
        q.push(f64::NAN, 1);
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
            dial.push(k, i as u32);
            heap.push(k, i as u32);
        }
        assert_eq!(dial.peek_key(), Some(1.0));
        for _ in 0..2 {
            assert_eq!(dial.pop(), heap.pop());
        }
        // Push at the last popped key (a wave-style promotion below the
        // calendar base): must pop next, after nothing, like the heap.
        dial.push(1.0, 99);
        heap.push(1.0, 99);
        while let Some(i) = heap.pop() {
            assert_eq!(dial.pop(), Some(i));
        }
        assert_eq!(dial.pop(), None);
        assert_eq!(dial.len(), 0);
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
            proptest::collection::vec(
                (0u8..4, 0u8..6, 0u8..6, 0u8..3, 0u8..8),
                1..120,
            )
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
                        dial.push(key, idx);
                        heap.push(key, idx);
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
        }
    }
}
