//! The arena search driver: the label-correcting loop of the paper's
//! Fig. 1, shared by the fast path, RBP, GALS and latch searches.
//!
//! The four searches differ only in a few steps: what ends the search,
//! which period and goal bounds reject an extension, which
//! synchronizers (registers, the MCFIFO, latches) feed the next wave,
//! and how that wave is promoted. Each search states those steps as a
//! [`Rules`] implementation; [`run`] does everything else — seeding,
//! the pop prologue (dead-skip, failpoint, budget charge, stale-skip),
//! wire and buffer expansion, wave promotion and path reconstruction.
//! `Rules` is a generic parameter, so every search gets its own
//! monomorphised loop with no dynamic call per pop or per edge.

use crate::budget::{BudgetMeter, SearchStage};
use crate::ctx::Ctx;
use crate::engine::{Arena, Cand, CandArena, DialQueue, SortedFronts, NO_PARENT};
use crate::failpoint::{self, FailAction};
use crate::{RouteError, RoutedPath, SearchBudget, SearchStats};
use clockroute_elmore::GateId;
use clockroute_geom::Point;
use clockroute_grid::NodeId;

/// What a search does once the current wave's queue is empty.
pub(crate) enum WaveEnd {
    /// Return the route ending in this candidate.
    Found(Cand),
    /// No feasible route exists.
    Exhausted,
    /// Promote these seeds, in order, as the next wave.
    Next(Vec<u32>),
}

/// The steps in which the searches differ. The defaults describe a
/// search without them: no third dimension, no period bound, no goal
/// bound, no source-arrival test, no synchronizers, no waves.
pub(crate) trait Rules {
    /// Failpoint site hit at every charged pop.
    const SITE: &'static str;
    /// Stage stamped on budget errors.
    const STAGE: SearchStage;
    /// Promotion policy. `true` files a seed in its front when it is
    /// admissible but queues it regardless, so a dominated seed is
    /// stale-skipped at its pop; `false` drops a dominated seed.
    const QUEUE_DOMINATED_SEEDS: bool = true;

    /// Pareto front of a candidate.
    fn key(&self, c: &Cand) -> usize {
        c.node.index()
    }

    /// Third pruning dimension; 0 where the search has none.
    fn extra(&self, _c: &Cand) -> f64 {
        0.0
    }

    /// Source-arrival test on a candidate that survived the stale
    /// test; `true` returns it.
    fn arrival(&mut self, _c: &Cand) -> bool {
        false
    }

    /// Latest delay at which the stage under construction at `c` can
    /// still be closed by a synchronizer: the paper's `T_φ − K(r)`
    /// (Fig. 5 steps 5 and 7). A buffer is rejected above it, a wire
    /// extension above it less the cheapest driver's load on the wire
    /// (`bound_rejected`). `None`: no period bound.
    fn stage_limit(&self, _c: &Cand) -> Option<f64> {
        None
    }

    /// Whether the wire extension test applies (RBP can switch it off).
    fn wire_bound(&self) -> bool {
        true
    }

    /// Goal test, after the period test: a candidate at `at` with this
    /// load and delay cannot reach the optimum (`goal_pruned`).
    fn doomed(&self, _at: NodeId, _cap: f64, _delay: f64, _waves: u32) -> bool {
        false
    }

    /// Sees every queued wire extension; a returned candidate is queued
    /// too, keyed by its delay and outside any front. One flagged
    /// `finalized` ends the search when it is popped.
    fn wired(&mut self, _next: &Cand) -> Option<Cand> {
        None
    }

    /// Synchronizer insertions at `c`, an internal, gate-free node where
    /// registers are allowed.
    fn synchronize(&mut self, _c: &Cand, _s: &mut Search<'_>) {}

    /// The current wave's queue is empty.
    fn wave_end(&mut self, _s: &mut Search<'_>) -> WaveEnd {
        WaveEnd::Exhausted
    }
}

/// The state of one arena search: step and candidate arenas, sorted
/// fronts, the dial queue, the budget meter and the counters.
pub(crate) struct Search<'a> {
    ctx: &'a Ctx<'a>,
    meter: BudgetMeter,
    arena: Arena,
    pub cands: CandArena,
    fronts: SortedFronts,
    queue: DialQueue,
    pub stats: SearchStats,
}

/// Runs one search over `keys` Pareto fronts. On success returns the
/// reconstructed route and the candidate it ends in; `stats` holds the
/// search's counters either way.
pub(crate) fn run<R: Rules>(
    ctx: &Ctx<'_>,
    budget: SearchBudget,
    keys: usize,
    stats: &mut SearchStats,
    rules: &mut R,
) -> Result<(RoutedPath, Cand), RouteError> {
    // The search owns its counters while it runs and hands them back
    // on every exit, a budget error included.
    let mut search = Search {
        ctx,
        meter: BudgetMeter::new(budget, R::STAGE),
        arena: Arena::new(),
        cands: CandArena::new(),
        fronts: SortedFronts::new(keys),
        queue: DialQueue::new(ctx.queue_scale()),
        stats: *stats,
    };
    let out = search.run(rules);
    *stats = search.stats;
    out
}

/// Labels a reconstructed source→sink walk with the terminal gates.
pub(crate) fn reconstruct(ctx: &Ctx<'_>, arena: &Arena, trail: u32) -> RoutedPath {
    let (nodes, mut labels) = arena.reconstruct(trail);
    let points: Vec<Point> = nodes.iter().map(|&n| ctx.graph.point(n)).collect();
    labels[0] = Some(ctx.gs);
    let last = labels.len() - 1;
    labels[last] = Some(ctx.gt);
    RoutedPath::new(points, labels, ctx.lib)
}

impl Search<'_> {
    /// `c` with the synchronizer `gate` inserted at its node: a new
    /// arena step, no further gate there, and a new stage that starts
    /// at the gate's input load and setup time.
    pub fn synchronizer(&mut self, c: &Cand, gate: GateId) -> Cand {
        let g = self.ctx.lib.gate(gate);
        Cand {
            cap: g.input_cap().ff(),
            delay: g.setup().ps(),
            trail: self.arena.push(c.node, Some(gate), c.trail),
            gate_here: true,
            ..*c
        }
    }

    fn run<R: Rules>(&mut self, rules: &mut R) -> Result<(RoutedPath, Cand), RouteError> {
        let ctx = self.ctx;
        let graph = ctx.graph;
        // Step 1: the sink's gate seeds the search.
        let gt = ctx.lib.gate(ctx.gt);
        let root = self.arena.push(ctx.t, None, NO_PARENT);
        let start = Cand::start(gt.input_cap().ff(), gt.setup().ps(), root, ctx.t);
        let sidx = self.cands.alloc(&start);
        self.file_seed(rules, sidx, &start);
        self.enqueue(start.delay, sidx);

        loop {
            while let Some(idx) = self.queue.pop() {
                // Evicted from its front while queued: skip before
                // charging anything.
                if self.cands.is_dead(idx) {
                    continue;
                }
                match failpoint::hit(R::SITE) {
                    Some(FailAction::Panic) => panic!("failpoint {}: forced panic", R::SITE),
                    Some(FailAction::BudgetExhausted) => return Err(self.meter.exceeded()),
                    Some(FailAction::NoRoute) => return Err(RouteError::NoFeasibleRoute),
                    // I/O actions only apply at `serve::*` sites; inert here.
                    Some(FailAction::IoError | FailAction::ShortIo) | None => {}
                }
                self.stats.budget_charges += 1;
                self.stats.arena_steps = self.arena.len() as u64;
                self.meter.charge_pop(self.arena.len())?;
                self.stats.configs += 1;
                let cand = self.cands.get(idx);
                if cand.finalized {
                    return Ok(self.found(cand));
                }
                let extra = rules.extra(&cand);
                let key = rules.key(&cand);
                if self
                    .fronts
                    .is_stale(key, cand.cap, cand.delay, extra, !cand.gate_here)
                {
                    self.stats.stale_skipped += 1;
                    continue;
                }
                if rules.arrival(&cand) {
                    return Ok(self.found(cand));
                }
                let limit = rules.stage_limit(&cand);
                let waves = self.stats.waves;

                // Step 6 (Fig. 1): extend along each incident edge.
                for v in graph.neighbors(cand.node) {
                    self.stats.budget_charges += 1;
                    self.meter.charge_expand()?;
                    let (re, ce) = ctx.edge(cand.node, v);
                    let cap = cand.cap + ce;
                    let delay = cand.delay + re * (cand.cap + ce / 2.0);
                    if rules.wire_bound()
                        && limit.is_some_and(|l| delay > l - ctx.min_res * cap * 1.0e-3)
                    {
                        self.stats.bound_rejected += 1;
                        continue;
                    }
                    if rules.doomed(v, cap, delay, waves) {
                        self.stats.goal_pruned += 1;
                        continue;
                    }
                    let next = Cand {
                        cap,
                        delay,
                        node: v,
                        gate_here: false,
                        ..cand
                    };
                    let Some(next) = self.extend(rules, next, None, extra) else {
                        continue;
                    };
                    if let Some(done) = rules.wired(&next) {
                        let didx = self.cands.alloc(&done);
                        self.enqueue(done.delay, didx);
                    }
                }

                // Steps 7–8: every buffer at an internal, gate-free node.
                let internal = cand.node != ctx.s && cand.node != ctx.t && !cand.gate_here;
                if internal && graph.is_insertable(cand.node) {
                    for b in &ctx.buffers {
                        self.stats.budget_charges += 1;
                        self.meter.charge_expand()?;
                        let cap = b.cap;
                        let delay = cand.delay + b.res * cand.cap * 1.0e-3 + b.k;
                        if limit.is_some_and(|l| delay > l) {
                            self.stats.bound_rejected += 1;
                            continue;
                        }
                        if rules.doomed(cand.node, cap, delay, waves) {
                            self.stats.goal_pruned += 1;
                            continue;
                        }
                        let next = Cand {
                            cap,
                            delay,
                            gate_here: true,
                            ..cand
                        };
                        self.extend(rules, next, Some(b.id), extra);
                    }
                }
                if internal && graph.is_register_allowed(cand.node) {
                    rules.synchronize(&cand, self);
                }
            }

            let wave = match rules.wave_end(self) {
                WaveEnd::Found(cand) => return Ok(self.found(cand)),
                WaveEnd::Exhausted => {
                    self.settle();
                    return Err(RouteError::NoFeasibleRoute);
                }
                WaveEnd::Next(wave) => wave,
            };
            self.stats.waves += 1;
            self.fronts.advance_wave();
            for idx in wave {
                let seed = self.cands.get(idx);
                // A doomed seed's synchronizer is already recorded, so
                // dropping its promotion only removes work (DESIGN.md §15).
                if rules.doomed(seed.node, seed.cap, seed.delay, self.stats.waves) {
                    self.stats.goal_pruned += 1;
                    continue;
                }
                self.stats.budget_charges += 1;
                self.stats.promoted += 1;
                self.meter.charge_expand()?;
                if self.file_seed(rules, idx, &seed) || R::QUEUE_DOMINATED_SEEDS {
                    self.enqueue(seed.delay, idx);
                } else {
                    self.stats.pruned += 1;
                }
            }
        }
    }

    fn enqueue(&mut self, key: f64, idx: u32) {
        self.queue.push(key, idx);
        self.stats.record_push(self.queue.len());
    }

    /// Files and queues an extension of the popped candidate unless its
    /// front dominates it. The dominance test runs first, so a rejected
    /// extension allocates nothing; an admitted one gets an arena step
    /// (carrying `gate`, for a buffer), a candidate slot and a front
    /// entry.
    #[inline(always)]
    fn extend<R: Rules>(
        &mut self,
        rules: &R,
        mut next: Cand,
        gate: Option<GateId>,
        extra: f64,
    ) -> Option<Cand> {
        let key = rules.key(&next);
        let capable = !next.gate_here;
        if !self
            .fronts
            .admits(key, next.cap, next.delay, extra, capable)
        {
            self.stats.pruned += 1;
            return None;
        }
        next.trail = self.arena.push(next.node, gate, next.trail);
        let idx = self.cands.alloc(&next);
        self.insert(key, &next, extra, capable, idx);
        self.enqueue(next.delay, idx);
        Some(next)
    }

    /// Files an allocated gate-bearing seed in its front if no entry
    /// dominates it; `true` if it was filed.
    fn file_seed<R: Rules>(&mut self, rules: &R, idx: u32, seed: &Cand) -> bool {
        let key = rules.key(seed);
        let extra = rules.extra(seed);
        let filed = self.fronts.admits(key, seed.cap, seed.delay, extra, false);
        if filed {
            self.insert(key, seed, extra, false, idx);
        }
        filed
    }

    /// Adds `c`, stored at `idx`, to its front, evicting (and killing)
    /// the entries it dominates.
    fn insert(&mut self, key: usize, c: &Cand, extra: f64, capable: bool, idx: u32) {
        let pruned = &mut self.stats.pruned;
        self.fronts.insert(
            key,
            c.cap,
            c.delay,
            extra,
            capable,
            idx,
            &mut self.cands,
            pruned,
        );
    }

    /// Final counters of a search that ends without a charge failure.
    fn settle(&mut self) {
        self.stats.arena_steps = self.arena.len() as u64;
        self.stats.front_comparisons = self.fronts.comparisons();
    }

    fn found(&mut self, cand: Cand) -> (RoutedPath, Cand) {
        self.settle();
        self.stats.touched = self.arena.touched(self.ctx.graph);
        (reconstruct(self.ctx, &self.arena, cand.trail), cand)
    }
}
