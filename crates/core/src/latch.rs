//! Transparent-latch routing with time borrowing — the extension the
//! paper points to via Hassoun's level-sensitive-latch work (ref.\ \[9\]).
//!
//! # Model
//!
//! Synchronizers are level-sensitive latches with a transparency window of
//! width `B` after their nominal closing edge: data arriving at latch `i`
//! up to `i·T + B` still flows through, *borrowing* time from the next
//! stage. The source launches exactly at `t = 0` and the sink is an
//! edge-triggered register, so no borrowing is possible at either end.
//! Cycle latency is unchanged by borrowing: `T · (latches + 1)`.
//!
//! Writing `σ_k` for the delay of the `k`-th stage counted from the sink,
//! feasibility is the window-constraint family
//!
//! ```text
//! Σ_{k=i+1..j} σ_k ≤ (j−i)·T + B·[latch i is interior]   for all i < j
//! ```
//!
//! which folds into a single scalar per partial solution: the backward
//! lateness `V` with recurrence `V' = max(σ − T + V, −B)`, feasibility
//! `σ ≤ T − V`, and initial value `V = 0` at the sink. `V` joins `(c, d)`
//! as a third pruning dimension, so the search remains optimal: a
//! candidate is only discarded if another is at least as good in
//! capacitance, delay *and* accumulated lateness.
//!
//! With `B = 0` the model degenerates exactly to RBP (asserted in tests).
//! With `B > 0` the search can ride through grids whose insertion sites
//! are too unevenly spaced for edge-triggered registers, sometimes saving
//! entire pipeline stages.

use crate::budget::SearchStage;
use crate::ctx::Ctx;
use crate::engine::Cand;
use crate::search::{self, Rules, Search, WaveEnd};
use crate::telemetry::TelemetryHandle;
use crate::{RouteError, RoutedPath, SearchBudget, SearchStats};
use clockroute_elmore::{GateId, GateLibrary, Technology};
use clockroute_geom::units::Time;
use clockroute_geom::Point;
use clockroute_grid::GridGraph;
use serde::{Deserialize, Serialize};

/// Specification builder for a latch-based registered route.
///
/// # Example
///
/// ```
/// use clockroute_core::LatchSpec;
/// use clockroute_elmore::{Technology, GateLibrary};
/// use clockroute_grid::GridGraph;
/// use clockroute_geom::{Point, units::{Length, Time}};
///
/// let graph = GridGraph::open(30, 30, Length::from_um(500.0));
/// let tech = Technology::paper_070nm();
/// let lib = GateLibrary::paper_library();
/// let sol = LatchSpec::new(&graph, &tech, &lib)
///     .source(Point::new(0, 0))
///     .sink(Point::new(29, 29))
///     .period(Time::from_ps(300.0))
///     .borrow_window(Time::from_ps(60.0))
///     .solve()?;
/// assert!(sol.latch_count() > 0);
/// # Ok::<(), clockroute_core::RouteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LatchSpec<'a> {
    graph: &'a GridGraph,
    tech: &'a Technology,
    lib: &'a GateLibrary,
    source: Option<Point>,
    sink: Option<Point>,
    source_gate: GateId,
    sink_gate: GateId,
    period: Option<Time>,
    borrow: Time,
    budget: SearchBudget,
    telemetry: TelemetryHandle<'a>,
}

impl<'a> LatchSpec<'a> {
    /// Creates a spec with the register model at both terminals and a
    /// zero borrowing window (i.e. RBP semantics until configured).
    pub fn new(graph: &'a GridGraph, tech: &'a Technology, lib: &'a GateLibrary) -> Self {
        LatchSpec {
            graph,
            tech,
            lib,
            source: None,
            sink: None,
            source_gate: lib.register(),
            sink_gate: lib.register(),
            period: None,
            borrow: Time::ZERO,
            budget: SearchBudget::unlimited(),
            telemetry: TelemetryHandle::none(),
        }
    }

    /// Sets the source grid point.
    pub fn source(mut self, p: Point) -> Self {
        self.source = Some(p);
        self
    }

    /// Sets the sink grid point.
    pub fn sink(mut self, p: Point) -> Self {
        self.sink = Some(p);
        self
    }

    /// Sets the clock period `T_φ`.
    pub fn period(mut self, t: Time) -> Self {
        self.period = Some(t);
        self
    }

    /// Sets the transparency (time-borrowing) window `B`.
    pub fn borrow_window(mut self, b: Time) -> Self {
        self.borrow = b;
        self
    }

    /// Sets the resource budget for the search (default: unlimited).
    pub fn budget(mut self, b: SearchBudget) -> Self {
        self.budget = b;
        self
    }

    /// Attaches a telemetry sink (default: detached, zero-cost).
    pub fn telemetry(mut self, t: TelemetryHandle<'a>) -> Self {
        self.telemetry = t;
        self
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] on invalid specs or when no latch placement
    /// meets the period even with borrowing.
    pub fn solve(&self) -> Result<LatchSolution, RouteError> {
        let t_phi = self.period.ok_or(RouteError::InvalidPeriod)?;
        if t_phi.ps() <= 0.0 || !t_phi.is_finite() || self.borrow.ps() < 0.0 {
            return Err(RouteError::InvalidPeriod);
        }
        let ctx = Ctx::new(
            self.graph,
            self.tech,
            self.lib,
            self.source,
            self.sink,
            self.source_gate,
            self.sink_gate,
        )?;
        self.telemetry.search("latch", |stats| {
            // The sorted fronts fall back to linear scans where a node's
            // front mixes lateness values. No goal pruning: the
            // borrowed-lateness dimension makes the single-period
            // distance bound inadmissible.
            let n = self.graph.node_count();
            let mut rules = Latches {
                ctx: &ctx,
                t: t_phi.ps(),
                b: self.borrow.ps(),
                spill: Vec::new(),
                best_seed_v: vec![f64::INFINITY; n],
            };
            let (path, _) = search::run(&ctx, self.budget, n, stats, &mut rules)?;
            Ok(LatchSolution {
                path,
                period: t_phi,
                borrow: self.borrow,
                stats: *stats,
            })
        })
    }
}

/// Result of a latch-based search.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatchSolution {
    path: RoutedPath,
    period: Time,
    borrow: Time,
    stats: SearchStats,
}

impl LatchSolution {
    /// The labelled route (latches use the library's latch model).
    pub fn path(&self) -> &RoutedPath {
        &self.path
    }

    /// The clock period.
    pub fn period(&self) -> Time {
        self.period
    }

    /// The transparency window `B`.
    pub fn borrow_window(&self) -> Time {
        self.borrow
    }

    /// Number of inserted latches.
    pub fn latch_count(&self) -> usize {
        self.path.register_count()
    }

    /// Number of inserted buffers.
    pub fn buffer_count(&self) -> usize {
        self.path.buffer_count()
    }

    /// Cycle latency `T_φ × (latches + 1)` — borrowing does not change
    /// latency, only feasibility.
    pub fn latency(&self) -> Time {
        self.period * (self.latch_count() as f64 + 1.0)
    }

    /// Search-effort counters.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }
}

/// Checks the window-constraint family directly on forward stage delays
/// — the independent validator used in tests and by downstream tooling.
///
/// `stages` are forward (source first); `t` the period, `b` the window.
pub fn validate_borrowing(stages: &[Time], t: Time, b: Time) -> bool {
    if stages.is_empty() {
        return false;
    }
    // Forward lateness recurrence: L_0 = 0 at the source launch;
    // L_i = max(0, L_{i-1} + σ_i − T) ≤ B at interior latches; the sink
    // requires L = 0 after the last stage.
    let mut lateness: f64 = 0.0;
    for (i, s) in stages.iter().enumerate() {
        lateness = (lateness + s.ps() - t.ps()).max(0.0);
        let limit = if i + 1 == stages.len() { 0.0 } else { b.ps() };
        if lateness > limit + 1e-9 {
            return false;
        }
    }
    true
}

/// The latch search's steps of the shared search. A candidate's
/// `borrowed` field is its backward lateness `V`.
struct Latches<'a> {
    ctx: &'a Ctx<'a>,
    t: f64,
    b: f64,
    /// Latch insertions feeding the next wave.
    spill: Vec<u32>,
    /// Cross-wave seed dominance: the lowest lateness `V` of any latch
    /// inserted at each node so far; a later insertion there must have
    /// less.
    best_seed_v: Vec<f64>,
}

impl Rules for Latches<'_> {
    const SITE: &'static str = "latch::pop";
    const STAGE: SearchStage = SearchStage::Latch;
    const QUEUE_DOMINATED_SEEDS: bool = false;

    /// `V` shifted to ≥ 0.
    fn extra(&self, c: &Cand) -> f64 {
        c.borrowed + self.b
    }

    /// The source launches exactly at the edge: no borrowing.
    fn arrival(&mut self, c: &Cand) -> bool {
        c.node == self.ctx.s
            && self.ctx.finish_at_source(c.cap, c.delay) - self.t + c.borrowed <= 0.0
    }

    /// The stage under construction has the admissible budget
    /// `σ ≤ T − V`, closed by a latch.
    fn stage_limit(&self, c: &Cand) -> Option<f64> {
        Some(self.t - c.borrowed - self.ctx.lib.gate(self.ctx.lib.latch()).intrinsic().ps())
    }

    /// Latch insertion → next wave, carrying the new lateness V'.
    fn synchronize(&mut self, c: &Cand, s: &mut Search<'_>) {
        let latch = self.ctx.lib.latch();
        let stage = self.ctx.gate_stage(latch, c.cap, c.delay);
        // Feasible iff σ ≤ T − V; the borrowing allowance of the
        // downstream latch is already folded into V (clamped at −B), so
        // a stage may overshoot T by up to B when the downstream windows
        // have that much slack.
        if stage - self.t + c.borrowed <= 0.0 {
            let new_v = (stage - self.t + c.borrowed).max(-self.b);
            let node = c.node.index();
            if new_v >= self.best_seed_v[node] {
                s.stats.pruned += 1;
                return;
            }
            self.best_seed_v[node] = new_v;
            let mut next = s.synchronizer(c, latch);
            next.borrowed = new_v;
            self.spill.push(s.cands.alloc(&next));
        } else {
            s.stats.bound_rejected += 1;
        }
    }

    fn wave_end(&mut self, s: &mut Search<'_>) -> WaveEnd {
        // Termination bound: every latch occupies a distinct node
        // (m: V → I ∪ {0}), so a feasible solution never needs more
        // latches than there are grid nodes. Unlike RBP there is no
        // global A(v) marking here (candidates with different lateness
        // may all legitimately latch at the same node), so without this
        // cap an infeasible instance would spawn waves forever.
        if self.spill.is_empty() || s.stats.waves as usize >= self.ctx.graph.node_count() {
            return WaveEnd::Exhausted;
        }
        // Seed in delay order, pruning among the wave's candidates
        // (several may share a node with different lateness); the sort
        // is stable, so equal delays keep their insertion order.
        let mut wave = std::mem::take(&mut self.spill);
        wave.sort_by(|&a, &b| s.cands.get(a).delay.total_cmp(&s.cands.get(b).delay));
        WaveEnd::Next(wave)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RbpSpec;
    use clockroute_geom::units::Length;
    use clockroute_geom::BlockageMap;

    fn setup(n: u32, pitch_um: f64) -> (GridGraph, Technology, GateLibrary) {
        (
            GridGraph::open(n, n, Length::from_um(pitch_um)),
            Technology::paper_070nm(),
            GateLibrary::paper_library(),
        )
    }

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn validator_accepts_balanced_and_borrowed() {
        let t = Time::from_ps(100.0);
        let b = Time::from_ps(20.0);
        let s = |v: f64| Time::from_ps(v);
        assert!(validate_borrowing(&[s(90.0), s(95.0)], t, b));
        // Borrow 15 in stage 1, repay in stage 2.
        assert!(validate_borrowing(&[s(115.0), s(80.0)], t, b));
        // Borrow beyond the window.
        assert!(!validate_borrowing(&[s(125.0), s(60.0)], t, b));
        // Borrow into the sink (last stage must repay fully).
        assert!(!validate_borrowing(&[s(90.0), s(105.0)], t, b));
        // Chained borrowing that never repays.
        assert!(!validate_borrowing(&[s(115.0), s(110.0), s(90.0)], t, b));
        // Chained borrowing that does repay.
        assert!(validate_borrowing(&[s(115.0), s(100.0), s(80.0)], t, b));
        assert!(!validate_borrowing(&[], t, b));
    }

    #[test]
    fn zero_borrow_matches_rbp() {
        let (g, tech, lib) = setup(25, 500.0);
        for period in [250.0, 400.0, 700.0] {
            let rbp = RbpSpec::new(&g, &tech, &lib)
                .source(p(0, 0))
                .sink(p(24, 24))
                .period(Time::from_ps(period))
                .solve()
                .unwrap();
            let lat = LatchSpec::new(&g, &tech, &lib)
                .source(p(0, 0))
                .sink(p(24, 24))
                .period(Time::from_ps(period))
                .solve()
                .unwrap();
            assert_eq!(
                lat.latch_count(),
                rbp.register_count(),
                "period {period}"
            );
            assert_eq!(lat.latency(), rbp.latency());
        }
    }

    #[test]
    fn solutions_satisfy_window_constraints() {
        let (g, tech, lib) = setup(30, 500.0);
        let t = Time::from_ps(250.0);
        let b = Time::from_ps(50.0);
        let sol = LatchSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(29, 29))
            .period(t)
            .borrow_window(b)
            .solve()
            .unwrap();
        let report = sol.path().report(&g, &tech, &lib);
        let stages: Vec<Time> = report.stage_delays().collect();
        assert!(
            validate_borrowing(&stages, t, b),
            "stages {stages:?} violate borrowing constraints"
        );
    }

    #[test]
    fn borrowing_never_hurts_and_can_save_stages() {
        // On a grid with sparse insertion sites, register placement is
        // forced to be uneven; borrowing lets stages overshoot and repay.
        let mut blk = BlockageMap::new(41, 3);
        // Only every 7th column allows insertion.
        for x in 0..41 {
            if x % 7 != 0 {
                for y in 0..3 {
                    blk.block_node(p(x, y));
                }
            }
        }
        let g = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let t = Time::from_ps(260.0);

        let no_borrow = LatchSpec::new(&g, &tech, &lib)
            .source(p(0, 1))
            .sink(p(40, 1))
            .period(t)
            .solve();
        let with_borrow = LatchSpec::new(&g, &tech, &lib)
            .source(p(0, 1))
            .sink(p(40, 1))
            .period(t)
            .borrow_window(Time::from_ps(80.0))
            .solve();
        let wb = with_borrow.expect("borrowing route must exist");
        if let Ok(nb) = no_borrow {
            assert!(
                wb.latch_count() <= nb.latch_count(),
                "borrowing used more latches ({} vs {})",
                wb.latch_count(),
                nb.latch_count()
            );
        }
        // The borrowed solution is genuinely valid.
        let report = wb.path().report(&g, &tech, &lib);
        let stages: Vec<Time> = report.stage_delays().collect();
        assert!(validate_borrowing(&stages, t, Time::from_ps(80.0)));
    }

    #[test]
    fn infeasible_reported() {
        let (g, tech, lib) = setup(8, 500.0);
        let err = LatchSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(7, 7))
            .period(Time::from_ps(30.0))
            .borrow_window(Time::from_ps(5.0))
            .solve()
            .unwrap_err();
        assert_eq!(err, RouteError::NoFeasibleRoute);
    }

    #[test]
    fn invalid_spec_rejected() {
        let (g, tech, lib) = setup(5, 500.0);
        assert_eq!(
            LatchSpec::new(&g, &tech, &lib)
                .source(p(0, 0))
                .sink(p(4, 4))
                .solve()
                .unwrap_err(),
            RouteError::InvalidPeriod
        );
    }
}
