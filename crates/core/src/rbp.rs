//! RBP — the Registered-Buffered Path algorithm (paper §III, Fig. 5).
//!
//! Finds the *minimum cycle-latency* source→sink path in a single clock
//! domain, inserting buffers and registers so that every
//! register-to-register stage meets the clock period
//! (`stage ≤ T_φ`, with launch clock-to-q and capture setup included).
//!
//! The pruning insight (paper Fig. 4): candidates may only be compared
//! against candidates with the **same number of registers**, so the search
//! proceeds in *wave fronts* — a second queue `Q*` collects candidates
//! that just received a register, and is promoted to `Q` only when the
//! current wave is exhausted. Because all solutions in a wave have equal
//! latency `T_φ·(p+1)`, the first feasible source arrival is optimal and
//! is returned immediately.
//!
//! Extensions beyond the paper's pseudo-code, all noted in `DESIGN.md`:
//!
//! * the paper's alternative queue organisation (end of §III: an array
//!   of queues indexed by register count) needs no separate mode — each
//!   wave's register claims are promoted in push order from one list,
//!   which is what the array would hold (DESIGN.md §15);
//! * [`TieBreak::MaxEndpointSlack`] — among minimum-latency solutions,
//!   maximise the sum of source and sink stage slack (paper §III, last
//!   paragraph); implemented by adding the sink-stage delay as a third
//!   pruning dimension so no Pareto-optimal lineage is lost;
//! * register keep-outs (`BlockKind::RegisterKeepout`) — the paper's
//!   "register blockages" remark;
//! * the admissible wire bound of step 5 can be disabled
//!   ([`RbpSpec::wire_bound`]) to measure how much work it saves.

use crate::budget::SearchStage;
use crate::ctx::Ctx;
use crate::engine::Cand;
use crate::goal::{probe_rbp, GoalBound};
use crate::search::{self, Rules, Search, WaveEnd};
use crate::telemetry::TelemetryHandle;
use crate::{RbpSolution, RouteError, SearchBudget, SearchStats};
use clockroute_elmore::{GateId, GateLibrary, Technology};
use clockroute_geom::units::Time;
use clockroute_geom::Point;
use clockroute_grid::{GridGraph, NodeId};

/// How to choose among equal-latency optima.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TieBreak {
    /// Return the first feasible source arrival (paper Fig. 5 step 4).
    #[default]
    FirstFound,
    /// Explore the whole winning wave and return the solution maximising
    /// `slack(source stage) + slack(sink stage)` (paper §III remark).
    MaxEndpointSlack,
}

/// Wave-front trace: the register-insertion rings of Fig. 6.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct WaveTrace {
    /// `register_rings[w]` holds the grid points that received their
    /// (w+1)-th-wave register insertion, in insertion order.
    pub register_rings: Vec<Vec<Point>>,
}

/// Specification builder for an RBP search.
///
/// # Example
///
/// ```
/// use clockroute_core::RbpSpec;
/// use clockroute_elmore::{Technology, GateLibrary};
/// use clockroute_grid::GridGraph;
/// use clockroute_geom::{Point, units::{Length, Time}};
///
/// let graph = GridGraph::open(40, 40, Length::from_um(500.0));
/// let tech = Technology::paper_070nm();
/// let lib = GateLibrary::paper_library();
/// let sol = RbpSpec::new(&graph, &tech, &lib)
///     .source(Point::new(0, 0))
///     .sink(Point::new(39, 39))
///     .period(Time::from_ps(500.0))
///     .solve()?;
/// assert_eq!(sol.latency(), Time::from_ps(500.0) * (sol.register_count() as f64 + 1.0));
/// # Ok::<(), clockroute_core::RouteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RbpSpec<'a> {
    graph: &'a GridGraph,
    tech: &'a Technology,
    lib: &'a GateLibrary,
    source: Option<Point>,
    sink: Option<Point>,
    source_gate: GateId,
    sink_gate: GateId,
    period: Option<Time>,
    tie_break: TieBreak,
    wire_bound: bool,
    budget: SearchBudget,
    telemetry: TelemetryHandle<'a>,
    goal_prune: bool,
}

impl<'a> RbpSpec<'a> {
    /// Creates a spec; terminals default to the library register model
    /// (`g_s = g_t = r`, as the paper assumes).
    pub fn new(graph: &'a GridGraph, tech: &'a Technology, lib: &'a GateLibrary) -> Self {
        RbpSpec {
            graph,
            tech,
            lib,
            source: None,
            sink: None,
            source_gate: lib.register(),
            sink_gate: lib.register(),
            period: None,
            tie_break: TieBreak::default(),
            wire_bound: true,
            budget: SearchBudget::unlimited(),
            telemetry: TelemetryHandle::none(),
            goal_prune: true,
        }
    }

    /// Enables or disables admissible goal pruning against the
    /// canonical-path register bound (default: on).
    /// Like [`wire_bound`](RbpSpec::wire_bound), this never changes the
    /// result — only the amount of work.
    pub fn goal_prune(mut self, on: bool) -> Self {
        self.goal_prune = on;
        self
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

    /// Sets the clock period `T_φ`. Must be finite and positive; for the
    /// unconstrained problem use
    /// [`FastPathSpec`](crate::FastPathSpec) instead.
    pub fn period(mut self, t: Time) -> Self {
        self.period = Some(t);
        self
    }

    /// Selects the tie-break among equal-latency optima.
    pub fn tie_break(mut self, t: TieBreak) -> Self {
        self.tie_break = t;
        self
    }

    /// Enables/disables the admissible feasibility bound on wire
    /// expansion (`d' ≤ T_φ − K(r) − min R·c'`, Fig. 5 step 5). Disabling
    /// it never changes the result, only the amount of work.
    pub fn wire_bound(mut self, enabled: bool) -> Self {
        self.wire_bound = enabled;
        self
    }

    /// Sets the resource budget for the search (default: unlimited).
    pub fn budget(mut self, b: SearchBudget) -> Self {
        self.budget = b;
        self
    }

    /// Attaches a telemetry sink (default: none; see
    /// [`telemetry`](crate::telemetry)).
    pub fn telemetry(mut self, t: TelemetryHandle<'a>) -> Self {
        self.telemetry = t;
        self
    }

    /// Runs the search.
    ///
    /// # Errors
    ///
    /// Returns [`RouteError`] if the spec is invalid, the terminals are
    /// disconnected, or no register spacing can meet the period at this
    /// grid granularity (cf. the empty cells of Table II).
    pub fn solve(&self) -> Result<RbpSolution, RouteError> {
        self.telemetry
            .search("rbp", |stats| self.run(None, stats).map(|(sol, _)| sol))
    }

    /// Runs the search and additionally records the register wave rings
    /// (Fig. 6).
    pub fn solve_traced(&self) -> Result<(RbpSolution, WaveTrace), RouteError> {
        let mut trace = WaveTrace::default();
        let (sol, ()) = self
            .telemetry
            .search("rbp", |stats| self.run(Some(&mut trace), stats))?;
        Ok((sol, trace))
    }

    /// The search on the shared driver, plus (optionally) admissible
    /// wave-budget goal pruning.
    fn run(
        &self,
        trace: Option<&mut WaveTrace>,
        stats: &mut SearchStats,
    ) -> Result<(RbpSolution, ()), RouteError> {
        let t_phi = self.period.ok_or(RouteError::InvalidPeriod)?;
        if t_phi.ps() <= 0.0 || !t_phi.is_finite() {
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
        let t = t_phi.ps();
        let n = ctx.graph.node_count();
        let mut rules = Rbp {
            ctx: &ctx,
            spec: self,
            t,
            bound: GoalBound::new(&ctx),
            // Upper bound on the optimal register count from the
            // canonical staircase probe. `None` disables goal pruning.
            p_ub: if self.goal_prune {
                probe_rbp(&ctx, t)
            } else {
                None
            },
            reg_marked: vec![false; n],
            trace,
            best: None,
            spill: Vec::new(),
        };
        let (path, last) = search::run(&ctx, self.budget, n, stats, &mut rules)?;
        let (source_stage, sink_stage) = rules.stages(&last);
        Ok((
            RbpSolution {
                path,
                period: t_phi,
                stats: *stats,
                source_stage: Time::from_ps(source_stage),
                sink_stage: Time::from_ps(sink_stage),
            },
            (),
        ))
    }

}

/// RBP's steps of the shared search (paper Fig. 5).
struct Rbp<'a> {
    ctx: &'a Ctx<'a>,
    spec: &'a RbpSpec<'a>,
    t: f64,
    bound: GoalBound,
    p_ub: Option<u32>,
    /// A(v): a register has been inserted at v in some candidate
    /// (global across the run — paper difference #3).
    reg_marked: Vec<bool>,
    trace: Option<&'a mut WaveTrace>,
    /// Best slack-mode arrival in the current wave, with its endpoint
    /// slack sum.
    best: Option<(f64, Cand)>,
    /// `Q*`: the register claims of the current wave. Every claim
    /// starts its stage at the register's setup time, so the wave pops
    /// first in, first out: it is a list. The paper's queue array would
    /// hold only this wave's claims too.
    spill: Vec<u32>,
}

impl Rbp<'_> {
    /// Source and sink stage delays of a route arriving as `c`.
    fn stages(&self, c: &Cand) -> (f64, f64) {
        let total = self.ctx.finish_at_source(c.cap, c.delay);
        let sink_stage = if c.sink_stage.is_nan() {
            total
        } else {
            c.sink_stage
        };
        (total, sink_stage)
    }
}

impl Rules for Rbp<'_> {
    const SITE: &'static str = "rbp::pop";
    const STAGE: SearchStage = SearchStage::Rbp;

    fn extra(&self, c: &Cand) -> f64 {
        let slack_mode = self.spec.tie_break == TieBreak::MaxEndpointSlack;
        prune_extra(slack_mode, c.sink_stage)
    }

    /// Step 4: source arrival. An infeasible (or slack-mode) arrival
    /// keeps expanding normally: other routes may pass through this
    /// node.
    fn arrival(&mut self, c: &Cand) -> bool {
        if c.node != self.ctx.s {
            return false;
        }
        let (total, sink_stage) = self.stages(c);
        if total <= self.t {
            match self.spec.tie_break {
                TieBreak::FirstFound => return true,
                TieBreak::MaxEndpointSlack => {
                    let slack_sum = (self.t - total) + (self.t - sink_stage);
                    if self.best.is_none_or(|(s, _)| slack_sum > s) {
                        self.best = Some((slack_sum, *c));
                    }
                }
            }
        }
        false
    }

    /// Steps 5 and 7: `d' ≤ T_φ − K(r)`, less `min R·c'` on a wire.
    fn stage_limit(&self, _c: &Cand) -> Option<f64> {
        Some(self.t - self.ctx.reg_k)
    }

    fn wire_bound(&self) -> bool {
        self.spec.wire_bound
    }

    /// Even `t` per remaining wave of the `p_ub` budget cannot cover
    /// the distance ahead of `at`.
    fn doomed(&self, at: NodeId, cap: f64, delay: f64, waves: u32) -> bool {
        self.p_ub.is_some_and(|p_ub| {
            self.bound.doomed_wave(
                self.ctx.graph.point(at),
                cap,
                delay,
                p_ub.saturating_sub(waves),
                self.t,
            )
        })
    }

    /// Step 8: register insertion → next wave. Never goal-pruned: a
    /// claim resets the candidate to the register's own load, so the
    /// per-wave distance bound does not apply to it (DESIGN.md §15
    /// claim-divergence argument).
    fn synchronize(&mut self, c: &Cand, s: &mut Search<'_>) {
        let ctx = self.ctx;
        if self.reg_marked[c.node.index()] {
            return;
        }
        let stage = ctx.register_stage(c.cap, c.delay);
        if stage <= self.t {
            self.reg_marked[c.node.index()] = true;
            let wave = s.stats.waves as usize;
            if let Some(trace) = self.trace.as_deref_mut() {
                if trace.register_rings.len() <= wave {
                    trace.register_rings.resize(wave + 1, Vec::new());
                }
                trace.register_rings[wave].push(ctx.graph.point(c.node));
            }
            let mut next = s.synchronizer(c, ctx.reg_id);
            if next.sink_stage.is_nan() {
                next.sink_stage = stage;
            }
            self.spill.push(s.cands.alloc(&next));
        } else {
            s.stats.bound_rejected += 1;
        }
    }

    fn wave_end(&mut self, _s: &mut Search<'_>) -> WaveEnd {
        if let Some((_, best)) = self.best.take() {
            return WaveEnd::Found(best);
        }
        if self.spill.is_empty() {
            WaveEnd::Exhausted
        } else {
            WaveEnd::Next(std::mem::take(&mut self.spill))
        }
    }
}

#[inline]
fn prune_extra(slack_mode: bool, sink_stage: f64) -> f64 {
    if slack_mode && !sink_stage.is_nan() {
        sink_stage
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FastPathSpec;
    use clockroute_geom::units::Length;
    use clockroute_geom::{BlockageMap, Rect};

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

    fn solve(
        g: &GridGraph,
        tech: &Technology,
        lib: &GateLibrary,
        s: Point,
        t: Point,
        period_ps: f64,
    ) -> Result<RbpSolution, RouteError> {
        RbpSpec::new(g, tech, lib)
            .source(s)
            .sink(t)
            .period(Time::from_ps(period_ps))
            .solve()
    }

    #[test]
    fn period_validation() {
        let (g, tech, lib) = setup(5, 100.0);
        let base = RbpSpec::new(&g, &tech, &lib).source(p(0, 0)).sink(p(4, 4));
        assert_eq!(base.clone().solve().unwrap_err(), RouteError::InvalidPeriod);
        assert_eq!(
            base.clone().period(Time::ZERO).solve().unwrap_err(),
            RouteError::InvalidPeriod
        );
        assert_eq!(
            base.period(Time::INFINITY).solve().unwrap_err(),
            RouteError::InvalidPeriod
        );
    }

    #[test]
    fn loose_period_needs_no_registers() {
        // 4 edges at 250 µm = 1 mm total: delay well under 500 ps.
        let (g, tech, lib) = setup(5, 250.0);
        let sol = solve(&g, &tech, &lib, p(0, 0), p(4, 0), 500.0).unwrap();
        assert_eq!(sol.register_count(), 0);
        assert_eq!(sol.latency(), Time::from_ps(500.0));
        assert_eq!(sol.stats().waves, 0);
    }

    #[test]
    fn stage_delays_respect_period() {
        let (g, tech, lib) = setup(30, 500.0);
        for period in [200.0, 300.0, 600.0] {
            let sol = solve(&g, &tech, &lib, p(0, 0), p(29, 29), period).unwrap();
            let report = sol.path().report(&g, &tech, &lib);
            assert!(
                report.is_feasible_single(Time::from_ps(period + 1e-9)),
                "period {period}: max stage {}",
                report.max_stage_delay()
            );
            assert_eq!(report.register_count, sol.register_count());
        }
    }

    #[test]
    fn tighter_period_means_more_registers_fewer_buffers_eventually() {
        let (g, tech, lib) = setup(40, 500.0);
        let mut prev_regs = 0usize;
        for period in [2000.0, 1000.0, 500.0, 250.0, 120.0] {
            let sol = solve(&g, &tech, &lib, p(0, 0), p(39, 39), period).unwrap();
            assert!(
                sol.register_count() >= prev_regs,
                "period {period}: registers decreased"
            );
            prev_regs = sol.register_count();
        }
        assert!(prev_regs >= 10);
    }

    #[test]
    fn infeasible_when_grid_too_coarse() {
        // Table II: at 0.5 mm pitch, a 53 ps period is unachievable.
        let (g, tech, lib) = setup(10, 500.0);
        assert_eq!(
            solve(&g, &tech, &lib, p(0, 0), p(9, 9), 53.0).unwrap_err(),
            RouteError::NoFeasibleRoute
        );
        // …but 62 ps is (registers every grid point).
        let sol = solve(&g, &tech, &lib, p(0, 0), p(9, 9), 62.0).unwrap();
        assert_eq!(sol.register_count(), 17);
    }

    #[test]
    fn infeasible_search_reports_its_final_arena_length() {
        // A 6 mm obstacle band (routable, no gate sites) next to the
        // source: the waves walk in from the sink, then no stage can
        // cross the band within the period.
        let mut blk = BlockageMap::new(24, 1);
        blk.block_nodes(&Rect::new(p(1, 0), p(12, 0)));
        let g = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let rec = crate::MetricsRecorder::new();
        let err = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(23, 0))
            .period(Time::from_ps(150.0))
            .telemetry(TelemetryHandle::new(&rec))
            .solve()
            .unwrap_err();
        assert_eq!(err, RouteError::NoFeasibleRoute);
        let steps = rec.counter_value("search.rbp.arena_steps");
        let waves = rec.counter_value("search.rbp.waves");
        assert!(waves > 0, "search must do real work");
        // Every arena step of an exhausted search is a queued candidate:
        // the sink seed, each filed wire/buffer extension, and each
        // register claim (all promoted, since the search only exhausts
        // on an empty wave). So the final arena length is `pushed`.
        assert_eq!(steps, rec.counter_value("search.rbp.pushed"));
    }

    #[test]
    fn min_latency_equals_brute_force_on_line() {
        // On a 1-D line the optimal register count is ⌈needed⌉ by theory:
        // compare with exhaustive spacing search.
        let g = GridGraph::open(17, 1, Length::from_um(1000.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let sol = solve(&g, &tech, &lib, p(0, 0), p(16, 0), 150.0).unwrap();
        // 16 mm path; max unbuffered span at 150 ps ≈ 2.6 mm ⇒ but buffers
        // allow longer stages. Just require: report feasible and latency
        // consistent.
        let report = sol.path().report(&g, &tech, &lib);
        assert!(report.is_feasible_single(Time::from_ps(150.0 + 1e-9)));
        assert_eq!(
            sol.latency(),
            Time::from_ps(150.0) * (sol.register_count() as f64 + 1.0)
        );
    }

    #[test]
    fn rbp_at_loose_period_matches_fast_path_route_quality() {
        // With a period far above the fast-path delay, RBP inserts no
        // registers and its combinational delay equals the fast path's.
        let (g, tech, lib) = setup(25, 500.0);
        let fp = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(24, 24))
            .solve()
            .unwrap();
        let sol = solve(&g, &tech, &lib, p(0, 0), p(24, 24), fp.delay().ps() * 1.5).unwrap();
        assert_eq!(sol.register_count(), 0);
        let report = sol.path().report(&g, &tech, &lib);
        // RBP returns the first feasible arrival, not the fastest, so its
        // delay may exceed the optimum — but never the period, and a
        // feasible one exists at the fast-path delay.
        assert!(report.total_delay().ps() <= fp.delay().ps() * 1.5 + 1e-9);
    }

    #[test]
    fn register_positions_are_insertable() {
        let mut blk = BlockageMap::new(30, 30);
        blk.block_nodes(&Rect::new(p(8, 0), p(12, 25)));
        blk.block_registers(&Rect::new(p(18, 5), p(24, 29)));
        let g = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let sol = solve(&g, &tech, &lib, p(0, 0), p(29, 29), 300.0).unwrap();
        for (pt, gate) in sol.path().gates() {
            if pt == p(0, 0) || pt == p(29, 29) {
                continue;
            }
            assert!(!g.blockage().is_node_blocked(pt), "gate at blocked {pt}");
            if lib.gate(gate).kind().is_sequential() {
                assert!(
                    !g.blockage().is_register_blocked(pt),
                    "register inside keep-out at {pt}"
                );
            }
        }
        assert!(sol.path().grid_path().validate(&g).is_ok());
    }

    #[test]
    fn wire_bound_only_saves_work() {
        let (g, tech, lib) = setup(25, 500.0);
        let with = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(24, 24))
            .period(Time::from_ps(300.0))
            .solve()
            .unwrap();
        let without = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(24, 24))
            .period(Time::from_ps(300.0))
            .wire_bound(false)
            .solve()
            .unwrap();
        assert_eq!(with.register_count(), without.register_count());
        assert_eq!(with.latency(), without.latency());
        assert!(
            with.stats().configs <= without.stats().configs,
            "bound should not increase work: {} vs {}",
            with.stats().configs,
            without.stats().configs
        );
    }

    #[test]
    fn slack_tie_break_never_worse() {
        let (g, tech, lib) = setup(25, 500.0);
        for period in [250.0, 400.0] {
            let first = RbpSpec::new(&g, &tech, &lib)
                .source(p(0, 0))
                .sink(p(24, 24))
                .period(Time::from_ps(period))
                .solve()
                .unwrap();
            let slack = RbpSpec::new(&g, &tech, &lib)
                .source(p(0, 0))
                .sink(p(24, 24))
                .period(Time::from_ps(period))
                .tie_break(TieBreak::MaxEndpointSlack)
                .solve()
                .unwrap();
            // Same optimal latency…
            assert_eq!(first.latency(), slack.latency(), "period {period}");
            // …with at least as much endpoint slack.
            let sum_first = first.source_slack() + first.sink_slack();
            let sum_slack = slack.source_slack() + slack.sink_slack();
            assert!(
                sum_slack.ps() >= sum_first.ps() - 1e-6,
                "period {period}: {sum_slack} < {sum_first}"
            );
            // And the slack figures are consistent with ground truth.
            let report = slack.path().report(&g, &tech, &lib);
            let first_stage = report.stages[0].delay;
            assert!((Time::from_ps(period) - first_stage - slack.source_slack()).abs().ps() < 1e-6);
        }
    }

    #[test]
    fn wave_trace_rings_expand(){
        let (g, tech, lib) = setup(30, 500.0);
        let (sol, trace) = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(29, 29))
            .period(Time::from_ps(250.0))
            .solve_traced()
            .unwrap();
        assert!(sol.register_count() >= 2);
        assert_eq!(
            trace.register_rings.len() as u32,
            sol.stats().waves + 1
        );
        // Later rings lie (weakly) farther from the sink in hop distance.
        let sink = p(29, 29);
        let avg: Vec<f64> = trace
            .register_rings
            .iter()
            .filter(|ring| !ring.is_empty())
            .map(|ring| {
                ring.iter().map(|q| q.manhattan(sink) as f64).sum::<f64>() / ring.len() as f64
            })
            .collect();
        for w in 1..avg.len() {
            assert!(
                avg[w] > avg[w - 1],
                "ring {w} did not expand: {avg:?}"
            );
        }
    }

    #[test]
    fn budget_trips_across_waves() {
        // A tight period forces many waves; the candidate cap must stop
        // the whole run, not just the first wave.
        let (g, tech, lib) = setup(20, 500.0);
        let err = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(19, 19))
            .period(Time::from_ps(150.0))
            .budget(crate::SearchBudget::unlimited().with_max_candidates(25))
            .solve()
            .unwrap_err();
        match err {
            RouteError::BudgetExceeded {
                candidates, stage, ..
            } => {
                assert_eq!(candidates, 26);
                assert_eq!(stage, crate::SearchStage::Rbp);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn wall_clock_deadline_honoured_promptly() {
        // A long search on a large grid must stop close to the deadline
        // even while spinning in expansion/promotion work between pops.
        use std::time::{Duration, Instant};
        // Big enough that even an optimised build cannot finish inside the
        // deadline (a release run of this instance takes well over 100 ms).
        let (g, tech, lib) = setup(250, 250.0);
        let deadline = Duration::from_millis(5);
        let start = Instant::now();
        let result = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(249, 249))
            .period(Time::from_ps(100.0))
            .budget(crate::SearchBudget::unlimited().with_deadline(deadline))
            .solve();
        let elapsed = start.elapsed();
        assert!(
            matches!(result, Err(RouteError::BudgetExceeded { .. })),
            "{result:?}"
        );
        // Generous tolerance for slow CI machines; an unbudgeted run of
        // this instance takes several seconds.
        assert!(elapsed < deadline + Duration::from_millis(300), "overshot: {elapsed:?}");
    }

    #[test]
    fn deterministic() {
        let (g, tech, lib) = setup(20, 500.0);
        let run = || solve(&g, &tech, &lib, p(0, 0), p(19, 19), 300.0).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.path(), b.path());
        assert_eq!(a.stats(), b.stats());
    }
}
