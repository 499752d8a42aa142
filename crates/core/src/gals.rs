//! GALS — minimum-latency routing between two clock domains
//! (paper §IV, Fig. 12).
//!
//! The route must cross exactly one **MCFIFO** `f` (Chelcea & Nowick's
//! mixed-clock FIFO); relay stations (delay-identical to registers,
//! §IV-B) pipeline the wire on both sides. Stages upstream of the FIFO
//! are clocked at the sender period `T_s`, the FIFO's get interface and
//! everything downstream at the receiver period `T_t` — encoded in the
//! paper's `T(z)` lookup with `T(1) = T_s`, `T(0) = T_t`.
//!
//! Differences from RBP, per the paper:
//!
//! 1. candidates carry `(c, d, m, v, z, l)` — `z` marks whether the FIFO
//!    has been inserted, `l` accumulates latency from the last
//!    synchronizer to the sink;
//! 2. pruning compares only candidates with equal `z` (separate fronts);
//! 3. wave fronts are ordered by **latency** `l`, not register count —
//!    `Q*` is a priority queue keyed by `l` and `ExtractAllMin` promotes
//!    all candidates of the minimum latency at once;
//! 4. a solution is accepted at the source only when `z = 1` and the
//!    final stage meets `T_s`; its total latency is `l + T_s`.
//!
//! Because waves are processed in increasing `l` and every source arrival
//! adds the same `T_s`, the first feasible arrival is globally optimal.

use crate::budget::SearchStage;
use crate::ctx::Ctx;
use crate::engine::Cand;
use crate::search::{self, Rules, Search, WaveEnd};
use crate::telemetry::TelemetryHandle;
use crate::{GalsSolution, RouteError, RoutedPath, SearchBudget, SearchStats};
use clockroute_elmore::{GateId, GateKind, GateLibrary, Technology};
use clockroute_geom::units::Time;
use clockroute_geom::Point;
use clockroute_grid::GridGraph;
use std::collections::BTreeMap;

/// Specification builder for a GALS two-domain search.
///
/// # Example
///
/// ```
/// use clockroute_core::GalsSpec;
/// use clockroute_elmore::{Technology, GateLibrary};
/// use clockroute_grid::GridGraph;
/// use clockroute_geom::{Point, units::{Length, Time}};
///
/// let graph = GridGraph::open(40, 40, Length::from_um(500.0));
/// let tech = Technology::paper_070nm();
/// let lib = GateLibrary::paper_library();
/// let sol = GalsSpec::new(&graph, &tech, &lib)
///     .source(Point::new(0, 0))
///     .sink(Point::new(39, 39))
///     .periods(Time::from_ps(300.0), Time::from_ps(400.0))
///     .solve()?;
/// assert_eq!(sol.path().fifo_count(), 1);
/// # Ok::<(), clockroute_core::RouteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct GalsSpec<'a> {
    graph: &'a GridGraph,
    tech: &'a Technology,
    lib: &'a GateLibrary,
    source: Option<Point>,
    sink: Option<Point>,
    source_gate: GateId,
    sink_gate: GateId,
    t_s: Option<Time>,
    t_t: Option<Time>,
    budget: SearchBudget,
    telemetry: TelemetryHandle<'a>,
}

impl<'a> GalsSpec<'a> {
    /// Creates a spec; terminals default to the library register model.
    pub fn new(graph: &'a GridGraph, tech: &'a Technology, lib: &'a GateLibrary) -> Self {
        GalsSpec {
            graph,
            tech,
            lib,
            source: None,
            sink: None,
            source_gate: lib.register(),
            sink_gate: lib.register(),
            t_s: None,
            t_t: None,
            budget: SearchBudget::unlimited(),
            telemetry: TelemetryHandle::none(),
        }
    }

    /// Sets the source grid point (sender domain).
    pub fn source(mut self, p: Point) -> Self {
        self.source = Some(p);
        self
    }

    /// Sets the sink grid point (receiver domain).
    pub fn sink(mut self, p: Point) -> Self {
        self.sink = Some(p);
        self
    }

    /// Sets the sender (`T_s`) and receiver (`T_t`) clock periods.
    pub fn periods(mut self, t_s: Time, t_t: Time) -> Self {
        self.t_s = Some(t_s);
        self.t_t = Some(t_t);
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
    /// Returns [`RouteError`] if the spec is invalid or no feasible
    /// MCFIFO path exists at these periods and grid granularity.
    pub fn solve(&self) -> Result<GalsSolution, RouteError> {
        let t_s = self.t_s.ok_or(RouteError::InvalidPeriod)?;
        let t_t = self.t_t.ok_or(RouteError::InvalidPeriod)?;
        for t in [t_s, t_t] {
            if t.ps() <= 0.0 || !t.is_finite() {
                return Err(RouteError::InvalidPeriod);
            }
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
        let (t_s, t_t) = (t_s.ps(), t_t.ps());
        let n = self.graph.node_count();
        self.telemetry.search("gals", |stats| {
            // `Q*` is an ordered map from latency to seeds. No goal
            // pruning: the two-domain latency objective has no
            // admissible single-period bound.
            let mut rules = Gals {
                ctx: &ctx,
                t_s,
                t_t,
                reg_marked: [vec![false; n], vec![false; n]],
                fifo_marked: vec![false; n],
                qstar: BTreeMap::new(),
            };
            // Separate Pareto fronts per z: key = node·2 + z.
            let (path, _) = search::run(&ctx, self.budget, n * 2, stats, &mut rules)?;
            Ok(solution(self.lib, path, t_s, t_t, *stats))
        })
    }
}

/// `T(z)` lookup: `T(0) = T_t`, `T(1) = T_s` (paper §IV-B).
#[inline]
fn t_of(z: bool, t_s: f64, t_t: f64) -> f64 {
    if z {
        t_s
    } else {
        t_t
    }
}

/// GALS's steps of the shared search (paper §IV-B).
struct Gals<'a> {
    ctx: &'a Ctx<'a>,
    t_s: f64,
    t_t: f64,
    /// A_0 / A_1: register inserted at v with the given z.
    reg_marked: [Vec<bool>; 2],
    /// F: FIFO inserted at v.
    fifo_marked: Vec<bool>,
    /// Q*: next wave fronts by latency `l`, each in insertion order.
    /// Latencies are positive and finite, so their bit patterns order
    /// like their values.
    qstar: BTreeMap<u64, Vec<u32>>,
}

impl Gals<'_> {
    /// Files a synchronizer claim in `Q*` under its latency.
    fn claim(&mut self, next: &Cand, s: &mut Search<'_>) {
        let idx = s.cands.alloc(next);
        self.qstar
            .entry(next.latency.to_bits())
            .or_default()
            .push(idx);
    }
}

impl Rules for Gals<'_> {
    const SITE: &'static str = "gals::pop";
    const STAGE: SearchStage = SearchStage::Gals;

    fn key(&self, c: &Cand) -> usize {
        c.node.index() * 2 + usize::from(c.fifo_inserted)
    }

    /// Step 4: source arrival — accept only with the FIFO inserted.
    fn arrival(&mut self, c: &Cand) -> bool {
        c.node == self.ctx.s
            && c.fifo_inserted
            && self.ctx.finish_at_source(c.cap, c.delay) <= self.t_s
    }

    /// Steps 5 and 7 are bounded by the current domain period (each
    /// buffer stands for a pair, one per signal direction — §IV-B).
    fn stage_limit(&self, c: &Cand) -> Option<f64> {
        Some(t_of(c.fifo_inserted, self.t_s, self.t_t) - self.ctx.reg_k)
    }

    fn synchronize(&mut self, c: &Cand, s: &mut Search<'_>) {
        let ctx = self.ctx;
        let z = c.fifo_inserted;
        let t_cur = t_of(z, self.t_s, self.t_t);
        let node = c.node.index();

        // Step 8: relay station (register) insertion → next wave,
        // latency grows by the current domain period.
        if !self.reg_marked[usize::from(z)][node] {
            if ctx.register_stage(c.cap, c.delay) <= t_cur {
                self.reg_marked[usize::from(z)][node] = true;
                let mut next = s.synchronizer(c, ctx.reg_id);
                next.latency = c.latency + t_cur;
                self.claim(&next, s);
            } else {
                s.stats.bound_rejected += 1;
            }
        }

        // Step 9: MCFIFO insertion (only once, only before any FIFO),
        // latency grows by T_t (the FIFO's get interface launches the
        // downstream stage on the receiver clock).
        if !z && !self.fifo_marked[node] {
            if ctx.gate_stage(ctx.lib.mcfifo(), c.cap, c.delay) <= t_cur {
                self.fifo_marked[node] = true;
                let mut next = s.synchronizer(c, ctx.lib.mcfifo());
                next.fifo_inserted = true;
                next.latency = c.latency + self.t_t;
                self.claim(&next, s);
            } else {
                s.stats.bound_rejected += 1;
            }
        }
    }

    /// ExtractAllMin(Q*): the next wave is every seed at the minimum
    /// latency.
    fn wave_end(&mut self, _s: &mut Search<'_>) -> WaveEnd {
        match self.qstar.pop_first() {
            Some((_, wave)) => WaveEnd::Next(wave),
            None => WaveEnd::Exhausted,
        }
    }
}

fn solution(
    lib: &GateLibrary,
    path: RoutedPath,
    t_s: f64,
    t_t: f64,
    stats: SearchStats,
) -> GalsSolution {
    // Count relay stations on each side of the FIFO.
    let labels = path.labels();
    let last = labels.len() - 1;
    let mut regs_source_side = 0;
    let mut regs_sink_side = 0;
    let mut seen_fifo = false;
    for &label in labels.iter().take(last).skip(1) {
        if let Some(id) = label {
            match lib.gate(id).kind() {
                GateKind::McFifo => seen_fifo = true,
                GateKind::Register | GateKind::Latch => {
                    if seen_fifo {
                        regs_sink_side += 1;
                    } else {
                        regs_source_side += 1;
                    }
                }
                GateKind::Buffer => {}
            }
        }
    }
    GalsSolution {
        path,
        t_s: Time::from_ps(t_s),
        t_t: Time::from_ps(t_t),
        regs_source_side,
        regs_sink_side,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    fn solve(
        g: &GridGraph,
        tech: &Technology,
        lib: &GateLibrary,
        s: Point,
        t: Point,
        t_s: f64,
        t_t: f64,
    ) -> Result<GalsSolution, RouteError> {
        GalsSpec::new(g, tech, lib)
            .source(s)
            .sink(t)
            .periods(Time::from_ps(t_s), Time::from_ps(t_t))
            .solve()
    }

    #[test]
    fn period_validation() {
        let (g, tech, lib) = setup(5, 100.0);
        let base = GalsSpec::new(&g, &tech, &lib).source(p(0, 0)).sink(p(4, 4));
        assert_eq!(base.clone().solve().unwrap_err(), RouteError::InvalidPeriod);
        assert_eq!(
            base.periods(Time::from_ps(100.0), Time::ZERO)
                .solve()
                .unwrap_err(),
            RouteError::InvalidPeriod
        );
    }

    #[test]
    fn always_contains_exactly_one_fifo() {
        let (g, tech, lib) = setup(10, 250.0);
        let sol = solve(&g, &tech, &lib, p(0, 0), p(9, 9), 400.0, 400.0).unwrap();
        assert_eq!(sol.path().fifo_count(), 1);
        // Even a short, loose-clock route needs the FIFO: at least
        // two stages exist.
        let report = sol.path().report(&g, &tech, &lib);
        assert!(report.stages.len() >= 2);
        assert_eq!(report.fifo_count, 1);
    }

    #[test]
    fn stage_delays_respect_both_domains() {
        let (g, tech, lib) = setup(30, 500.0);
        for (ts, tt) in [(300.0, 300.0), (200.0, 300.0), (300.0, 200.0), (250.0, 420.0)] {
            let sol = solve(&g, &tech, &lib, p(0, 0), p(29, 29), ts, tt).unwrap();
            let report = sol.path().report(&g, &tech, &lib);
            assert!(
                report.is_feasible_gals(
                    Time::from_ps(ts + 1e-9),
                    Time::from_ps(tt + 1e-9)
                ),
                "({ts},{tt}): stage delays {:?}",
                report.stages
            );
        }
    }

    #[test]
    fn latency_formula_consistent_with_report() {
        let (g, tech, lib) = setup(30, 500.0);
        let (ts, tt) = (300.0, 400.0);
        let sol = solve(&g, &tech, &lib, p(0, 0), p(29, 29), ts, tt).unwrap();
        let report = sol.path().report(&g, &tech, &lib);
        let lat = report
            .latency_gals(Time::from_ps(ts + 1e-9), Time::from_ps(tt + 1e-9))
            .expect("feasible");
        // Compare against the analytic formula on the solution object
        // (tolerances only for the +1e-9 period padding).
        assert!((lat.ps() - sol.latency().ps()).abs() < 1e-3);
        assert_eq!(
            sol.regs_source_side() + sol.regs_sink_side(),
            sol.path().register_count()
        );
    }

    #[test]
    fn asymmetric_periods_push_fifo_toward_slow_side() {
        // With a much slower receiver clock, sink-side stages span more
        // distance per cycle, so fewer sink-side relays are needed: the
        // optimiser exploits the cheap (slow) domain.
        let (g, tech, lib) = setup(40, 500.0);
        let fast_snk = solve(&g, &tech, &lib, p(0, 0), p(39, 39), 600.0, 150.0).unwrap();
        let slow_snk = solve(&g, &tech, &lib, p(0, 0), p(39, 39), 150.0, 600.0).unwrap();
        // Mirror-symmetric configurations give mirror-symmetric optima.
        assert_eq!(fast_snk.latency(), slow_snk.latency());
        assert_eq!(fast_snk.regs_source_side(), slow_snk.regs_sink_side());
        assert_eq!(fast_snk.regs_sink_side(), slow_snk.regs_source_side());
    }

    #[test]
    fn equal_periods_match_rbp_latency() {
        // With T_s = T_t = T the MCFIFO is delay-identical to a register,
        // so it simply takes the place of one of RBP's synchronizers:
        // whenever RBP needs at least one register, the GALS optimum has
        // the same stage count and the same latency.
        let (g, tech, lib) = setup(30, 500.0);
        let t = 300.0;
        let rbp = crate::RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(29, 29))
            .period(Time::from_ps(t))
            .solve()
            .unwrap();
        assert!(rbp.register_count() >= 1);
        let gals = solve(&g, &tech, &lib, p(0, 0), p(29, 29), t, t).unwrap();
        let rbp_stages = rbp.register_count() + 1;
        let gals_stages = gals.regs_source_side() + gals.regs_sink_side() + 2;
        assert_eq!(gals_stages, rbp_stages);
        assert!((gals.latency().ps() - rbp.latency().ps()).abs() < 1e-6);

        // On a short net where RBP needs no register, the FIFO is the one
        // extra synchronizer: latency 2T vs T.
        let rbp0 = crate::RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(2, 0))
            .period(Time::from_ps(t))
            .solve()
            .unwrap();
        assert_eq!(rbp0.register_count(), 0);
        let gals0 = solve(&g, &tech, &lib, p(0, 0), p(2, 0), t, t).unwrap();
        assert_eq!(gals0.regs_source_side() + gals0.regs_sink_side(), 0);
        assert!((gals0.latency().ps() - 2.0 * t).abs() < 1e-6);
    }

    #[test]
    fn routes_around_blockages() {
        let mut blk = BlockageMap::new(25, 25);
        for y in 0..24 {
            blk.block_edge(p(12, y), p(13, y));
        }
        let g = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let sol = solve(&g, &tech, &lib, p(0, 0), p(24, 0), 300.0, 350.0).unwrap();
        assert!(sol.path().grid_path().validate(&g).is_ok());
        assert!(sol.path().edge_count() > 24);
        assert_eq!(sol.path().fifo_count(), 1);
    }

    #[test]
    fn infeasible_when_grid_too_coarse() {
        let (g, tech, lib) = setup(10, 500.0);
        assert_eq!(
            solve(&g, &tech, &lib, p(0, 0), p(9, 9), 50.0, 50.0).unwrap_err(),
            RouteError::NoFeasibleRoute
        );
    }

    #[test]
    fn budget_trips_with_gals_stage() {
        let (g, tech, lib) = setup(20, 500.0);
        let err = GalsSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(19, 19))
            .periods(Time::from_ps(200.0), Time::from_ps(250.0))
            .budget(crate::SearchBudget::unlimited().with_max_candidates(15))
            .solve()
            .unwrap_err();
        assert!(
            matches!(
                err,
                RouteError::BudgetExceeded {
                    stage: crate::SearchStage::Gals,
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn deterministic() {
        let (g, tech, lib) = setup(20, 500.0);
        let run = || solve(&g, &tech, &lib, p(0, 0), p(19, 19), 250.0, 300.0).unwrap();
        let a = run();
        let b = run();
        assert_eq!(a.path(), b.path());
        assert_eq!(a.stats(), b.stats());
    }
}
