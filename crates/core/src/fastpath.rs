//! The fast path algorithm (Zhou, Wong, Liu & Aziz): minimum Elmore-delay
//! buffered routing path.
//!
//! This is the dynamic-programming framework (paper Fig. 1) that RBP and
//! GALS extend. Candidates `(c, d, m, v)` — downstream capacitance, delay
//! to the sink, labelling, node — are expanded Dijkstra-style from the
//! sink; at every node a Pareto front over `(c, d)` prunes inferior
//! candidates. When a candidate that has reached the source (with the
//! driving gate's delay added) is popped off the queue, it is the global
//! minimum-delay buffered path.

use crate::budget::SearchStage;
use crate::ctx::Ctx;
use crate::engine::Cand;
use crate::goal::{probe_fastpath, GoalBound};
use crate::search::{self, Rules};
use crate::telemetry::TelemetryHandle;
use crate::{FastPathSolution, RouteError, SearchBudget};
use clockroute_elmore::{GateId, GateLibrary, Technology};
use clockroute_geom::units::Time;
use clockroute_geom::Point;
use clockroute_grid::{GridGraph, NodeId};

/// Specification builder for a fast path search.
///
/// # Example
///
/// ```
/// use clockroute_core::FastPathSpec;
/// use clockroute_elmore::{Technology, GateLibrary};
/// use clockroute_grid::GridGraph;
/// use clockroute_geom::{Point, units::Length};
///
/// let graph = GridGraph::open(20, 20, Length::from_um(500.0));
/// let tech = Technology::paper_070nm();
/// let lib = GateLibrary::paper_library();
/// let sol = FastPathSpec::new(&graph, &tech, &lib)
///     .source(Point::new(0, 0))
///     .sink(Point::new(19, 19))
///     .solve()?;
/// assert!(sol.buffer_count() > 0);
/// # Ok::<(), clockroute_core::RouteError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FastPathSpec<'a> {
    graph: &'a GridGraph,
    tech: &'a Technology,
    lib: &'a GateLibrary,
    source: Option<Point>,
    sink: Option<Point>,
    source_gate: GateId,
    sink_gate: GateId,
    budget: SearchBudget,
    telemetry: TelemetryHandle<'a>,
    goal_prune: bool,
}

impl<'a> FastPathSpec<'a> {
    /// Creates a spec with the library's register as the default terminal
    /// gate model at both ends.
    pub fn new(graph: &'a GridGraph, tech: &'a Technology, lib: &'a GateLibrary) -> Self {
        FastPathSpec {
            graph,
            tech,
            lib,
            source: None,
            sink: None,
            source_gate: lib.register(),
            sink_gate: lib.register(),
            budget: SearchBudget::unlimited(),
            telemetry: TelemetryHandle::none(),
            goal_prune: true,
        }
    }

    /// Enables or disables admissible goal pruning (default: on). Like
    /// `wire_bound` on the RBP spec, this never changes the result —
    /// only the amount of work spent reaching it.
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

    /// Overrides the driving gate `g_s` at the source.
    pub fn source_gate(mut self, g: GateId) -> Self {
        self.source_gate = g;
        self
    }

    /// Overrides the receiving gate `g_t` at the sink.
    pub fn sink_gate(mut self, g: GateId) -> Self {
        self.sink_gate = g;
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
    /// disconnected by wiring blockages, or the budget is exhausted.
    pub fn solve(&self) -> Result<FastPathSolution, RouteError> {
        let ctx = Ctx::new(
            self.graph,
            self.tech,
            self.lib,
            self.source,
            self.sink,
            self.source_gate,
            self.sink_gate,
        )?;
        self.telemetry.search("fastpath", |stats| {
            let mut rules = FastPath {
                ctx: &ctx,
                bound: GoalBound::new(&ctx),
                // `None` disables pruning (blocked probe path — no upper
                // bound).
                upper: if self.goal_prune {
                    probe_fastpath(&ctx)
                } else {
                    None
                },
            };
            let keys = self.graph.node_count();
            let (path, done) = search::run(&ctx, self.budget, keys, stats, &mut rules)?;
            Ok(FastPathSolution {
                path,
                delay: Time::from_ps(done.delay),
                stats: *stats,
            })
        })
    }
}

/// The fast path's steps of the shared search: completed source
/// arrivals are queued keyed by their total delay, and the first one
/// popped is globally optimal.
struct FastPath<'a> {
    ctx: &'a Ctx<'a>,
    bound: GoalBound,
    /// Best completed delay so far; `None` when goal pruning is off.
    upper: Option<f64>,
}

impl Rules for FastPath<'_> {
    const SITE: &'static str = "fastpath::pop";
    const STAGE: SearchStage = SearchStage::FastPath;

    fn doomed(&self, at: NodeId, cap: f64, delay: f64, _waves: u32) -> bool {
        self.upper
            .is_some_and(|u| self.bound.doomed(self.ctx.graph.point(at), cap, delay, u))
    }

    /// Step 5: a source arrival also queues the completed candidate,
    /// keyed by its total delay, and tightens the goal bound.
    fn wired(&mut self, next: &Cand) -> Option<Cand> {
        if next.node != self.ctx.s {
            return None;
        }
        let total = self.ctx.finish_at_source(next.cap, next.delay);
        if let Some(u) = self.upper {
            if total < u {
                self.upper = Some(total);
            }
        }
        Some(Cand {
            delay: total,
            finalized: true,
            ..*next
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_elmore::calib;
    use clockroute_geom::units::Length;
    use clockroute_geom::{BlockageMap, Rect};
    use clockroute_grid::shortest_path;

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
    fn missing_terminals_error() {
        let (g, tech, lib) = setup(4, 100.0);
        assert_eq!(
            FastPathSpec::new(&g, &tech, &lib).solve().unwrap_err(),
            RouteError::UnspecifiedSource
        );
        assert_eq!(
            FastPathSpec::new(&g, &tech, &lib)
                .source(p(0, 0))
                .solve()
                .unwrap_err(),
            RouteError::UnspecifiedSink
        );
    }

    #[test]
    fn short_route_needs_no_buffer() {
        let (g, tech, lib) = setup(4, 100.0);
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(1, 0))
            .solve()
            .unwrap();
        assert_eq!(sol.buffer_count(), 0);
        assert_eq!(sol.path().edge_count(), 1);
        // Verify against the ground-truth evaluator.
        let report = sol.path().report(&g, &tech, &lib);
        assert!((report.total_delay().ps() - sol.delay().ps()).abs() < 1e-6);
    }

    #[test]
    fn takes_shortest_route_on_open_grid() {
        let (g, tech, lib) = setup(12, 250.0);
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(p(1, 1))
            .sink(p(10, 8))
            .solve()
            .unwrap();
        // Detours only add delay on an open grid.
        assert_eq!(sol.path().edge_count() as u32, p(1, 1).manhattan(p(10, 8)));
        let sp = shortest_path(&g, p(1, 1), p(10, 8)).unwrap();
        assert_eq!(sol.path().edge_count(), sp.edge_count());
    }

    #[test]
    fn long_route_buffer_count_and_delay_match_theory() {
        // 40 grid edges at 500 µm = 20 mm: theory says buffers every
        // ~2.37 mm and ~68.7 ps/mm.
        let (g, tech, lib) = setup(41, 500.0);
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 20))
            .sink(p(40, 20))
            .solve()
            .unwrap();
        let buf = *lib.gate(lib.buffers().next().unwrap());
        let predicted = calib::min_buffered_delay(&tech, &buf, Length::from_mm(20.0));
        let measured = sol.delay();
        assert!(
            (measured.ps() - predicted.ps()).abs() / predicted.ps() < 0.05,
            "measured {measured} vs theory {predicted}"
        );
        // ~20 mm / 2.37 mm ≈ 8 buffers.
        assert!(
            (7..=9).contains(&sol.buffer_count()),
            "buffers {}",
            sol.buffer_count()
        );
        // Ground truth agrees exactly.
        let report = sol.path().report(&g, &tech, &lib);
        assert!((report.total_delay().ps() - measured.ps()).abs() < 1e-6);
    }

    #[test]
    fn routes_around_wiring_blockage() {
        let mut blk = BlockageMap::new(11, 11);
        // Wall with a gap at the top.
        for y in 0..10 {
            blk.block_edge(p(5, y), p(6, y));
        }
        let g = GridGraph::new(blk, Length::from_um(250.0), Length::from_um(250.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(10, 0))
            .solve()
            .unwrap();
        assert!(sol.path().grid_path().validate(&g).is_ok());
        assert!(sol.path().edge_count() > 10);
    }

    #[test]
    fn no_buffers_inside_obstacles() {
        let mut blk = BlockageMap::new(21, 5);
        // Obstacle covering the middle band: routable but not insertable.
        blk.block_nodes(&Rect::new(p(5, 0), p(15, 4)));
        let g = GridGraph::new(blk, Length::from_um(1000.0), Length::from_um(1000.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 2))
            .sink(p(20, 2))
            .solve()
            .unwrap();
        for (pt, gate) in sol.path().gates() {
            if pt != p(0, 2) && pt != p(20, 2) {
                assert!(
                    !g.blockage().is_node_blocked(pt),
                    "gate {gate} inserted inside obstacle at {pt}"
                );
            }
        }
        assert!(sol.buffer_count() > 0);
    }

    #[test]
    fn disconnected_terminals_error() {
        let mut blk = BlockageMap::new(5, 5);
        for y in 0..5 {
            blk.block_edge(p(2, y), p(3, y));
        }
        let g = GridGraph::new(blk, Length::from_um(100.0), Length::from_um(100.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let err = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(4, 4))
            .solve()
            .unwrap_err();
        assert_eq!(err, RouteError::NoFeasibleRoute);
    }

    #[test]
    fn deterministic() {
        let (g, tech, lib) = setup(15, 250.0);
        let run = || {
            FastPathSpec::new(&g, &tech, &lib)
                .source(p(0, 0))
                .sink(p(14, 14))
                .solve()
                .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.path(), b.path());
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn candidate_budget_stops_search_with_diagnostics() {
        let (g, tech, lib) = setup(20, 250.0);
        let err = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(19, 19))
            .budget(crate::SearchBudget::unlimited().with_max_candidates(10))
            .solve()
            .unwrap_err();
        match err {
            RouteError::BudgetExceeded {
                candidates,
                stage,
                elapsed,
            } => {
                assert_eq!(candidates, 11);
                assert_eq!(stage, crate::SearchStage::FastPath);
                assert!(elapsed < std::time::Duration::from_secs(10));
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn arena_budget_stops_search() {
        let (g, tech, lib) = setup(20, 250.0);
        let err = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(19, 19))
            .budget(crate::SearchBudget::unlimited().with_max_arena_steps(50))
            .solve()
            .unwrap_err();
        assert!(matches!(err, RouteError::BudgetExceeded { .. }), "{err:?}");
    }

    #[test]
    fn generous_budget_does_not_change_result() {
        let (g, tech, lib) = setup(12, 250.0);
        let free = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(11, 11))
            .solve()
            .unwrap();
        let budgeted = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(11, 11))
            .budget(
                crate::SearchBudget::unlimited()
                    .with_max_candidates(u64::MAX)
                    .with_max_arena_steps(usize::MAX)
                    .with_deadline(std::time::Duration::from_secs(3600)),
            )
            .solve()
            .unwrap();
        assert_eq!(free.path(), budgeted.path());
        assert_eq!(free.stats(), budgeted.stats());
    }

    #[test]
    fn failpoint_forces_each_failure_mode() {
        use crate::failpoint::{self, FailAction};
        let (g, tech, lib) = setup(8, 250.0);
        let run = || {
            FastPathSpec::new(&g, &tech, &lib)
                .source(p(0, 0))
                .sink(p(7, 7))
                .solve()
        };

        failpoint::disarm_all();
        failpoint::arm("fastpath::pop", FailAction::NoRoute, 2);
        assert_eq!(run().unwrap_err(), RouteError::NoFeasibleRoute);
        // One-shot: the next run is unaffected.
        assert!(run().is_ok());

        failpoint::arm("fastpath::pop", FailAction::BudgetExhausted, 1);
        assert!(matches!(
            run().unwrap_err(),
            RouteError::BudgetExceeded { .. }
        ));

        failpoint::arm("fastpath::pop", FailAction::Panic, 1);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(run));
        assert!(panicked.is_err());
        failpoint::disarm_all();
    }

    #[test]
    fn telemetry_counters_match_stats() {
        let (g, tech, lib) = setup(8, 250.0);
        let rec = crate::MetricsRecorder::new();
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(7, 7))
            .telemetry(TelemetryHandle::new(&rec))
            .solve()
            .unwrap();
        let s = sol.stats();
        assert_eq!(rec.counter_value("search.fastpath.solves"), 1);
        assert_eq!(rec.counter_value("search.fastpath.errors"), 0);
        assert_eq!(rec.counter_value("search.fastpath.pops"), s.configs);
        assert_eq!(rec.counter_value("search.fastpath.pushed"), s.pushed);
        assert_eq!(
            rec.counter_value("search.fastpath.arena_bytes"),
            s.arena_bytes()
        );
        assert_eq!(
            rec.gauge_value("search.fastpath.max_queue"),
            s.max_queue as u64
        );
        assert!(s.budget_charges >= s.configs);
        assert!(s.arena_steps > 0);
    }

    #[test]
    fn telemetry_flushes_on_error_too() {
        let (g, tech, lib) = setup(12, 250.0);
        let rec = crate::MetricsRecorder::new();
        let err = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(11, 11))
            .budget(crate::SearchBudget::unlimited().with_max_candidates(5))
            .telemetry(TelemetryHandle::new(&rec))
            .solve()
            .unwrap_err();
        assert!(matches!(err, RouteError::BudgetExceeded { .. }));
        assert_eq!(rec.counter_value("search.fastpath.errors"), 1);
        // The partial search effort is still accounted (the sixth pop
        // trips the cap before it is counted as examined).
        assert_eq!(rec.counter_value("search.fastpath.pops"), 5);
        assert!(rec.counter_value("search.fastpath.budget_charges") >= 6);
    }

    #[test]
    fn stats_populated() {
        let (g, tech, lib) = setup(10, 250.0);
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(9, 9))
            .solve()
            .unwrap();
        let s = sol.stats();
        assert!(s.configs > 0);
        assert!(s.pushed > 0);
        assert!(s.max_queue > 0);
    }
}
