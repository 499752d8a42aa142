//! Solution types: fully-labelled routed paths and per-algorithm results.

use clockroute_elmore::delay::{evaluate, RouteElem, RouteReport};
use clockroute_elmore::{GateId, GateKind, GateLibrary, Technology};
use clockroute_geom::units::{Length, Time};
use clockroute_geom::Point;
use clockroute_grid::{GridGraph, GridPath};
use serde::{Deserialize, Serialize};
use std::fmt;

use crate::SearchStats;

/// A routed path together with its gate labelling `m` — the output object
/// of all three algorithms.
///
/// Positions run from source to sink. `labels[0]` is the driving gate
/// `g_s`, `labels[last]` the receiving gate `g_t`; interior entries are
/// the inserted buffers / registers / MCFIFO (or `None`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutedPath {
    points: Vec<Point>,
    labels: Vec<Option<GateId>>,
    buffer_count: usize,
    register_count: usize,
    fifo_count: usize,
}

impl RoutedPath {
    /// Assembles a routed path from raw search output.
    ///
    /// A single-point path is the degenerate zero-length route (source
    /// and sink share a grid node); it carries one terminal label and no
    /// inserted elements.
    ///
    /// # Panics
    ///
    /// Panics if `points` and `labels` differ in length, the path is
    /// empty, or a terminal label is missing.
    pub fn new(points: Vec<Point>, labels: Vec<Option<GateId>>, lib: &GateLibrary) -> RoutedPath {
        assert_eq!(points.len(), labels.len(), "points/labels length mismatch");
        assert!(!points.is_empty(), "a routed path needs at least one point");
        assert!(
            labels[0].is_some() && labels[labels.len() - 1].is_some(),
            "terminal gates must be labelled"
        );
        let mut buffer_count = 0;
        let mut register_count = 0;
        let mut fifo_count = 0;
        if labels.len() >= 2 {
            for &label in &labels[1..labels.len() - 1] {
                if let Some(id) = label {
                    match lib.gate(id).kind() {
                        GateKind::Buffer => buffer_count += 1,
                        GateKind::Register | GateKind::Latch => register_count += 1,
                        GateKind::McFifo => fifo_count += 1,
                    }
                }
            }
        }
        RoutedPath {
            points,
            labels,
            buffer_count,
            register_count,
            fifo_count,
        }
    }

    /// The grid points of the route, source first.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// The labelling `m`, aligned with [`points`](Self::points).
    #[inline]
    pub fn labels(&self) -> &[Option<GateId>] {
        &self.labels
    }

    /// Source grid point.
    pub fn source(&self) -> Point {
        self.points[0]
    }

    /// Sink grid point.
    pub fn sink(&self) -> Point {
        self.points[self.points.len() - 1]
    }

    /// Number of inserted buffers.
    #[inline]
    pub fn buffer_count(&self) -> usize {
        self.buffer_count
    }

    /// Number of inserted registers / relay stations (excluding the
    /// terminals).
    #[inline]
    pub fn register_count(&self) -> usize {
        self.register_count
    }

    /// Number of inserted MCFIFOs (0 or 1).
    #[inline]
    pub fn fifo_count(&self) -> usize {
        self.fifo_count
    }

    /// Number of grid edges traversed.
    pub fn edge_count(&self) -> usize {
        self.points.len() - 1
    }

    /// The bare geometric path.
    pub fn grid_path(&self) -> GridPath {
        GridPath::new(self.points.clone())
    }

    /// Iterates over `(point, gate)` pairs for every labelled position,
    /// terminals included.
    pub fn gates(&self) -> impl Iterator<Item = (Point, GateId)> + '_ {
        self.points
            .iter()
            .zip(self.labels.iter())
            .filter_map(|(&p, &l)| l.map(|g| (p, g)))
    }

    /// Converts to the linear [`RouteElem`] representation consumed by the
    /// ground-truth delay evaluator.
    pub fn to_route_elems(&self, graph: &GridGraph) -> Vec<RouteElem> {
        let mut elems = Vec::with_capacity(self.points.len() * 2);
        // crlint-allow: CR002 construction invariant: the source point always carries its gate label
        elems.push(RouteElem::Gate(self.labels[0].expect("source gate")));
        for i in 1..self.points.len() {
            let a = graph.node(self.points[i - 1]);
            let b = graph.node(self.points[i]);
            elems.push(RouteElem::Wire(graph.edge_length(a, b)));
            if let Some(g) = self.labels[i] {
                elems.push(RouteElem::Gate(g));
            }
        }
        // The sink label is already appended by the loop's last iteration.
        elems
    }

    /// Ground-truth Elmore re-evaluation of the route.
    pub fn report(&self, graph: &GridGraph, tech: &Technology, lib: &GateLibrary) -> RouteReport {
        evaluate(&self.to_route_elems(graph), tech, lib)
            // crlint-allow: CR002 construction invariant: searches only build evaluable routes
            .expect("a RoutedPath always forms a well-formed route")
    }

    /// Total physical wirelength.
    pub fn wirelength(&self, graph: &GridGraph) -> Length {
        self.grid_path().length(graph)
    }

    /// Grid-edge separations between consecutive *sequential* elements
    /// (terminals, registers, MCFIFO) — the paper's `MaxRegSep` /
    /// `MinRegSep` columns.
    pub fn register_separations(&self, lib: &GateLibrary) -> Vec<usize> {
        self.separations(|id| lib.gate(id).kind().is_sequential())
    }

    /// Grid-edge separations between consecutive inserted elements of any
    /// kind (terminals included) — the paper's `Max R/B Sep` column.
    pub fn element_separations(&self) -> Vec<usize> {
        self.separations(|_| true)
    }

    fn separations(&self, keep: impl Fn(GateId) -> bool) -> Vec<usize> {
        let mut seps = Vec::new();
        let mut last = 0usize;
        for i in 1..self.points.len() {
            let is_terminal = i == self.points.len() - 1;
            if let Some(id) = self.labels[i] {
                if is_terminal || keep(id) {
                    seps.push(i - last);
                    last = i;
                }
            }
        }
        seps
    }
}

impl fmt::Display for RoutedPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "route {} → {} ({} edges, {} buffers, {} registers, {} fifos)",
            self.source(),
            self.sink(),
            self.edge_count(),
            self.buffer_count,
            self.register_count,
            self.fifo_count
        )
    }
}

/// Result of the fast path search: the minimum-delay buffered path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FastPathSolution {
    pub(crate) path: RoutedPath,
    pub(crate) delay: Time,
    pub(crate) stats: SearchStats,
}

impl FastPathSolution {
    /// The labelled route.
    pub fn path(&self) -> &RoutedPath {
        &self.path
    }

    /// The minimised source→sink Elmore delay (including the terminal
    /// gates' contributions).
    pub fn delay(&self) -> Time {
        self.delay
    }

    /// Search-effort counters.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }

    /// Number of inserted buffers.
    pub fn buffer_count(&self) -> usize {
        self.path.buffer_count()
    }
}

/// Result of the RBP search: the minimum-latency registered-buffered path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RbpSolution {
    pub(crate) path: RoutedPath,
    pub(crate) period: Time,
    pub(crate) stats: SearchStats,
    pub(crate) source_stage: Time,
    pub(crate) sink_stage: Time,
}

impl RbpSolution {
    /// The labelled route.
    pub fn path(&self) -> &RoutedPath {
        &self.path
    }

    /// The clock period the route was synthesised for.
    pub fn period(&self) -> Time {
        self.period
    }

    /// Number of inserted registers `p`.
    pub fn register_count(&self) -> usize {
        self.path.register_count()
    }

    /// Number of inserted buffers.
    pub fn buffer_count(&self) -> usize {
        self.path.buffer_count()
    }

    /// Cycle latency `T_φ × (p + 1)` (paper §III).
    pub fn latency(&self) -> Time {
        self.period * (self.path.register_count() as f64 + 1.0)
    }

    /// Slack of the first stage (at the source): `T_φ − stage delay`.
    pub fn source_slack(&self) -> Time {
        self.period - self.source_stage
    }

    /// Slack of the last stage (into the sink): `T_φ − stage delay`.
    pub fn sink_slack(&self) -> Time {
        self.period - self.sink_stage
    }

    /// Search-effort counters.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }
}

/// Result of the GALS search: the minimum-latency two-domain path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GalsSolution {
    pub(crate) path: RoutedPath,
    pub(crate) t_s: Time,
    pub(crate) t_t: Time,
    pub(crate) regs_source_side: usize,
    pub(crate) regs_sink_side: usize,
    pub(crate) stats: SearchStats,
}

impl GalsSolution {
    /// The labelled route.
    pub fn path(&self) -> &RoutedPath {
        &self.path
    }

    /// Sender-domain clock period `T_s`.
    pub fn t_s(&self) -> Time {
        self.t_s
    }

    /// Receiver-domain clock period `T_t`.
    pub fn t_t(&self) -> Time {
        self.t_t
    }

    /// Relay stations between the source and the MCFIFO (`Reg-s`).
    pub fn regs_source_side(&self) -> usize {
        self.regs_source_side
    }

    /// Relay stations between the MCFIFO and the sink (`Reg-t`).
    pub fn regs_sink_side(&self) -> usize {
        self.regs_sink_side
    }

    /// Number of inserted buffers.
    pub fn buffer_count(&self) -> usize {
        self.path.buffer_count()
    }

    /// Empty-FIFO latency `T_s·(Reg_s+1) + T_t·(Reg_t+1)` (paper §IV).
    pub fn latency(&self) -> Time {
        self.t_s * (self.regs_source_side as f64 + 1.0)
            + self.t_t * (self.regs_sink_side as f64 + 1.0)
    }

    /// Search-effort counters.
    pub fn stats(&self) -> &SearchStats {
        &self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::units::Length;

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    fn sample() -> (GridGraph, GateLibrary, RoutedPath) {
        let graph = GridGraph::open(6, 1, Length::from_um(1000.0));
        let lib = GateLibrary::paper_library();
        let reg = lib.register();
        let buf = lib.buffers().next().unwrap();
        let points = vec![p(0, 0), p(1, 0), p(2, 0), p(3, 0), p(4, 0), p(5, 0)];
        let labels = vec![Some(reg), None, Some(buf), None, Some(reg), Some(reg)];
        let path = RoutedPath::new(points, labels, &lib);
        (graph, lib, path)
    }

    #[test]
    fn counts_and_accessors() {
        let (_, _, path) = sample();
        assert_eq!(path.buffer_count(), 1);
        assert_eq!(path.register_count(), 1);
        assert_eq!(path.fifo_count(), 0);
        assert_eq!(path.edge_count(), 5);
        assert_eq!(path.source(), p(0, 0));
        assert_eq!(path.sink(), p(5, 0));
        assert_eq!(path.gates().count(), 4);
    }

    #[test]
    fn route_elems_structure() {
        let (graph, _, path) = sample();
        let elems = path.to_route_elems(&graph);
        // g_s, 5 wires, buffer, register, g_t = 9 elements.
        assert_eq!(elems.len(), 9);
        assert!(matches!(elems[0], RouteElem::Gate(_)));
        assert!(matches!(elems[8], RouteElem::Gate(_)));
        let wires = elems
            .iter()
            .filter(|e| matches!(e, RouteElem::Wire(_)))
            .count();
        assert_eq!(wires, 5);
    }

    #[test]
    fn report_matches_counts() {
        let (graph, lib, path) = sample();
        let tech = Technology::paper_070nm();
        let report = path.report(&graph, &tech, &lib);
        assert_eq!(report.buffer_count, 1);
        assert_eq!(report.register_count, 1);
        // 1 internal register ⇒ 2 stages.
        assert_eq!(report.stages.len(), 2);
        assert!((path.wirelength(&graph).um() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn separations() {
        let (_, lib, path) = sample();
        // Sequential at positions 0, 4, 5 ⇒ separations 4, 1.
        assert_eq!(path.register_separations(&lib), vec![4, 1]);
        // All elements at 0, 2, 4, 5 ⇒ separations 2, 2, 1.
        assert_eq!(path.element_separations(), vec![2, 2, 1]);
    }

    #[test]
    fn single_point_route_is_degenerate_but_valid() {
        let lib = GateLibrary::paper_library();
        let path = RoutedPath::new(vec![p(3, 3)], vec![Some(lib.register())], &lib);
        assert_eq!(path.edge_count(), 0);
        assert_eq!(path.source(), p(3, 3));
        assert_eq!(path.sink(), p(3, 3));
        assert_eq!(path.buffer_count(), 0);
        assert_eq!(path.register_count(), 0);
        assert_eq!(path.fifo_count(), 0);
        assert_eq!(path.gates().count(), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_rejected() {
        let lib = GateLibrary::paper_library();
        let _ = RoutedPath::new(vec![p(0, 0), p(1, 0)], vec![Some(lib.register())], &lib);
    }

    #[test]
    #[should_panic(expected = "terminal gates")]
    fn missing_terminal_gate_rejected() {
        let lib = GateLibrary::paper_library();
        let _ = RoutedPath::new(
            vec![p(0, 0), p(1, 0)],
            vec![Some(lib.register()), None],
            &lib,
        );
    }

    #[test]
    fn display_summarises() {
        let (_, _, path) = sample();
        let text = path.to_string();
        assert!(text.contains("5 edges"));
        assert!(text.contains("1 buffers"));
    }

    #[test]
    fn rbp_solution_latency_formula() {
        let (_, _lib, path) = sample();
        let sol = RbpSolution {
            path,
            period: Time::from_ps(100.0),
            stats: SearchStats::new(),
            source_stage: Time::from_ps(80.0),
            sink_stage: Time::from_ps(60.0),
        };
        // 1 register ⇒ latency 2 × 100.
        assert_eq!(sol.latency(), Time::from_ps(200.0));
        assert_eq!(sol.source_slack(), Time::from_ps(20.0));
        assert_eq!(sol.sink_slack(), Time::from_ps(40.0));
    }

    #[test]
    fn gals_solution_latency_formula() {
        let lib = GateLibrary::paper_library();
        let reg = lib.register();
        let fifo = lib.mcfifo();
        let points = vec![p(0, 0), p(1, 0), p(2, 0)];
        let labels = vec![Some(reg), Some(fifo), Some(reg)];
        let path = RoutedPath::new(points, labels, &lib);
        let sol = GalsSolution {
            path,
            t_s: Time::from_ps(200.0),
            t_t: Time::from_ps(300.0),
            regs_source_side: 0,
            regs_sink_side: 0,
            stats: SearchStats::new(),
        };
        assert_eq!(sol.latency(), Time::from_ps(500.0));
        assert_eq!(sol.path().fifo_count(), 1);
    }
}
