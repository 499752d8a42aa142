//! Bottom-up register/repeater insertion on a routing tree.
//!
//! Van Ginneken's classic buffer-insertion DP, extended with register
//! insertion under a clock-period constraint (after Cocchini). States
//! are `(c, d)` pairs — downstream capacitance and worst delay to the
//! nearest downstream synchronizer — kept as Pareto fronts **per
//! register-count bucket** (the tree analogue of RBP's rule that only
//! equal-register candidates may be compared). The objective is the
//! minimum total number of inserted registers, with root delay as the
//! tie-break.

use crate::topology::RoutingTree;
use clockroute_core::RouteError;
use clockroute_elmore::{GateId, GateKind, GateLibrary, Technology};
use clockroute_geom::units::Time;
use clockroute_geom::Point;
use clockroute_grid::GridGraph;
use serde::{Deserialize, Serialize};

#[derive(Clone, Copy)]
struct State {
    cap: f64,
    delay: f64,
    trace: u32,
}

enum Trace {
    Nil,
    Insert {
        node: usize,
        gate: GateId,
        rest: u32,
    },
    Join {
        a: u32,
        b: u32,
    },
}

const NIL: u32 = 0;

struct TraceArena {
    nodes: Vec<Trace>,
}

impl TraceArena {
    fn new() -> TraceArena {
        TraceArena {
            nodes: vec![Trace::Nil],
        }
    }

    fn insert(&mut self, node: usize, gate: GateId, rest: u32) -> u32 {
        let id = u32::try_from(self.nodes.len()).expect("trace arena overflow");
        self.nodes.push(Trace::Insert { node, gate, rest });
        id
    }

    fn join(&mut self, a: u32, b: u32) -> u32 {
        if a == NIL {
            return b;
        }
        if b == NIL {
            return a;
        }
        let id = u32::try_from(self.nodes.len()).expect("trace arena overflow");
        self.nodes.push(Trace::Join { a, b });
        id
    }

    fn collect(&self, root: u32) -> Vec<(usize, GateId)> {
        let mut out = Vec::new();
        let mut stack = vec![root];
        while let Some(id) = stack.pop() {
            match self.nodes[id as usize] {
                Trace::Nil => {}
                Trace::Insert { node, gate, rest } => {
                    out.push((node, gate));
                    stack.push(rest);
                }
                Trace::Join { a, b } => {
                    stack.push(a);
                    stack.push(b);
                }
            }
        }
        out
    }
}

fn pareto_push(bucket: &mut Vec<State>, s: State) {
    if bucket.iter().any(|e| e.cap <= s.cap && e.delay <= s.delay) {
        return;
    }
    bucket.retain(|e| !(s.cap <= e.cap && s.delay <= e.delay));
    bucket.push(s);
}

/// Per-node DP table: Pareto fronts indexed by register count.
type Buckets = Vec<Vec<State>>;

/// Specification for register/repeater insertion on a fixed tree.
///
/// # Example
///
/// ```
/// use clockroute_tree::{RoutingTree, TreeInsertionSpec};
/// use clockroute_grid::GridGraph;
/// use clockroute_elmore::{Technology, GateLibrary};
/// use clockroute_geom::{Point, units::{Length, Time}};
///
/// let graph = GridGraph::open(30, 30, Length::from_um(500.0));
/// let tech = Technology::paper_070nm();
/// let lib = GateLibrary::paper_library();
/// let tree = RoutingTree::rectilinear(
///     &graph,
///     Point::new(0, 0),
///     &[Point::new(29, 5), Point::new(20, 29)],
/// )?;
/// let sol = TreeInsertionSpec::new(&tree, &graph, &tech, &lib)
///     .period(Time::from_ps(400.0))
///     .solve()
///     .expect("feasible");
/// assert!(sol.register_count() > 0);
/// assert!(sol.verify_on(&tree, &graph, &tech, &lib));
/// # Ok::<(), clockroute_tree::BuildTreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TreeInsertionSpec<'a> {
    tree: &'a RoutingTree,
    graph: &'a GridGraph,
    tech: &'a Technology,
    lib: &'a GateLibrary,
    period: Option<Time>,
    source_gate: GateId,
    sink_gate: GateId,
}

impl<'a> TreeInsertionSpec<'a> {
    /// Creates a spec with register terminals (as in RBP).
    pub fn new(
        tree: &'a RoutingTree,
        graph: &'a GridGraph,
        tech: &'a Technology,
        lib: &'a GateLibrary,
    ) -> Self {
        TreeInsertionSpec {
            tree,
            graph,
            tech,
            lib,
            period: None,
            source_gate: lib.register(),
            sink_gate: lib.register(),
        }
    }

    /// Sets the clock period.
    pub fn period(mut self, t: Time) -> Self {
        self.period = Some(t);
        self
    }

    /// Runs the DP.
    ///
    /// # Errors
    ///
    /// [`RouteError::InvalidPeriod`] for a missing/non-positive period;
    /// [`RouteError::NoFeasibleRoute`] when no insertion meets it.
    pub fn solve(&self) -> Result<TreeSolution, RouteError> {
        let t_phi = self.period.ok_or(RouteError::InvalidPeriod)?;
        if t_phi.ps() <= 0.0 || !t_phi.is_finite() {
            return Err(RouteError::InvalidPeriod);
        }
        let t = t_phi.ps();
        let tree = self.tree;
        let lib = self.lib;
        let reg = lib.gate(lib.register());
        let (reg_res, reg_cap, reg_k, reg_setup) = (
            reg.driver_res().ohms(),
            reg.input_cap().ff(),
            reg.intrinsic().ps(),
            reg.setup().ps(),
        );
        let gt = lib.gate(self.sink_gate);
        let gs = lib.gate(self.source_gate);
        let sink_set: std::collections::BTreeSet<usize> = tree.sinks().iter().copied().collect();

        let mut arena = TraceArena::new();
        let mut tables: Vec<Option<Buckets>> = vec![None; tree.len()];

        for i in tree.bottom_up() {
            // 1. Merge children (each child's table is taken at *this*
            //    node: child states + the connecting wire).
            let mut merged: Buckets = vec![Vec::new()];
            let mut first = true;
            for &c in tree.children(i) {
                let child_table = tables[c].take().expect("children processed first");
                // Wire from child to i.
                let len = self.graph.edge_length(
                    self.graph.node(tree.point(c)),
                    self.graph.node(tree.point(i)),
                );
                let (rw, cw) = {
                    let r = (self.tech.unit_res() * len).ohms() * 1.0e-3;
                    let c = (self.tech.unit_cap() * len).ff();
                    (r, c)
                };
                let mut wired: Buckets = vec![Vec::new(); child_table.len()];
                for (r_count, bucket) in child_table.iter().enumerate() {
                    for st in bucket {
                        pareto_push(
                            &mut wired[r_count],
                            State {
                                cap: st.cap + cw,
                                delay: st.delay + rw * (st.cap + cw / 2.0),
                                trace: st.trace,
                            },
                        );
                    }
                }
                if first {
                    merged = wired;
                    first = false;
                } else {
                    let mut combined: Buckets = vec![Vec::new(); merged.len() + wired.len() - 1];
                    for (ra, ba) in merged.iter().enumerate() {
                        for (rb, bb) in wired.iter().enumerate() {
                            for sa in ba {
                                for sb in bb {
                                    let trace = arena.join(sa.trace, sb.trace);
                                    pareto_push(
                                        &mut combined[ra + rb],
                                        State {
                                            cap: sa.cap + sb.cap,
                                            delay: sa.delay.max(sb.delay),
                                            trace,
                                        },
                                    );
                                }
                            }
                        }
                    }
                    merged = combined;
                }
            }

            // 2. Sink tap at this node (leaf sinks start fresh; interior
            //    sinks add their capture load to the merged subtree).
            if sink_set.contains(&i) {
                if merged.len() == 1 && merged[0].is_empty() {
                    merged[0].push(State {
                        cap: gt.input_cap().ff(),
                        delay: gt.setup().ps(),
                        trace: NIL,
                    });
                } else {
                    for bucket in &mut merged {
                        for st in bucket.iter_mut() {
                            st.cap += gt.input_cap().ff();
                            st.delay = st.delay.max(gt.setup().ps());
                        }
                    }
                }
            }

            // 3. Gate insertion options at this node.
            let is_terminal = i == tree.root() || sink_set.contains(&i);
            if !is_terminal && self.graph.is_insertable(self.graph.node(tree.point(i))) {
                let mut extended: Buckets = vec![Vec::new(); merged.len() + 1];
                for (r_count, bucket) in merged.iter().enumerate() {
                    for st in bucket {
                        // (a) keep as-is
                        pareto_push(&mut extended[r_count], *st);
                        // (b) buffers
                        for b in lib.buffers() {
                            let g = lib.gate(b);
                            let delay = st.delay
                                + g.driver_res().ohms() * st.cap * 1.0e-3
                                + g.intrinsic().ps();
                            if delay <= t - reg_k {
                                let trace = arena.insert(i, b, st.trace);
                                pareto_push(
                                    &mut extended[r_count],
                                    State {
                                        cap: g.input_cap().ff(),
                                        delay,
                                        trace,
                                    },
                                );
                            }
                        }
                        // (c) register (clock feasibility, next bucket)
                        if self
                            .graph
                            .is_register_allowed(self.graph.node(tree.point(i)))
                        {
                            let stage = st.delay + reg_res * st.cap * 1.0e-3 + reg_k;
                            if stage <= t {
                                let trace = arena.insert(i, lib.register(), st.trace);
                                pareto_push(
                                    &mut extended[r_count + 1],
                                    State {
                                        cap: reg_cap,
                                        delay: reg_setup,
                                        trace,
                                    },
                                );
                            }
                        }
                    }
                }
                // Drop a trailing empty bucket if no register fit.
                while extended.len() > 1 && extended.last().is_some_and(Vec::is_empty) {
                    extended.pop();
                }
                merged = extended;
            }
            tables[i] = Some(merged);
        }

        // 4. Root: add the source gate delay; pick the smallest feasible
        //    register count, tie-break on delay.
        let root_table = tables[tree.root()].take().expect("root processed");
        for (r_count, bucket) in root_table.iter().enumerate() {
            let mut best: Option<&State> = None;
            for st in bucket {
                let total =
                    st.delay + gs.driver_res().ohms() * st.cap * 1.0e-3 + gs.intrinsic().ps();
                if total <= t && best.is_none_or(|b| st.delay < b.delay) {
                    best = Some(st);
                }
            }
            if let Some(st) = best {
                let insertions: Vec<(Point, GateId)> = arena
                    .collect(st.trace)
                    .into_iter()
                    .map(|(n, g)| (tree.point(n), g))
                    .collect();
                return Ok(TreeSolution::assemble(
                    tree, lib, t_phi, r_count, insertions,
                ));
            }
        }
        Err(RouteError::NoFeasibleRoute)
    }
}

/// A register/repeater assignment on a routing tree.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TreeSolution {
    period: Time,
    insertions: Vec<(Point, GateId)>,
    register_count: usize,
    buffer_count: usize,
    sink_latencies: Vec<(Point, Time)>,
}

impl TreeSolution {
    fn assemble(
        tree: &RoutingTree,
        lib: &GateLibrary,
        period: Time,
        register_count: usize,
        insertions: Vec<(Point, GateId)>,
    ) -> TreeSolution {
        let buffer_count = insertions
            .iter()
            .filter(|(_, g)| lib.gate(*g).kind() == GateKind::Buffer)
            .count();
        let reg_points: std::collections::BTreeSet<Point> = insertions
            .iter()
            .filter(|(_, g)| lib.gate(*g).kind().is_sequential())
            .map(|&(p, _)| p)
            .collect();
        let sink_latencies = tree
            .sinks()
            .iter()
            .map(|&s| {
                let regs_on_path = tree
                    .path_from_root(s)
                    .iter()
                    .filter(|&&n| reg_points.contains(&tree.point(n)))
                    .count();
                (tree.point(s), period * (regs_on_path as f64 + 1.0))
            })
            .collect();
        TreeSolution {
            period,
            insertions,
            register_count,
            buffer_count,
            sink_latencies,
        }
    }

    /// The clock period.
    pub fn period(&self) -> Time {
        self.period
    }

    /// All inserted gates as `(point, gate)` pairs.
    pub fn insertions(&self) -> &[(Point, GateId)] {
        &self.insertions
    }

    /// Total registers inserted (the minimised objective).
    pub fn register_count(&self) -> usize {
        self.register_count
    }

    /// Total buffers inserted.
    pub fn buffer_count(&self) -> usize {
        self.buffer_count
    }

    /// Cycle latency per sink: `T·(registers on its root path + 1)`.
    pub fn sink_latencies(&self) -> &[(Point, Time)] {
        &self.sink_latencies
    }

    /// Worst sink latency.
    pub fn max_latency(&self) -> Time {
        self.sink_latencies
            .iter()
            .map(|&(_, l)| l)
            .fold(Time::ZERO, Time::max)
    }

    /// Independently re-verifies the assignment: recomputes every stage
    /// delay on the tree (including side-branch loading) with the gates
    /// fixed, and checks each against the period.
    ///
    /// This must be called with the same tree the solution was built for.
    pub fn verify_on(
        &self,
        tree: &RoutingTree,
        graph: &GridGraph,
        tech: &Technology,
        lib: &GateLibrary,
    ) -> bool {
        let t = self.period.ps();
        let gate_at: std::collections::BTreeMap<Point, GateId> =
            self.insertions.iter().copied().collect();
        let reg = lib.gate(lib.register());
        let sink_set: std::collections::BTreeSet<usize> = tree.sinks().iter().copied().collect();
        // Bottom-up single pass with fixed labels.
        let mut state: Vec<(f64, f64)> = vec![(0.0, 0.0); tree.len()];
        for i in tree.bottom_up() {
            let mut cap = 0.0f64;
            let mut delay = 0.0f64;
            for &c in tree.children(i) {
                let len = graph.edge_length(graph.node(tree.point(c)), graph.node(tree.point(i)));
                let rw = (tech.unit_res() * len).ohms() * 1.0e-3;
                let cw = (tech.unit_cap() * len).ff();
                let (cc, cd) = state[c];
                cap += cc + cw;
                delay = delay.max(cd + rw * (cc + cw / 2.0));
            }
            if sink_set.contains(&i) {
                let gt = lib.gate(lib.register());
                cap += gt.input_cap().ff();
                delay = delay.max(gt.setup().ps());
            }
            if let Some(&g) = gate_at.get(&tree.point(i)) {
                let gate = lib.gate(g);
                let gd = delay + gate.driver_res().ohms() * cap * 1.0e-3 + gate.intrinsic().ps();
                if gate.kind().is_sequential() {
                    if gd > t + 1e-9 {
                        return false;
                    }
                    cap = gate.input_cap().ff();
                    delay = gate.setup().ps();
                } else {
                    cap = gate.input_cap().ff();
                    delay = gd;
                }
            }
            state[i] = (cap, delay);
        }
        let (cap, delay) = state[tree.root()];
        let total = delay + reg.driver_res().ohms() * cap * 1.0e-3 + reg.intrinsic().ps();
        total <= t + 1e-9
    }

    /// Checks that every insertion sits on a legal (unblocked) node.
    /// For full timing verification use [`verify_on`](Self::verify_on).
    pub fn insertions_legal(&self, graph: &GridGraph) -> bool {
        self.insertions
            .iter()
            .all(|&(p, _)| graph.contains(p) && !graph.blockage().is_node_blocked(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_core::RbpSpec;
    use clockroute_geom::units::Length;

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    fn setup(n: u32, pitch: f64) -> (GridGraph, Technology, GateLibrary) {
        (
            GridGraph::open(n, n, Length::from_um(pitch)),
            Technology::paper_070nm(),
            GateLibrary::paper_library(),
        )
    }

    #[test]
    fn degenerate_tree_matches_rbp() {
        // A single-sink tree on an open grid embeds as an L-path; compare
        // register counts with RBP on a 1-D grid of the same total length.
        let (g, tech, lib) = setup(30, 800.0);
        for period in [200.0, 350.0, 700.0] {
            let t = Time::from_ps(period);
            let tree = RoutingTree::rectilinear(&g, p(0, 0), &[p(24, 0)]).unwrap();
            let sol = TreeInsertionSpec::new(&tree, &g, &tech, &lib)
                .period(t)
                .solve()
                .unwrap();
            let rbp = RbpSpec::new(&g, &tech, &lib)
                .source(p(0, 0))
                .sink(p(24, 0))
                .period(t)
                .solve()
                .unwrap();
            assert_eq!(
                sol.register_count(),
                rbp.register_count(),
                "period {period}"
            );
            assert!(sol.verify_on(&tree, &g, &tech, &lib));
            assert_eq!(sol.sink_latencies().len(), 1);
            assert_eq!(sol.sink_latencies()[0].1, rbp.latency());
        }
    }

    #[test]
    fn multi_sink_tree_verifies() {
        let (g, tech, lib) = setup(40, 500.0);
        let tree = RoutingTree::rectilinear(&g, p(0, 0), &[p(35, 5), p(30, 30), p(5, 35)]).unwrap();
        let sol = TreeInsertionSpec::new(&tree, &g, &tech, &lib)
            .period(Time::from_ps(300.0))
            .solve()
            .unwrap();
        assert!(sol.register_count() >= 3, "regs {}", sol.register_count());
        assert!(sol.verify_on(&tree, &g, &tech, &lib));
        assert!(sol.insertions_legal(&g));
        // Each sink gets a latency; the max matches the deepest path.
        assert_eq!(sol.sink_latencies().len(), 3);
        assert!(sol.max_latency() >= sol.sink_latencies()[0].1);
    }

    #[test]
    fn shared_trunk_shares_registers() {
        // Two sinks behind a long shared trunk: trunk registers serve
        // both paths, so total registers < 2 × single-path registers.
        let (g, tech, lib) = setup(40, 800.0);
        let t = Time::from_ps(250.0);
        let tree = RoutingTree::rectilinear(&g, p(0, 0), &[p(35, 2), p(35, 6)]).unwrap();
        let sol = TreeInsertionSpec::new(&tree, &g, &tech, &lib)
            .period(t)
            .solve()
            .unwrap();
        let single = RbpSpec::new(&g, &tech, &lib)
            .source(p(0, 0))
            .sink(p(35, 2))
            .period(t)
            .solve()
            .unwrap();
        assert!(
            sol.register_count() < 2 * single.register_count(),
            "tree {} vs 2×path {}",
            sol.register_count(),
            2 * single.register_count()
        );
        assert!(sol.verify_on(&tree, &g, &tech, &lib));
    }

    #[test]
    fn loose_period_needs_no_registers() {
        let (g, tech, lib) = setup(12, 300.0);
        let tree = RoutingTree::rectilinear(&g, p(0, 0), &[p(10, 3), p(4, 10)]).unwrap();
        let sol = TreeInsertionSpec::new(&tree, &g, &tech, &lib)
            .period(Time::from_ps(2000.0))
            .solve()
            .unwrap();
        assert_eq!(sol.register_count(), 0);
        for &(_, lat) in sol.sink_latencies() {
            assert_eq!(lat, Time::from_ps(2000.0));
        }
    }

    #[test]
    fn infeasible_period_reported() {
        let (g, tech, lib) = setup(10, 1000.0);
        let tree = RoutingTree::rectilinear(&g, p(0, 0), &[p(9, 9)]).unwrap();
        assert_eq!(
            TreeInsertionSpec::new(&tree, &g, &tech, &lib)
                .period(Time::from_ps(40.0))
                .solve()
                .unwrap_err(),
            RouteError::NoFeasibleRoute
        );
        assert_eq!(
            TreeInsertionSpec::new(&tree, &g, &tech, &lib)
                .solve()
                .unwrap_err(),
            RouteError::InvalidPeriod
        );
    }

    #[test]
    fn buffers_used_when_they_save_registers() {
        let (g, tech, lib) = setup(40, 800.0);
        // A period large enough that buffered stages span farther than
        // unbuffered ones: the optimum should use buffers.
        let tree = RoutingTree::rectilinear(&g, p(0, 0), &[p(35, 35)]).unwrap();
        let sol = TreeInsertionSpec::new(&tree, &g, &tech, &lib)
            .period(Time::from_ps(500.0))
            .solve()
            .unwrap();
        assert!(sol.buffer_count() > 0);
        assert!(sol.verify_on(&tree, &g, &tech, &lib));
    }
}
