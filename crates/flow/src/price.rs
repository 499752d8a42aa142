//! The priced geometry oracle: a budget-charged Dijkstra whose edge
//! weight is physical length times a caller-supplied congestion
//! multiplier.
//!
//! This is the min-cost oracle of the fractional multicommodity phase
//! (Albrecht et al., PAPERS.md): the fractional iteration and the
//! rip-up pass both pick *geometry* with it, then hand the chosen
//! corridor to the exact per-net searches for timing legalization —
//! prices steer where a net goes, the Elmore searches decide what gets
//! inserted along the way.
//!
//! The grid's adjacency is built once per flow run, as `(neighbour,
//! edge slot, length)` arcs in [`GridGraph::neighbors`] order, and
//! shared read-only by every [`PricedOracle`] searching it: the run's
//! own, and one fork per worker of a parallel price round. Each oracle
//! reuses its own distance, predecessor and heap buffers across calls;
//! the multiplier is a function of the dense edge slot
//! ([`GridGraph::edge_slot`]), so a relaxation is an array read, not a
//! map lookup.
//!
//! Every pop and every relaxation charges the shared flow-phase
//! [`BudgetMeter`], so a blown deadline surfaces as
//! [`RouteError::BudgetExceeded`] from inside the loop (crlint CR005)
//! and the caller degrades instead of hanging.

use clockroute_core::{BudgetMeter, RouteError};
use clockroute_geom::Point;
use clockroute_grid::{GridGraph, NodeId};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on priced distance; ties broken by node id for
        // determinism. `total_cmp` keeps the heap invariant even for
        // non-finite keys (the canonical CR001 pattern).
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One directed grid edge leaving a node.
#[derive(Clone, Copy)]
struct OutEdge {
    to: NodeId,
    slot: usize,
    /// Physical length in µm.
    length: f64,
}

/// The grid's arcs, built once per flow run and shared, read-only, by
/// every oracle searching it.
struct Adjacency<'g> {
    graph: &'g GridGraph,
    /// Arcs of node `u` are `arcs[first[u]..first[u + 1]]`.
    first: Vec<usize>,
    arcs: Vec<OutEdge>,
}

impl<'g> Adjacency<'g> {
    /// The arcs of `graph` as `(neighbour, slot, length)`, in
    /// [`GridGraph::neighbors`] order.
    fn new(graph: &'g GridGraph) -> Adjacency<'g> {
        let n = graph.node_count();
        let mut first = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(4 * n);
        for u in graph.nodes() {
            first.push(arcs.len());
            let pu = graph.point(u);
            for v in graph.neighbors(u) {
                // A neighbour is adjacent and on the grid: it always has
                // a slot.
                if let Some(slot) = graph.edge_slot(pu, graph.point(v)) {
                    arcs.push(OutEdge {
                        to: v,
                        slot,
                        length: graph.edge_length(u, v).um(),
                    });
                }
            }
        }
        first.push(arcs.len());
        Adjacency { graph, first, arcs }
    }
}

/// The priced Dijkstra over one grid: a shared [`Adjacency`] plus this
/// oracle's own search buffers and work counts. A flow run holds one,
/// and [`fork`](PricedOracle::fork)s one more per worker of a parallel
/// price round.
pub(crate) struct PricedOracle<'g> {
    adjacency: Arc<Adjacency<'g>>,
    dist: Vec<f64>,
    prev: Vec<Option<NodeId>>,
    heap: BinaryHeap<HeapEntry>,
    /// Calls to [`PricedOracle::path`].
    pub(crate) calls: u64,
    /// Heap pops, each charged to the meter.
    pub(crate) pops: u64,
    /// Relaxations, each charged to the meter.
    pub(crate) expands: u64,
}

impl<'g> PricedOracle<'g> {
    /// Builds the adjacency of `graph` and sizes the buffers.
    pub(crate) fn new(graph: &'g GridGraph) -> PricedOracle<'g> {
        PricedOracle::on(Arc::new(Adjacency::new(graph)))
    }

    fn on(adjacency: Arc<Adjacency<'g>>) -> PricedOracle<'g> {
        let n = adjacency.graph.node_count();
        PricedOracle {
            adjacency,
            dist: vec![f64::INFINITY; n],
            prev: vec![None; n],
            heap: BinaryHeap::new(),
            calls: 0,
            pops: 0,
            expands: 0,
        }
    }

    /// An oracle on the same adjacency with its own buffers and zero
    /// counts. Its paths and per-call counts equal this oracle's on the
    /// same inputs: a call reads only the adjacency and its arguments.
    pub(crate) fn fork(&self) -> PricedOracle<'g> {
        PricedOracle::on(Arc::clone(&self.adjacency))
    }

    /// Cheapest source→sink geometry when the edge in slot `s` costs its
    /// length times `multiplier(s)` (a factor ≥ 1). Returns:
    ///
    /// * `Ok(Some(points))` — the priced shortest path;
    /// * `Ok(None)` — no route exists (terminals off-grid or
    ///   disconnected); the caller falls back to the full per-net
    ///   planner, whose ladder produces the canonical failure result;
    /// * `Err(BudgetExceeded)` — the shared flow budget tripped
    ///   mid-search.
    ///
    /// Deterministic: ties are broken by node id, and the multiplier is
    /// a pure function of the edge, so equal inputs give equal paths.
    pub(crate) fn path(
        &mut self,
        source: Point,
        sink: Point,
        multiplier: impl Fn(usize) -> f64,
        meter: &mut BudgetMeter,
    ) -> Result<Option<Vec<Point>>, RouteError> {
        self.calls += 1;
        let Adjacency { graph, first, arcs } = &*self.adjacency;
        let graph = *graph;
        if !graph.contains(source) || !graph.contains(sink) {
            return Ok(None);
        }
        let s = graph.node(source);
        let t = graph.node(sink);
        self.dist.fill(f64::INFINITY);
        self.prev.fill(None);
        self.heap.clear();
        self.dist[s.index()] = 0.0;
        self.heap.push(HeapEntry { dist: 0.0, node: s });

        while let Some(HeapEntry { dist: d, node: u }) = self.heap.pop() {
            self.pops += 1;
            meter.charge_pop(0)?;
            if d > self.dist[u.index()] {
                continue;
            }
            if u == t {
                break;
            }
            for arc in &arcs[first[u.index()]..first[u.index() + 1]] {
                self.expands += 1;
                meter.charge_expand()?;
                let nd = d + arc.length * multiplier(arc.slot);
                let v = arc.to.index();
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.prev[v] = Some(u);
                    self.heap.push(HeapEntry {
                        dist: nd,
                        node: arc.to,
                    });
                }
            }
        }

        if self.dist[t.index()].is_infinite() {
            return Ok(None);
        }
        let mut points = vec![sink];
        let mut cur = t;
        while let Some(p) = self.prev[cur.index()] {
            points.push(graph.point(p));
            cur = p;
        }
        points.reverse();
        Ok(Some(points))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_core::{SearchBudget, SearchStage};
    use clockroute_geom::units::Length;
    use clockroute_geom::BlockageMap;
    use clockroute_grid::{edge_key, EdgeKey};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    fn meter() -> BudgetMeter {
        BudgetMeter::new(SearchBudget::unlimited(), SearchStage::Flow)
    }

    /// Runs one query on a fresh oracle under the point-pair multiplier
    /// `mult`.
    fn priced_path(
        g: &GridGraph,
        source: Point,
        sink: Point,
        mult: impl Fn(Point, Point) -> f64,
        meter: &mut BudgetMeter,
    ) -> Result<Option<Vec<Point>>, RouteError> {
        let slot_mult = |s: usize| {
            let (a, b) = g.slot_edge(s).expect("arc slots name grid edges");
            mult(a, b)
        };
        PricedOracle::new(g).path(source, sink, slot_mult, meter)
    }

    /// The reference model: the oracle as it was before the edge-slot
    /// layout, with the multiplier a closure over point pairs looked up
    /// in a `BTreeMap`, fresh buffers per call, and counters for the
    /// pops and relaxations it charges.
    fn reference_priced_path(
        graph: &GridGraph,
        source: Point,
        sink: Point,
        multiplier: &dyn Fn(Point, Point) -> f64,
        meter: &mut BudgetMeter,
        counts: &mut (u64, u64),
    ) -> Result<Option<Vec<Point>>, RouteError> {
        if !graph.contains(source) || !graph.contains(sink) {
            return Ok(None);
        }
        let s = graph.node(source);
        let t = graph.node(sink);
        let n = graph.node_count();
        let mut dist = vec![f64::INFINITY; n];
        let mut prev: Vec<Option<NodeId>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[s.index()] = 0.0;
        heap.push(HeapEntry { dist: 0.0, node: s });

        while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
            counts.0 += 1;
            meter.charge_pop(0)?;
            if d > dist[u.index()] {
                continue;
            }
            if u == t {
                break;
            }
            for v in graph.neighbors(u) {
                counts.1 += 1;
                meter.charge_expand()?;
                let pu = graph.point(u);
                let pv = graph.point(v);
                let nd = d + graph.edge_length(u, v).um() * multiplier(pu, pv);
                if nd < dist[v.index()] {
                    dist[v.index()] = nd;
                    prev[v.index()] = Some(u);
                    heap.push(HeapEntry { dist: nd, node: v });
                }
            }
        }

        if dist[t.index()].is_infinite() {
            return Ok(None);
        }
        let mut points = vec![graph.point(t)];
        let mut cur = t;
        while let Some(p) = prev[cur.index()] {
            points.push(graph.point(p));
            cur = p;
        }
        points.reverse();
        Ok(Some(points))
    }

    /// A random grid with node and edge blockages, and a sparse price
    /// map over its edges drawn from a small set so that equal-cost
    /// paths, and so heap ties, are common.
    fn random_instance(rng: &mut StdRng) -> (GridGraph, BTreeMap<EdgeKey, f64>) {
        let w = rng.gen_range(1u32..=9);
        let h = rng.gen_range(1u32..=9);
        let mut blk = BlockageMap::new(w, h);
        let mut prices = BTreeMap::new();
        for y in 0..h {
            for x in 0..w {
                if rng.gen_range(0u32..10) == 0 {
                    blk.block_node(p(x, y));
                }
                for q in [p(x + 1, y), p(x, y + 1)] {
                    if q.x >= w || q.y >= h {
                        continue;
                    }
                    match rng.gen_range(0u32..10) {
                        0 | 1 => blk.block_edge(p(x, y), q),
                        2..=4 => {
                            let m = [1.0, 2.0, 3.0][rng.gen_range(0usize..3)];
                            prices.insert(edge_key(p(x, y), q), m);
                        }
                        _ => {}
                    }
                }
            }
        }
        let pitch_x = Length::from_um([100.0, 200.0][rng.gen_range(0usize..2)]);
        let pitch_y = Length::from_um([100.0, 200.0][rng.gen_range(0usize..2)]);
        (GridGraph::new(blk, pitch_x, pitch_y), prices)
    }

    #[test]
    fn slot_oracle_matches_the_btreemap_reference_model() {
        let mut rng = StdRng::seed_from_u64(0x5107_0AC1E);
        for instance in 0..300 {
            let (g, prices) = random_instance(&mut rng);
            let dense: Vec<f64> = (0..g.edge_slots())
                .map(|s| {
                    g.slot_edge(s)
                        .and_then(|(a, b)| prices.get(&edge_key(a, b)).copied())
                        .unwrap_or(1.0)
                })
                .collect();
            let weight =
                |a: Point, b: Point| -> f64 { prices.get(&edge_key(a, b)).copied().unwrap_or(1.0) };
            // One oracle serves every query of the instance, as in a
            // flow run, budget trips included.
            let mut oracle = PricedOracle::new(&g);
            let pick =
                |rng: &mut StdRng| p(rng.gen_range(0..g.width()), rng.gen_range(0..g.height()));
            for _ in 0..8 {
                let (s, t) = (pick(&mut rng), pick(&mut rng));
                let mut counts = (0, 0);
                let want = reference_priced_path(&g, s, t, &weight, &mut meter(), &mut counts)
                    .expect("unlimited budget");
                let (pops, expands) = (oracle.pops, oracle.expands);
                let got = oracle
                    .path(s, t, |slot| dense[slot], &mut meter())
                    .expect("unlimited budget");
                let ctx = format!("instance {instance} {s}->{t}");
                assert_eq!(got, want, "{ctx}");
                assert_eq!(
                    (oracle.pops - pops, oracle.expands - expands),
                    counts,
                    "{ctx}: pop/expand counts"
                );

                // The same candidate cap trips both at the same pop.
                let k = rng.gen_range(0..=counts.0 + 1);
                let budget = SearchBudget::unlimited().with_max_candidates(k);
                let capped = |r: Result<Option<Vec<Point>>, RouteError>| match r {
                    Ok(path) => Ok(path),
                    Err(RouteError::BudgetExceeded {
                        candidates,
                        stage: SearchStage::Flow,
                        ..
                    }) => Err(candidates),
                    Err(e) => panic!("{ctx}: unexpected {e:?}"),
                };
                let want = capped(reference_priced_path(
                    &g,
                    s,
                    t,
                    &weight,
                    &mut BudgetMeter::new(budget, SearchStage::Flow),
                    &mut (0, 0),
                ));
                let got = capped(oracle.path(
                    s,
                    t,
                    |slot| dense[slot],
                    &mut BudgetMeter::new(budget, SearchStage::Flow),
                ));
                assert_eq!(got, want, "{ctx} under max_candidates {k}");
            }
        }
    }

    #[test]
    fn unit_multiplier_matches_shortest_path() {
        let g = GridGraph::open(10, 10, Length::from_um(100.0));
        let path = priced_path(&g, p(0, 5), p(9, 5), |_, _| 1.0, &mut meter())
            .unwrap()
            .unwrap();
        assert_eq!(path.len(), 10);
        assert_eq!(path[0], p(0, 5));
        assert_eq!(path[9], p(9, 5));
    }

    #[test]
    fn expensive_row_forces_a_detour() {
        // Make every horizontal edge on row 0 ruinously expensive; the
        // path must dip to row 1 and come back.
        let g = GridGraph::open(6, 3, Length::from_um(100.0));
        let mult = |a: Point, b: Point| {
            if a.y == 0 && b.y == 0 {
                1000.0
            } else {
                1.0
            }
        };
        let path = priced_path(&g, p(0, 0), p(5, 0), mult, &mut meter())
            .unwrap()
            .unwrap();
        assert!(path.iter().any(|q| q.y == 1), "path stayed on priced row");
    }

    #[test]
    fn disconnected_and_off_grid_return_none() {
        let g = GridGraph::open(4, 4, Length::from_um(100.0));
        assert_eq!(
            priced_path(&g, p(0, 0), p(9, 9), |_, _| 1.0, &mut meter()).unwrap(),
            None
        );
        let mut g2 = GridGraph::open(4, 1, Length::from_um(100.0));
        g2.blockage_mut().block_edge(p(1, 0), p(2, 0));
        assert_eq!(
            priced_path(&g2, p(0, 0), p(3, 0), |_, _| 1.0, &mut meter()).unwrap(),
            None
        );
    }

    #[test]
    fn zero_deadline_trips_the_budget() {
        let g = GridGraph::open(8, 8, Length::from_um(100.0));
        let budget = SearchBudget::unlimited().with_deadline(Duration::ZERO);
        let mut m = BudgetMeter::new(budget, SearchStage::Flow);
        let err = priced_path(&g, p(0, 0), p(7, 7), |_, _| 1.0, &mut m).unwrap_err();
        assert!(matches!(
            err,
            RouteError::BudgetExceeded {
                stage: SearchStage::Flow,
                ..
            }
        ));
    }

    #[test]
    fn deterministic_across_runs() {
        let g = GridGraph::open(12, 12, Length::from_um(100.0));
        let mult = |a: Point, b: Point| 1.0 + 0.1 * f64::from(a.x.min(b.x));
        let a = priced_path(&g, p(0, 0), p(11, 11), mult, &mut meter()).unwrap();
        let b = priced_path(&g, p(0, 0), p(11, 11), mult, &mut meter()).unwrap();
        assert_eq!(a, b);
    }
}
