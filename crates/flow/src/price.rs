//! The flow-mode geometry oracle: a budget-charged Dijkstra whose edge
//! weight is physical length times a caller-supplied multiplier.
//!
//! Flow mode picks every net's *geometry* with it — the initial pass
//! with a unit multiplier, rip-up with saturation weights — then hands
//! the chosen corridor to the exact per-net searches for timing
//! legalization: the weights steer where a net goes, the Elmore
//! searches decide what gets inserted along the way.
//!
//! The grid's [`Adjacency`] is built once per flow run, as `(neighbour,
//! edge slot, length)` arcs in [`GridGraph::neighbors`] order, and
//! shared by every oracle of the run: one per thread of the run that
//! routes. Each oracle reuses its distance, predecessor and queue
//! buffers across calls; the multiplier is a function of the dense edge
//! slot ([`GridGraph::edge_slot`]), so a relaxation is an array read,
//! not a map lookup. The queue is core's [`DialQueue`], the calendar
//! queue the exact searches pop from, with the node index as its tie
//! key: it pops in exactly the `(distance, node)` order of the binary
//! heap it replaced, so pops, stale pops and counters are unchanged.
//! Its buckets are one shortest arc wide, so an unpriced search sorts
//! only a few equal or near-equal distances per bucket, and a
//! saturation-priced distance waits in the far list until the ring
//! drains to it.
//!
//! Every pop and every relaxation charges the flow-phase
//! [`BudgetMeter`], so a blown deadline surfaces as
//! [`RouteError::BudgetExceeded`] from inside the loop (crlint CR005)
//! and the caller degrades instead of hanging.

use clockroute_core::{BudgetMeter, DialQueue, RouteError};
use clockroute_geom::Point;
use clockroute_grid::GridGraph;

/// No predecessor, in [`PricedOracle`]'s `prev` array.
const NO_PREV: u32 = u32::MAX;

/// One directed grid edge leaving a node.
#[derive(Clone, Copy)]
struct OutEdge {
    /// Index of the neighbour.
    to: u32,
    slot: usize,
    /// Physical length in µm.
    length: f64,
}

/// The grid's arcs, built once per flow run and shared by every oracle
/// of the run.
pub(crate) struct Adjacency<'g> {
    graph: &'g GridGraph,
    /// Arcs of node `u` are `arcs[first[u]..first[u + 1]]`.
    first: Vec<usize>,
    arcs: Vec<OutEdge>,
    /// The grid point of each node index.
    points: Vec<Point>,
    /// The shortest arc's length: the oracle queue's bucket width.
    shortest: f64,
}

impl<'g> Adjacency<'g> {
    /// The arcs of `graph` as `(neighbour, slot, length)`, in
    /// [`GridGraph::neighbors`] order, read straight off the blockage
    /// bitmaps.
    pub(crate) fn new(graph: &'g GridGraph) -> Adjacency<'g> {
        let (w, h) = (graph.width(), graph.height());
        let (east, north) = graph.blockage().edge_bitmaps();
        let (pitch_x, pitch_y) = (graph.pitch_x().um(), graph.pitch_y().um());
        let n = graph.node_count();
        let mut first = Vec::with_capacity(n + 1);
        let mut arcs = Vec::with_capacity(4 * n);
        let mut points = Vec::with_capacity(n);
        let row = w as usize;
        // Arcs to node `to` over edge `slot`; the grid's node count fits
        // a `u32` (`NodeId`), so `to` does.
        let arc = |to: usize, slot: usize, length: f64| OutEdge {
            to: to as u32,
            slot,
            length,
        };
        for y in 0..h {
            for x in 0..w {
                let u = points.len();
                first.push(arcs.len());
                points.push(Point::new(x, y));
                // West, east, south, north: the order of `neighbors`.
                if x > 0 && !east[u - 1] {
                    arcs.push(arc(u - 1, 2 * (u - 1), pitch_x));
                }
                if x + 1 < w && !east[u] {
                    arcs.push(arc(u + 1, 2 * u, pitch_x));
                }
                if y > 0 && !north[u - row] {
                    arcs.push(arc(u - row, 2 * (u - row) + 1, pitch_y));
                }
                if y + 1 < h && !north[u] {
                    arcs.push(arc(u + row, 2 * u + 1, pitch_y));
                }
            }
        }
        first.push(arcs.len());
        let shortest = arcs.iter().map(|a| a.length).fold(f64::INFINITY, f64::min);
        Adjacency {
            graph,
            first,
            arcs,
            points,
            shortest,
        }
    }
}

/// An oracle's exact work counts, the `flow.oracle.*` counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct OracleWork {
    /// Calls to [`PricedOracle::path`].
    pub(crate) calls: u64,
    /// Heap pops, each charged to the meter.
    pub(crate) pops: u64,
    /// Relaxations, each charged to the meter.
    pub(crate) expands: u64,
}

impl OracleWork {
    /// The work done since the counts stood at `before`.
    pub(crate) fn since(self, before: OracleWork) -> OracleWork {
        OracleWork {
            calls: self.calls - before.calls,
            pops: self.pops - before.pops,
            expands: self.expands - before.expands,
        }
    }
}

impl std::ops::AddAssign for OracleWork {
    fn add_assign(&mut self, other: OracleWork) {
        self.calls += other.calls;
        self.pops += other.pops;
        self.expands += other.expands;
    }
}

/// The priced Dijkstra over one grid's [`Adjacency`]: search buffers and
/// work counts. Each thread of a flow run that routes holds one.
pub(crate) struct PricedOracle<'a> {
    adjacency: &'a Adjacency<'a>,
    dist: Vec<f64>,
    /// Predecessor node index, [`NO_PREV`] for none.
    prev: Vec<u32>,
    /// Node indices by priced distance, ties to the smaller index.
    queue: DialQueue,
    pub(crate) work: OracleWork,
}

impl<'a> PricedOracle<'a> {
    /// Sizes the buffers for `adjacency`'s grid.
    pub(crate) fn new(adjacency: &'a Adjacency<'a>) -> PricedOracle<'a> {
        let n = adjacency.points.len();
        PricedOracle {
            adjacency,
            dist: vec![f64::INFINITY; n],
            prev: vec![NO_PREV; n],
            queue: DialQueue::new(adjacency.shortest),
            work: OracleWork::default(),
        }
    }

    /// Cheapest source→sink geometry when the edge in slot `s` costs its
    /// length times `multiplier(s)` (a finite factor ≥ 1). Returns:
    ///
    /// * `Ok(Some(points))` — the priced shortest path;
    /// * `Ok(None)` — no route exists (terminals off-grid or
    ///   disconnected); the caller falls back to the full per-net
    ///   planner, whose ladder produces the canonical failure result;
    /// * `Err(BudgetExceeded)` — the flow budget tripped
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
        self.work.calls += 1;
        let Adjacency {
            graph,
            first,
            arcs,
            points,
            shortest,
        } = self.adjacency;
        if !graph.contains(source) || !graph.contains(sink) {
            return Ok(None);
        }
        let (Ok(s), Ok(t)) = (
            u32::try_from(graph.node(source).index()),
            u32::try_from(graph.node(sink).index()),
        ) else {
            return Ok(None);
        };
        self.dist.fill(f64::INFINITY);
        self.prev.fill(NO_PREV);
        self.queue.reset(*shortest);
        self.dist[s as usize] = 0.0;
        self.queue.push(0.0, u64::from(s), s);

        while let Some((d, u)) = self.queue.pop_keyed() {
            self.work.pops += 1;
            meter.charge_pop(0)?;
            if d > self.dist[u as usize] {
                continue;
            }
            if u == t {
                break;
            }
            for arc in &arcs[first[u as usize]..first[u as usize + 1]] {
                self.work.expands += 1;
                meter.charge_expand()?;
                let nd = d + arc.length * multiplier(arc.slot);
                let v = arc.to as usize;
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.prev[v] = u;
                    self.queue.push(nd, u64::from(arc.to), arc.to);
                }
            }
        }

        if self.dist[t as usize].is_infinite() {
            return Ok(None);
        }
        let mut path = vec![sink];
        let mut cur = t;
        while self.prev[cur as usize] != NO_PREV {
            cur = self.prev[cur as usize];
            path.push(points[cur as usize]);
        }
        path.reverse();
        Ok(Some(path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_core::{SearchBudget, SearchStage};
    use clockroute_geom::units::Length;
    use clockroute_geom::BlockageMap;
    use clockroute_grid::{edge_key, EdgeKey, NodeId};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Ordering;
    use std::collections::{BTreeMap, BinaryHeap};
    use std::time::Duration;

    /// The reference model's heap entry: an `Ord`-trait min-heap on
    /// distance, ties by node id.
    #[derive(PartialEq)]
    struct HeapEntry {
        dist: f64,
        node: NodeId,
    }

    impl Eq for HeapEntry {}

    impl Ord for HeapEntry {
        fn cmp(&self, other: &Self) -> Ordering {
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
        PricedOracle::new(&Adjacency::new(g)).path(source, sink, slot_mult, meter)
    }

    /// The reference model: the oracle as it was before the edge-slot
    /// layout and the dial queue, with `Ord`-trait heap entries,
    /// the multiplier a closure over point pairs looked up in a
    /// `BTreeMap`, fresh buffers per call, and counters for the pops and
    /// relaxations it charges.
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
            let adjacency = Adjacency::new(&g);
            let mut oracle = PricedOracle::new(&adjacency);
            let pick =
                |rng: &mut StdRng| p(rng.gen_range(0..g.width()), rng.gen_range(0..g.height()));
            for _ in 0..8 {
                let (s, t) = (pick(&mut rng), pick(&mut rng));
                let mut counts = (0, 0);
                let want = reference_priced_path(&g, s, t, &weight, &mut meter(), &mut counts)
                    .expect("unlimited budget");
                let before = oracle.work;
                let got = oracle
                    .path(s, t, |slot| dense[slot], &mut meter())
                    .expect("unlimited budget");
                let ctx = format!("instance {instance} {s}->{t}");
                assert_eq!(got, want, "{ctx}");
                let work = oracle.work.since(before);
                assert_eq!(
                    (work.pops, work.expands),
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
