//! The routing grid graph.

use clockroute_geom::units::Length;
use clockroute_geom::{BlockageMap, Floorplan, Point};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Dense identifier of a grid node: `index = y · width + x`.
///
/// `NodeId`s are only meaningful relative to the [`GridGraph`] that issued
/// them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NodeId(pub(crate) u32);

// Both orders by hand: a derived `PartialOrd` calls `partial_cmp`,
// which clippy.toml bans (CR001), and clippy wants `Ord` and
// `PartialOrd` derived together or written together.
impl Ord for NodeId {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for NodeId {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl NodeId {
    /// The dense index, suitable for indexing per-node side arrays.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// The routing grid graph `G(V, E)`.
///
/// Wraps a [`BlockageMap`] together with the physical pitch of the grid,
/// and exposes the adjacency and labelling queries the search algorithms
/// need. Degree is at most 4, so `|E| ≤ 4n` (the bound the paper's
/// complexity analysis relies on).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridGraph {
    blockage: BlockageMap,
    pitch_x: Length,
    pitch_y: Length,
}

impl GridGraph {
    /// Creates a grid graph from an explicit blockage map and pitch.
    ///
    /// # Panics
    ///
    /// Panics if either pitch is not strictly positive.
    pub fn new(blockage: BlockageMap, pitch_x: Length, pitch_y: Length) -> GridGraph {
        assert!(
            pitch_x.um() > 0.0 && pitch_y.um() > 0.0,
            "grid pitch must be positive"
        );
        GridGraph {
            blockage,
            pitch_x,
            pitch_y,
        }
    }

    /// Creates an unblocked `width × height` grid with uniform pitch.
    pub fn open(width: u32, height: u32, pitch: Length) -> GridGraph {
        GridGraph::new(BlockageMap::new(width, height), pitch, pitch)
    }

    /// Rasterises a floorplan onto a `grid_w × grid_h` grid, deriving the
    /// pitch from the die dimensions (paper §V: a 25 mm die at 50/100/200
    /// grid nodes per side gives 0.5/0.25/0.125 mm separations).
    pub fn from_floorplan(fp: &Floorplan, grid_w: u32, grid_h: u32) -> GridGraph {
        let (px, py) = fp.pitch(grid_w, grid_h);
        GridGraph::new(fp.rasterize(grid_w, grid_h), px, py)
    }

    /// Grid width in nodes.
    #[inline]
    pub fn width(&self) -> u32 {
        self.blockage.width()
    }

    /// Grid height in nodes.
    #[inline]
    pub fn height(&self) -> u32 {
        self.blockage.height()
    }

    /// Number of nodes `n = width × height`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.blockage.node_count()
    }

    /// Horizontal pitch (physical length of east–west edges).
    #[inline]
    pub fn pitch_x(&self) -> Length {
        self.pitch_x
    }

    /// Vertical pitch (physical length of north–south edges).
    #[inline]
    pub fn pitch_y(&self) -> Length {
        self.pitch_y
    }

    /// The underlying blockage map.
    #[inline]
    pub fn blockage(&self) -> &BlockageMap {
        &self.blockage
    }

    /// Mutable access to the blockage map (for incremental scenario
    /// construction).
    #[inline]
    pub fn blockage_mut(&mut self) -> &mut BlockageMap {
        &mut self.blockage
    }

    /// `true` if `p` lies on the grid.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        p.x < self.width() && p.y < self.height()
    }

    /// The node at grid point `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside the grid.
    #[inline]
    pub fn node(&self, p: Point) -> NodeId {
        assert!(
            self.contains(p),
            "{p} outside {}×{} grid",
            self.width(),
            self.height()
        );
        NodeId(p.y * self.width() + p.x)
    }

    /// The grid point of node `id`.
    #[inline]
    pub fn point(&self, id: NodeId) -> Point {
        let w = self.width();
        Point::new(id.0 % w, id.0 / w)
    }

    /// `p(v) = 1` in the paper: a gate may be inserted at this node.
    #[inline]
    pub fn is_insertable(&self, id: NodeId) -> bool {
        !self.blockage.is_node_blocked(self.point(id))
    }

    /// `true` if a register/synchronizer may be inserted at this node
    /// (insertable and not covered by a register keep-out).
    #[inline]
    pub fn is_register_allowed(&self, id: NodeId) -> bool {
        !self.blockage.is_register_blocked(self.point(id))
    }

    /// Physical length of the edge between adjacent nodes `a` and `b`.
    #[inline]
    pub fn edge_length(&self, a: NodeId, b: NodeId) -> Length {
        let pa = self.point(a);
        let pb = self.point(b);
        debug_assert!(pa.is_adjacent(pb), "{pa} and {pb} not adjacent");
        if pa.y == pb.y {
            self.pitch_x
        } else {
            self.pitch_y
        }
    }

    /// Iterates over the unblocked neighbours of `id` (degree ≤ 4),
    /// in deterministic west/east/south/north order.
    pub fn neighbors(&self, id: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let p = self.point(id);
        p.neighbors(self.width(), self.height())
            .filter_map(move |q| {
                if self.blockage.is_edge_blocked(p, q) {
                    None
                } else {
                    Some(self.node(q))
                }
            })
    }

    /// Number of usable (unblocked) edges in the graph.
    pub fn edge_count(&self) -> usize {
        let mut count = 0;
        for y in 0..self.height() {
            for x in 0..self.width() {
                let p = Point::new(x, y);
                if x + 1 < self.width() && !self.blockage.is_edge_blocked(p, Point::new(x + 1, y)) {
                    count += 1;
                }
                if y + 1 < self.height() && !self.blockage.is_edge_blocked(p, Point::new(x, y + 1))
                {
                    count += 1;
                }
            }
        }
        count
    }

    /// Iterates over every node of the grid, row-major.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Length of a dense per-edge side array indexed by
    /// [`GridGraph::edge_slot`]: two slots per node. Slots of the east
    /// edges of the last column and the north edges of the last row
    /// name no edge and stay unused.
    #[inline]
    pub fn edge_slots(&self) -> usize {
        2 * self.node_count()
    }

    /// Dense index of the undirected edge `{a, b}`: `2 · node + 0` for
    /// the edge east of `node`, `2 · node + 1` for the edge north of
    /// it, where `node` is the lower endpoint (the layout of
    /// [`BlockageMap`]'s per-edge arrays). `None` when `a` and `b` are
    /// not grid-adjacent points of this grid. Blocked edges keep their
    /// slot.
    #[inline]
    pub fn edge_slot(&self, a: Point, b: Point) -> Option<usize> {
        let (lo, hi) = if (a.y, a.x) <= (b.y, b.x) {
            (a, b)
        } else {
            (b, a)
        };
        if !self.contains(hi) {
            return None;
        }
        let dir = if hi.y == lo.y && hi.x == lo.x + 1 {
            0
        } else if hi.x == lo.x && hi.y == lo.y + 1 {
            1
        } else {
            return None;
        };
        Some(2 * self.node(lo).index() + dir)
    }

    /// This grid with every edge blocked except the edges in `slots`,
    /// which keep the state they have here ([`BlockageMap::corridor`]):
    /// the grid a route confined to those edges is searched on. Slots
    /// that name no edge open nothing.
    pub fn corridor(&self, slots: impl IntoIterator<Item = usize>) -> GridGraph {
        GridGraph {
            blockage: self
                .blockage
                .corridor(slots.into_iter().filter_map(|s| self.slot_edge(s))),
            pitch_x: self.pitch_x,
            pitch_y: self.pitch_y,
        }
    }

    /// The endpoints `(lower, upper)` of the edge in `slot`, the inverse
    /// of [`GridGraph::edge_slot`]; `None` for a slot past the grid's
    /// east or north border.
    pub fn slot_edge(&self, slot: usize) -> Option<(Point, Point)> {
        let node = u32::try_from(slot / 2).ok()?;
        if node as usize >= self.node_count() {
            return None;
        }
        let p = self.point(NodeId(node));
        let q = if slot.is_multiple_of(2) {
            Point::new(p.x + 1, p.y)
        } else {
            Point::new(p.x, p.y + 1)
        };
        self.contains(q).then_some((p, q))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::Rect;

    fn pitch() -> Length {
        Length::from_um(125.0)
    }

    #[test]
    fn node_point_roundtrip() {
        let g = GridGraph::open(7, 5, pitch());
        for y in 0..5 {
            for x in 0..7 {
                let p = Point::new(x, y);
                assert_eq!(g.point(g.node(p)), p);
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn node_out_of_bounds_panics() {
        let g = GridGraph::open(4, 4, pitch());
        let _ = g.node(Point::new(4, 0));
    }

    #[test]
    fn open_grid_degrees() {
        let g = GridGraph::open(3, 3, pitch());
        assert_eq!(g.neighbors(g.node(Point::new(1, 1))).count(), 4);
        assert_eq!(g.neighbors(g.node(Point::new(0, 0))).count(), 2);
        assert_eq!(g.neighbors(g.node(Point::new(1, 0))).count(), 3);
    }

    #[test]
    fn edge_count_open_grid() {
        // w×h grid: h·(w−1) horizontal + w·(h−1) vertical edges.
        let g = GridGraph::open(5, 4, pitch());
        assert_eq!(g.edge_count(), 4 * 4 + 5 * 3);
        // |E| ≤ 4n as the complexity analysis requires.
        assert!(g.edge_count() <= 4 * g.node_count());
    }

    #[test]
    fn blocked_edges_hidden_from_adjacency() {
        let mut blk = BlockageMap::new(4, 4);
        blk.block_edge(Point::new(1, 1), Point::new(2, 1));
        let g = GridGraph::new(blk, pitch(), pitch());
        let n: Vec<_> = g
            .neighbors(g.node(Point::new(1, 1)))
            .map(|id| g.point(id))
            .collect();
        assert!(!n.contains(&Point::new(2, 1)));
        assert_eq!(n.len(), 3);
        assert_eq!(g.edge_count(), 24 - 1);
    }

    #[test]
    fn blocked_nodes_remain_routable() {
        // p(v) = 0 blocks insertion, not routing (paper §II).
        let mut blk = BlockageMap::new(4, 4);
        blk.block_node(Point::new(2, 2));
        let g = GridGraph::new(blk, pitch(), pitch());
        let id = g.node(Point::new(2, 2));
        assert!(!g.is_insertable(id));
        assert!(!g.is_register_allowed(id));
        assert_eq!(g.neighbors(id).count(), 4);
    }

    #[test]
    fn register_keepout_allows_buffers() {
        let mut blk = BlockageMap::new(4, 4);
        blk.block_register(Point::new(1, 2));
        let g = GridGraph::new(blk, pitch(), pitch());
        let id = g.node(Point::new(1, 2));
        assert!(g.is_insertable(id));
        assert!(!g.is_register_allowed(id));
    }

    #[test]
    fn rectangular_pitch_edge_lengths() {
        let g = GridGraph::new(
            BlockageMap::new(4, 4),
            Length::from_um(100.0),
            Length::from_um(200.0),
        );
        let a = g.node(Point::new(1, 1));
        let east = g.node(Point::new(2, 1));
        let north = g.node(Point::new(1, 2));
        assert_eq!(g.edge_length(a, east), Length::from_um(100.0));
        assert_eq!(g.edge_length(a, north), Length::from_um(200.0));
        // Symmetric.
        assert_eq!(g.edge_length(east, a), Length::from_um(100.0));
    }

    #[test]
    fn from_floorplan_pitch_and_blockages() {
        let mut fp = Floorplan::new(Length::from_mm(25.0), Length::from_mm(25.0));
        fp.add_block(
            Rect::new(Point::new(10, 10), Point::new(12, 12)),
            clockroute_geom::BlockKind::Obstacle,
        );
        let g = GridGraph::from_floorplan(&fp, 200, 200);
        assert!((g.pitch_x().um() - 125.0).abs() < 1e-9);
        assert!(!g.is_insertable(g.node(Point::new(11, 11))));
        assert!(g.is_insertable(g.node(Point::new(20, 20))));
    }

    #[test]
    fn nodes_iterator_covers_grid() {
        let g = GridGraph::open(6, 3, pitch());
        assert_eq!(g.nodes().count(), 18);
        let last = g.nodes().last().unwrap();
        assert_eq!(g.point(last), Point::new(5, 2));
    }

    #[test]
    #[should_panic(expected = "pitch must be positive")]
    fn zero_pitch_rejected() {
        let _ = GridGraph::new(BlockageMap::new(2, 2), Length::ZERO, pitch());
    }

    /// The corridor equals the grid with every edge outside `slots`
    /// blocked one `block_edge` call at a time, blockages included.
    #[test]
    fn corridor_equals_blocking_every_other_edge() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xC0_221D);
        for _ in 0..200 {
            let (w, h) = (rng.gen_range(1u32..=8), rng.gen_range(1u32..=8));
            let mut blk = BlockageMap::new(w, h);
            for y in 0..h {
                for x in 0..w {
                    let p = Point::new(x, y);
                    if rng.gen_range(0u32..6) == 0 {
                        blk.block_node(p);
                    }
                    for q in [Point::new(x + 1, y), Point::new(x, y + 1)] {
                        if q.x < w && q.y < h && rng.gen_range(0u32..5) == 0 {
                            blk.block_edge(p, q);
                        }
                    }
                }
            }
            let g = GridGraph::new(blk, pitch(), Length::from_um(250.0));
            let open: Vec<usize> = (0..g.edge_slots())
                .filter(|_| rng.gen_range(0u32..4) == 0)
                .collect();
            let mut want = g.clone();
            for s in 0..g.edge_slots() {
                if let (false, Some((p, q))) = (open.contains(&s), g.slot_edge(s)) {
                    want.blockage_mut().block_edge(p, q);
                }
            }
            assert_eq!(g.corridor(open.iter().copied()), want);
        }
    }

    #[test]
    fn edge_slots_are_dense_and_invert() {
        let g = GridGraph::open(4, 3, pitch());
        let mut seen = vec![false; g.edge_slots()];
        for y in 0..3 {
            for x in 0..4 {
                let p = Point::new(x, y);
                for q in [Point::new(x + 1, y), Point::new(x, y + 1)] {
                    let Some(s) = g.edge_slot(p, q) else {
                        assert!(!g.contains(q), "{p}-{q} has no slot");
                        continue;
                    };
                    assert_eq!(g.edge_slot(q, p), Some(s), "slot is undirected");
                    assert!(!seen[s], "slot {s} reused");
                    seen[s] = true;
                    assert_eq!(g.slot_edge(s), Some((p, q)));
                }
            }
        }
        // 3·3 east + 4·2 north edges; the border slots name no edge.
        assert_eq!(seen.iter().filter(|&&b| b).count(), 17);
        assert_eq!(g.slot_edge(2 * 3), None, "east of (3, 0) is off-grid");
        assert_eq!(g.slot_edge(g.edge_slots()), None);
        assert_eq!(g.edge_slot(Point::new(0, 0), Point::new(1, 1)), None);
        assert_eq!(g.edge_slot(Point::new(0, 0), Point::new(0, 0)), None);
    }
}
