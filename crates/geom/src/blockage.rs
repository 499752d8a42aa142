//! Blockage maps: which grid nodes and edges are unusable.
//!
//! Hassoun & Alpert (§II) model the routing area as a grid graph where
//!
//! * edges overlapping **wiring blockages** (e.g. datapath regions that can
//!   be routed over in other layers but not used here) are *deleted*, and
//! * nodes overlapping **physical obstacles** (IP, memories, macro blocks)
//!   are labelled *blocked* via `p(v) = 0`: a route may pass through such a
//!   node but no buffer or synchronization element may be inserted there.
//!
//! The paper additionally notes (§III) that the algorithm “can be easily
//! modified to allow *register blockages* that prevent inserting registers
//! at undesirable grid points” — e.g. clock-distribution congestion. We
//! support that with a third, independent layer.

use crate::{Point, Rect};
use serde::{Deserialize, Serialize};

/// Orientation of a grid edge leaving its lower-left endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EdgeDir {
    /// Edge from `(x, y)` to `(x+1, y)`.
    East,
    /// Edge from `(x, y)` to `(x, y+1)`.
    North,
}

/// Per-node and per-edge blockage state for a `width × height` routing grid.
///
/// Three independent layers:
///
/// * **node blockage** — `p(v) = 0` in the paper: no gate (buffer, register,
///   relay station, MCFIFO) may be inserted at the node, though wires may
///   still pass through it;
/// * **edge blockage** — the grid edge is removed entirely (wiring
///   blockage);
/// * **register blockage** — registers/synchronizers specifically may not
///   be inserted, buffers still may (paper §III extension).
///
/// ```
/// use clockroute_geom::{BlockageMap, Point, Rect};
/// let mut map = BlockageMap::new(10, 10);
/// map.block_nodes(&Rect::new(Point::new(2, 2), Point::new(4, 4)));
/// assert!(map.is_node_blocked(Point::new(3, 3)));
/// assert!(!map.is_node_blocked(Point::new(5, 5)));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockageMap {
    width: u32,
    height: u32,
    node_blocked: Vec<bool>,
    register_blocked: Vec<bool>,
    /// Blocked east-going edges, indexed by their west endpoint.
    east_blocked: Vec<bool>,
    /// Blocked north-going edges, indexed by their south endpoint.
    north_blocked: Vec<bool>,
}

impl BlockageMap {
    /// Creates an all-clear blockage map for a `width × height` grid.
    ///
    /// # Panics
    ///
    /// Panics if `width` or `height` is zero.
    pub fn new(width: u32, height: u32) -> BlockageMap {
        assert!(width > 0 && height > 0, "grid dimensions must be non-zero");
        let n = (width as usize) * (height as usize);
        BlockageMap {
            width,
            height,
            node_blocked: vec![false; n],
            register_blocked: vec![false; n],
            east_blocked: vec![false; n],
            north_blocked: vec![false; n],
        }
    }

    /// Grid width in nodes.
    #[inline]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Grid height in nodes.
    #[inline]
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Total number of grid nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.node_blocked.len()
    }

    #[inline]
    fn idx(&self, p: Point) -> usize {
        debug_assert!(p.x < self.width && p.y < self.height, "{p} out of grid");
        (p.y as usize) * (self.width as usize) + (p.x as usize)
    }

    /// `true` if no gate may be inserted at `p` (`p(v) = 0`).
    #[inline]
    pub fn is_node_blocked(&self, p: Point) -> bool {
        self.node_blocked[self.idx(p)]
    }

    /// `true` if a register/synchronizer may not be inserted at `p`.
    ///
    /// This is implied by a full node blockage and may additionally be set
    /// on otherwise-free nodes.
    #[inline]
    pub fn is_register_blocked(&self, p: Point) -> bool {
        let i = self.idx(p);
        self.node_blocked[i] || self.register_blocked[i]
    }

    /// `true` if the grid edge between adjacent points `a` and `b` has been
    /// removed by a wiring blockage.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `a` and `b` are not grid-adjacent.
    pub fn is_edge_blocked(&self, a: Point, b: Point) -> bool {
        debug_assert!(a.is_adjacent(b), "{a} and {b} are not adjacent");
        let (lo, dir) = lower_end(a, b);
        match dir {
            EdgeDir::East => self.east_blocked[self.idx(lo)],
            EdgeDir::North => self.north_blocked[self.idx(lo)],
        }
    }

    /// The edge-blockage bitmaps `(east, north)`: entry `i` of `east`
    /// blocks the edge from node `i` (row-major) to its east neighbour,
    /// entry `i` of `north` the edge to its north neighbour. Entries of
    /// the last column in `east` and of the last row in `north` name no
    /// edge.
    #[inline]
    pub fn edge_bitmaps(&self) -> (&[bool], &[bool]) {
        (&self.east_blocked, &self.north_blocked)
    }

    /// Marks a single node as placement-blocked.
    pub fn block_node(&mut self, p: Point) {
        let i = self.idx(p);
        self.node_blocked[i] = true;
    }

    /// Marks every node covered by `rect` as placement-blocked.
    pub fn block_nodes(&mut self, rect: &Rect) {
        for p in rect.points() {
            if p.x < self.width && p.y < self.height {
                self.block_node(p);
            }
        }
    }

    /// Marks a single node as register-blocked (buffers still allowed).
    pub fn block_register(&mut self, p: Point) {
        let i = self.idx(p);
        self.register_blocked[i] = true;
    }

    /// Marks every node covered by `rect` as register-blocked.
    pub fn block_registers(&mut self, rect: &Rect) {
        for p in rect.points() {
            if p.x < self.width && p.y < self.height {
                self.block_register(p);
            }
        }
    }

    /// Removes the grid edge between adjacent points `a` and `b`.
    pub fn block_edge(&mut self, a: Point, b: Point) {
        assert!(a.is_adjacent(b), "{a} and {b} are not adjacent");
        let (lo, dir) = lower_end(a, b);
        let i = self.idx(lo);
        match dir {
            EdgeDir::East => self.east_blocked[i] = true,
            EdgeDir::North => self.north_blocked[i] = true,
        }
    }

    /// A copy of this map with every grid edge removed except the edges
    /// `open` names, which keep the state they have here: the corridor
    /// that confines a route to those edges. Built in one pass over the
    /// edge arrays; an `open` pair that is not a grid edge opens nothing.
    pub fn corridor(&self, open: impl IntoIterator<Item = (Point, Point)>) -> BlockageMap {
        let w = self.width as usize;
        let h = self.height as usize;
        // Every edge blocked; the unused border entries (east of the
        // last column, north of the last row) keep their state.
        let mut east_blocked = self.east_blocked.clone();
        for row in east_blocked.chunks_exact_mut(w) {
            row[..w - 1].fill(true);
        }
        let mut north_blocked = self.north_blocked.clone();
        north_blocked[..w * (h - 1)].fill(true);
        for (a, b) in open {
            if !a.is_adjacent(b) || a.x.max(b.x) >= self.width || a.y.max(b.y) >= self.height {
                continue;
            }
            let (lo, dir) = lower_end(a, b);
            let i = self.idx(lo);
            match dir {
                EdgeDir::East => east_blocked[i] = self.east_blocked[i],
                EdgeDir::North => north_blocked[i] = self.north_blocked[i],
            }
        }
        BlockageMap {
            width: self.width,
            height: self.height,
            node_blocked: self.node_blocked.clone(),
            register_blocked: self.register_blocked.clone(),
            east_blocked,
            north_blocked,
        }
    }

    /// Removes every grid edge with *both* endpoints inside `rect`
    /// (a solid wiring blockage over the region).
    pub fn block_edges(&mut self, rect: &Rect) {
        for p in rect.points() {
            if p.x >= self.width || p.y >= self.height {
                continue;
            }
            let east = Point::new(p.x + 1, p.y);
            if east.x < self.width && rect.contains(east) {
                self.block_edge(p, east);
            }
            let north = Point::new(p.x, p.y + 1);
            if north.y < self.height && rect.contains(north) {
                self.block_edge(p, north);
            }
        }
    }

    /// Number of placement-blocked nodes.
    pub fn blocked_node_count(&self) -> usize {
        self.node_blocked.iter().filter(|&&b| b).count()
    }

    /// Number of removed grid edges.
    pub fn blocked_edge_count(&self) -> usize {
        self.east_blocked.iter().filter(|&&b| b).count()
            + self.north_blocked.iter().filter(|&&b| b).count()
    }
}

/// The lower endpoint of the edge between adjacent points `a` and `b`,
/// and the direction the edge leaves it in.
fn lower_end(a: Point, b: Point) -> (Point, EdgeDir) {
    if a.x != b.x {
        (if a.x < b.x { a } else { b }, EdgeDir::East)
    } else {
        (if a.y < b.y { a } else { b }, EdgeDir::North)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_dimensions_rejected() {
        let _ = BlockageMap::new(0, 5);
    }

    #[test]
    fn fresh_map_is_clear() {
        let map = BlockageMap::new(4, 3);
        assert_eq!(map.node_count(), 12);
        for y in 0..3 {
            for x in 0..4 {
                assert!(!map.is_node_blocked(Point::new(x, y)));
                assert!(!map.is_register_blocked(Point::new(x, y)));
            }
        }
        assert_eq!(map.blocked_node_count(), 0);
        assert_eq!(map.blocked_edge_count(), 0);
    }

    #[test]
    fn node_blockage_rect() {
        let mut map = BlockageMap::new(10, 10);
        map.block_nodes(&Rect::new(Point::new(2, 2), Point::new(4, 5)));
        assert!(map.is_node_blocked(Point::new(2, 2)));
        assert!(map.is_node_blocked(Point::new(4, 5)));
        assert!(!map.is_node_blocked(Point::new(5, 5)));
        assert_eq!(map.blocked_node_count(), 3 * 4);
    }

    #[test]
    fn corridor_keeps_only_the_open_edges() {
        let mut map = BlockageMap::new(4, 3);
        map.block_node(Point::new(2, 1));
        map.block_edge(Point::new(0, 0), Point::new(0, 1));
        let open = [
            (Point::new(0, 0), Point::new(1, 0)),
            (Point::new(0, 1), Point::new(0, 0)),
            // Not grid edges: off the grid, and not adjacent.
            (Point::new(3, 0), Point::new(4, 0)),
            (Point::new(0, 0), Point::new(1, 1)),
        ];
        let c = map.corridor(open);
        assert!(!c.is_edge_blocked(Point::new(0, 0), Point::new(1, 0)));
        // An open edge keeps its state: this one was already removed.
        assert!(c.is_edge_blocked(Point::new(0, 0), Point::new(0, 1)));
        assert_eq!(c.blocked_edge_count(), 3 * 3 + 4 * 2 - 1);
        assert!(c.is_node_blocked(Point::new(2, 1)));
    }

    #[test]
    fn node_blockage_implies_register_blockage() {
        let mut map = BlockageMap::new(5, 5);
        map.block_node(Point::new(1, 1));
        assert!(map.is_register_blocked(Point::new(1, 1)));
    }

    #[test]
    fn register_blockage_is_independent() {
        let mut map = BlockageMap::new(5, 5);
        map.block_register(Point::new(2, 2));
        assert!(map.is_register_blocked(Point::new(2, 2)));
        assert!(!map.is_node_blocked(Point::new(2, 2)));
    }

    #[test]
    fn edge_blockage_symmetric_lookup() {
        let mut map = BlockageMap::new(5, 5);
        let a = Point::new(1, 1);
        let b = Point::new(2, 1);
        map.block_edge(a, b);
        assert!(map.is_edge_blocked(a, b));
        assert!(map.is_edge_blocked(b, a));
        // Vertical edge, created in reversed order.
        let c = Point::new(3, 3);
        let d = Point::new(3, 2);
        map.block_edge(c, d);
        assert!(map.is_edge_blocked(d, c));
        assert_eq!(map.blocked_edge_count(), 2);
    }

    #[test]
    #[should_panic(expected = "not adjacent")]
    fn edge_blockage_rejects_non_adjacent() {
        let mut map = BlockageMap::new(5, 5);
        map.block_edge(Point::new(0, 0), Point::new(2, 0));
    }

    #[test]
    fn solid_region_edge_blockage() {
        let mut map = BlockageMap::new(6, 6);
        let rect = Rect::new(Point::new(1, 1), Point::new(3, 2));
        map.block_edges(&rect);
        // Interior edges are gone…
        assert!(map.is_edge_blocked(Point::new(1, 1), Point::new(2, 1)));
        assert!(map.is_edge_blocked(Point::new(2, 1), Point::new(2, 2)));
        // …but edges leaving the region survive.
        assert!(!map.is_edge_blocked(Point::new(1, 1), Point::new(0, 1)));
        assert!(!map.is_edge_blocked(Point::new(3, 2), Point::new(4, 2)));
        // 3×2 region: horizontal edges 2×2=4, vertical edges 3×1=3.
        assert_eq!(map.blocked_edge_count(), 7);
    }

    #[test]
    fn rects_partially_off_grid_are_clipped() {
        let mut map = BlockageMap::new(4, 4);
        map.block_nodes(&Rect::new(Point::new(2, 2), Point::new(9, 9)));
        assert_eq!(map.blocked_node_count(), 4);
        map.block_registers(&Rect::new(Point::new(3, 0), Point::new(9, 0)));
        assert!(map.is_register_blocked(Point::new(3, 0)));
    }
}
