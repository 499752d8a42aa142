//! Per-edge channel capacities — the capacitated grid model behind the
//! flow-mode batch router.
//!
//! A capacity is the number of nets a grid edge's routing channel can
//! carry. The map is *sparse with a default*: every edge is unbounded
//! (`None`) unless a scenario declares a finite default and/or explicit
//! per-edge overrides, so scenarios that never mention capacities are
//! byte-for-byte unchanged. Keys are canonical undirected pairs and the
//! store is a `BTreeMap`, so iteration order — and everything hashed or
//! reported from it — is deterministic.

use crate::GridGraph;
use clockroute_geom::Point;
use std::collections::BTreeMap;

/// Canonical undirected key of a grid edge: `(ax, ay, bx, by)` with the
/// endpoints ordered by `(y, x)` so `(a, b)` and `(b, a)` collide.
pub type EdgeKey = (u32, u32, u32, u32);

/// The canonical [`EdgeKey`] of the undirected edge `{a, b}`.
pub fn edge_key(a: Point, b: Point) -> EdgeKey {
    if (a.y, a.x) <= (b.y, b.x) {
        (a.x, a.y, b.x, b.y)
    } else {
        (b.x, b.y, a.x, a.y)
    }
}

/// Channel capacities for the edges of a [`GridGraph`].
///
/// `cap(a, b)` returns `None` for an unbounded edge; a scenario with no
/// finite entries at all ([`EdgeCapacities::is_unconstrained`]) makes
/// flow mode delegate to the sequential planner unchanged.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct EdgeCapacities {
    default_cap: Option<u32>,
    overrides: BTreeMap<EdgeKey, u32>,
}

impl EdgeCapacities {
    /// An empty map: every edge unbounded.
    pub fn new() -> EdgeCapacities {
        EdgeCapacities::default()
    }

    /// Sets the capacity every edge gets unless overridden.
    pub fn set_default(&mut self, cap: u32) {
        self.default_cap = Some(cap);
    }

    /// Sets the capacity of the undirected edge `{a, b}`, replacing any
    /// earlier override for the same edge.
    pub fn set_edge(&mut self, a: Point, b: Point, cap: u32) {
        self.overrides.insert(edge_key(a, b), cap);
    }

    /// The default capacity, if one was declared.
    pub fn default_cap(&self) -> Option<u32> {
        self.default_cap
    }

    /// The capacity of edge `{a, b}`: the override if present, else the
    /// default, else `None` (unbounded).
    pub fn cap(&self, a: Point, b: Point) -> Option<u32> {
        self.overrides
            .get(&edge_key(a, b))
            .copied()
            .or(self.default_cap)
    }

    /// `true` when no edge anywhere has a finite capacity — the
    /// structural fast path that keeps flow mode byte-identical to the
    /// sequential planner on every pre-existing scenario.
    pub fn is_unconstrained(&self) -> bool {
        self.default_cap.is_none() && self.overrides.is_empty()
    }

    /// Explicit per-edge overrides, ascending by canonical key.
    pub fn overrides(&self) -> impl Iterator<Item = (EdgeKey, u32)> + '_ {
        self.overrides.iter().map(|(&k, &v)| (k, v))
    }

    /// Number of explicit overrides.
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// Every *usable* edge of `graph` that carries a finite capacity,
    /// ascending by canonical key. With a finite default this is every
    /// unblocked edge; without one it is the declared overrides that
    /// still exist on the grid.
    pub fn capacitated_edges(&self, graph: &GridGraph) -> Vec<(Point, Point, u32)> {
        let mut out = Vec::new();
        for y in 0..graph.height() {
            for x in 0..graph.width() {
                let p = Point::new(x, y);
                for q in [Point::new(x + 1, y), Point::new(x, y + 1)] {
                    if q.x >= graph.width() || q.y >= graph.height() {
                        continue;
                    }
                    if graph.blockage().is_edge_blocked(p, q) {
                        continue;
                    }
                    if let Some(c) = self.cap(p, q) {
                        out.push((p, q, c));
                    }
                }
            }
        }
        out.sort_by_key(|&(p, q, _)| edge_key(p, q));
        out
    }

    /// The capacities of [`EdgeCapacities::capacitated_edges`] as a
    /// dense array over [`GridGraph::edge_slot`]: `Some` on exactly the
    /// usable edges that list holds, `None` on every other slot.
    pub fn slot_caps(&self, graph: &GridGraph) -> Vec<Option<u32>> {
        let blockage = graph.blockage();
        let mut caps = vec![None; graph.edge_slots()];
        if let Some(default) = self.default_cap {
            for (slot, cap) in caps.iter_mut().enumerate() {
                if graph
                    .slot_edge(slot)
                    .is_some_and(|(a, b)| !blockage.is_edge_blocked(a, b))
                {
                    *cap = Some(default);
                }
            }
        }
        for (&(ax, ay, bx, by), &c) in &self.overrides {
            let (a, b) = (Point::new(ax, ay), Point::new(bx, by));
            if let Some(slot) = graph.edge_slot(a, b) {
                if !blockage.is_edge_blocked(a, b) {
                    caps[slot] = Some(c);
                }
            }
        }
        caps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::units::Length;

    #[test]
    fn empty_map_is_unconstrained_and_unbounded() {
        let caps = EdgeCapacities::new();
        assert!(caps.is_unconstrained());
        assert_eq!(caps.cap(Point::new(0, 0), Point::new(1, 0)), None);
        let g = GridGraph::open(4, 4, Length::from_um(125.0));
        assert!(caps.capacitated_edges(&g).is_empty());
    }

    #[test]
    fn edge_key_is_direction_independent() {
        let a = Point::new(3, 1);
        let b = Point::new(3, 2);
        assert_eq!(edge_key(a, b), edge_key(b, a));
        let mut caps = EdgeCapacities::new();
        caps.set_edge(b, a, 2);
        assert_eq!(caps.cap(a, b), Some(2));
        assert!(!caps.is_unconstrained());
    }

    #[test]
    fn override_beats_default() {
        let mut caps = EdgeCapacities::new();
        caps.set_default(3);
        caps.set_edge(Point::new(0, 0), Point::new(1, 0), 7);
        assert_eq!(caps.cap(Point::new(0, 0), Point::new(1, 0)), Some(7));
        assert_eq!(caps.cap(Point::new(0, 1), Point::new(1, 1)), Some(3));
        // Later override replaces the earlier one.
        caps.set_edge(Point::new(1, 0), Point::new(0, 0), 1);
        assert_eq!(caps.cap(Point::new(0, 0), Point::new(1, 0)), Some(1));
        assert_eq!(caps.override_count(), 1);
    }

    #[test]
    fn capacitated_edges_cover_the_grid_under_a_default() {
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let g = GridGraph::open(3, 2, Length::from_um(125.0));
        // 2·(3−1) horizontal + 3·(2−1) vertical = 7 edges.
        let edges = caps.capacitated_edges(&g);
        assert_eq!(edges.len(), 7);
        assert!(edges.iter().all(|&(_, _, c)| c == 1));
        // Sorted ascending by canonical key.
        let keys: Vec<_> = edges.iter().map(|&(p, q, _)| edge_key(p, q)).collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn capacitated_edges_skip_blocked_edges() {
        let mut caps = EdgeCapacities::new();
        caps.set_default(2);
        let mut g = GridGraph::open(3, 2, Length::from_um(125.0));
        g.blockage_mut()
            .block_edge(Point::new(0, 0), Point::new(1, 0));
        assert_eq!(caps.capacitated_edges(&g).len(), 6);
    }

    proptest::proptest! {
        /// The dense array holds exactly the sorted list's capacities,
        /// blocked edges and off-grid overrides included. `default` 4
        /// and `north` 0 stand for "none" and "east".
        #[test]
        fn slot_caps_equal_the_capacitated_edges(
            w in 1u32..7,
            h in 1u32..7,
            default in 0u32..5,
            blocked in proptest::collection::vec((0u32..7, 0u32..7, 0u32..2), 0..12),
            overrides in proptest::collection::vec((0u32..8, 0u32..8, 0u32..2, 0u32..4), 0..12),
        ) {
            let up = |x: u32, y: u32, north: u32| {
                if north == 1 { Point::new(x, y + 1) } else { Point::new(x + 1, y) }
            };
            let mut g = GridGraph::open(w, h, Length::from_um(125.0));
            for (x, y, north) in blocked {
                let q = up(x, y, north);
                if q.x < w && q.y < h {
                    g.blockage_mut().block_edge(Point::new(x, y), q);
                }
            }
            let mut caps = EdgeCapacities::new();
            if default < 4 {
                caps.set_default(default);
            }
            for (x, y, north, c) in overrides {
                caps.set_edge(Point::new(x, y), up(x, y, north), c);
            }
            let mut want = vec![None; g.edge_slots()];
            for (a, b, c) in caps.capacitated_edges(&g) {
                want[g.edge_slot(a, b).unwrap()] = Some(c);
            }
            proptest::prop_assert_eq!(caps.slot_caps(&g), want);
        }
    }
}
