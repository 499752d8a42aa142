//! Chip floorplans: die outline + placed IP / macro blocks.

use crate::units::Length;
use crate::{BlockageMap, Point, Rect};
use serde::{Deserialize, Serialize};
use std::fmt;

/// How a placed block constrains routing resources above it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockKind {
    /// A hard macro: blocks gate insertion *and* removes routing edges.
    /// (Both a physical obstacle and a wiring blockage.)
    Hard,
    /// A placement obstacle only (`p(v) = 0`): wires may cross (e.g. on
    /// upper metal), but no buffer or synchronizer may be dropped inside.
    /// This models routing *over* IP blocks and memories.
    Obstacle,
    /// A wiring blockage only (e.g. a datapath whose routing tracks are
    /// fully used): gates may be placed at the boundary nodes, but edges
    /// internal to the region are removed.
    WiringOnly,
    /// A clock-congested region: only registers/synchronizers are banned
    /// (the paper's register-blockage extension); buffers and wires are
    /// unaffected.
    RegisterKeepout,
}

impl fmt::Display for BlockKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BlockKind::Hard => "hard",
            BlockKind::Obstacle => "obstacle",
            BlockKind::WiringOnly => "wiring-only",
            BlockKind::RegisterKeepout => "register-keepout",
        };
        f.write_str(s)
    }
}

/// A block placed on the floorplan, in grid coordinates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacedBlock {
    /// Footprint in grid coordinates.
    pub rect: Rect,
    /// Blockage semantics.
    pub kind: BlockKind,
}

/// A chip floorplan: physical die dimensions plus a list of placed blocks.
///
/// The floorplan is described in *grid coordinates*; the physical pitch is
/// derived at [`rasterize`](Floorplan::rasterize) time from the die size and
/// the requested grid resolution, mirroring the paper's experiments (a
/// 25 mm × 25 mm chip rasterised at 0.5 / 0.25 / 0.125 mm separations).
///
/// ```
/// use clockroute_geom::{Floorplan, Rect, Point, BlockKind, units::Length};
/// let mut fp = Floorplan::new(Length::from_mm(25.0), Length::from_mm(25.0));
/// fp.add_block(Rect::new(Point::new(10, 10), Point::new(20, 20)), BlockKind::Obstacle);
/// let map = fp.rasterize(50, 50);
/// assert!(map.is_node_blocked(Point::new(15, 15)));
/// // Obstacles keep wiring intact:
/// assert!(!map.is_edge_blocked(Point::new(15, 15), Point::new(16, 15)));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Floorplan {
    die_width: Length,
    die_height: Length,
    blocks: Vec<PlacedBlock>,
}

impl Floorplan {
    /// Creates an empty floorplan for a die of the given physical size.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is not strictly positive.
    pub fn new(die_width: Length, die_height: Length) -> Floorplan {
        assert!(
            die_width.um() > 0.0 && die_height.um() > 0.0,
            "die dimensions must be positive"
        );
        Floorplan {
            die_width,
            die_height,
            blocks: Vec::new(),
        }
    }

    /// Physical die width.
    #[inline]
    pub fn die_width(&self) -> Length {
        self.die_width
    }

    /// Physical die height.
    #[inline]
    pub fn die_height(&self) -> Length {
        self.die_height
    }

    /// The blocks placed so far.
    #[inline]
    pub fn blocks(&self) -> &[PlacedBlock] {
        &self.blocks
    }

    /// Places a block (footprint in grid coordinates).
    pub fn add_block(&mut self, rect: Rect, kind: BlockKind) -> &mut Self {
        self.blocks.push(PlacedBlock { rect, kind });
        self
    }

    /// Grid pitch (edge length) for a `grid_w × grid_h` rasterisation.
    ///
    /// The paper spaces `n` grid nodes across the die so that the pitch is
    /// `die / n` (e.g. 25 mm / 200 = 0.125 mm).
    pub fn pitch(&self, grid_w: u32, grid_h: u32) -> (Length, Length) {
        (
            Length::from_um(self.die_width.um() / f64::from(grid_w)),
            Length::from_um(self.die_height.um() / f64::from(grid_h)),
        )
    }

    /// Rasterises the floorplan onto a `grid_w × grid_h` blockage map.
    ///
    /// Block footprints are interpreted directly in the target grid's
    /// coordinates; footprints extending beyond the grid are clipped.
    ///
    /// # Panics
    ///
    /// Panics if `grid_w` or `grid_h` is zero.
    pub fn rasterize(&self, grid_w: u32, grid_h: u32) -> BlockageMap {
        let mut map = BlockageMap::new(grid_w, grid_h);
        for block in &self.blocks {
            match block.kind {
                BlockKind::Hard => {
                    map.block_nodes(&block.rect);
                    map.block_edges(&block.rect);
                }
                BlockKind::Obstacle => map.block_nodes(&block.rect),
                BlockKind::WiringOnly => map.block_edges(&block.rect),
                BlockKind::RegisterKeepout => map.block_registers(&block.rect),
            }
        }
        map
    }

    /// Total grid-point area covered by blocks (overlaps double-counted).
    pub fn blocked_area(&self) -> u64 {
        self.blocks.iter().map(|b| b.rect.area()).sum()
    }

    /// `true` if point `p` lies inside any block of the given kind.
    pub fn covered_by(&self, p: Point, kind: BlockKind) -> bool {
        self.blocks
            .iter()
            .any(|b| b.kind == kind && b.rect.contains(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn die() -> Floorplan {
        Floorplan::new(Length::from_mm(25.0), Length::from_mm(25.0))
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_die_rejected() {
        let _ = Floorplan::new(Length::from_mm(0.0), Length::from_mm(1.0));
    }

    #[test]
    fn pitch_matches_paper_resolutions() {
        let fp = die();
        let (px, _) = fp.pitch(200, 200);
        assert!((px.mm() - 0.125).abs() < 1e-12);
        let (px, _) = fp.pitch(100, 100);
        assert!((px.mm() - 0.25).abs() < 1e-12);
        let (px, _) = fp.pitch(50, 50);
        assert!((px.mm() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hard_block_blocks_nodes_and_edges() {
        let mut fp = die();
        fp.add_block(
            Rect::new(Point::new(5, 5), Point::new(8, 8)),
            BlockKind::Hard,
        );
        let map = fp.rasterize(20, 20);
        assert!(map.is_node_blocked(Point::new(6, 6)));
        assert!(map.is_edge_blocked(Point::new(6, 6), Point::new(7, 6)));
        assert!(!map.is_edge_blocked(Point::new(8, 8), Point::new(9, 8)));
    }

    #[test]
    fn obstacle_keeps_wiring() {
        let mut fp = die();
        fp.add_block(
            Rect::new(Point::new(5, 5), Point::new(8, 8)),
            BlockKind::Obstacle,
        );
        let map = fp.rasterize(20, 20);
        assert!(map.is_node_blocked(Point::new(6, 6)));
        assert!(!map.is_edge_blocked(Point::new(6, 6), Point::new(7, 6)));
    }

    #[test]
    fn wiring_only_keeps_placement() {
        let mut fp = die();
        fp.add_block(
            Rect::new(Point::new(5, 5), Point::new(8, 8)),
            BlockKind::WiringOnly,
        );
        let map = fp.rasterize(20, 20);
        assert!(!map.is_node_blocked(Point::new(6, 6)));
        assert!(map.is_edge_blocked(Point::new(6, 6), Point::new(7, 6)));
    }

    #[test]
    fn register_keepout_only_blocks_registers() {
        let mut fp = die();
        fp.add_block(
            Rect::new(Point::new(5, 5), Point::new(8, 8)),
            BlockKind::RegisterKeepout,
        );
        let map = fp.rasterize(20, 20);
        let p = Point::new(6, 6);
        assert!(map.is_register_blocked(p));
        assert!(!map.is_node_blocked(p));
        assert!(!map.is_edge_blocked(p, Point::new(7, 6)));
    }

    #[test]
    fn covered_by_and_area() {
        let mut fp = die();
        fp.add_block(
            Rect::new(Point::new(0, 0), Point::new(1, 1)),
            BlockKind::Hard,
        )
        .add_block(
            Rect::new(Point::new(3, 3), Point::new(3, 3)),
            BlockKind::Obstacle,
        );
        assert_eq!(fp.blocks().len(), 2);
        assert_eq!(fp.blocked_area(), 5);
        assert!(fp.covered_by(Point::new(0, 1), BlockKind::Hard));
        assert!(!fp.covered_by(Point::new(0, 1), BlockKind::Obstacle));
        assert!(fp.covered_by(Point::new(3, 3), BlockKind::Obstacle));
    }
}
