//! Seeded random floorplan generation for tests and benchmarks.
//!
//! The paper's published experiments run on an *empty* 25 mm × 25 mm die;
//! its illustrative figures (Figs. 3, 11) show dies with circuit and wire
//! blockages. Production SoC block maps are proprietary, so this module
//! provides a reproducible synthetic substitute: seeded random block soup
//! with a guaranteed-clear corridor so that a source→sink connection always
//! exists (see `DESIGN.md`, substitution table).

use crate::units::Length;
use crate::{BlockKind, Floorplan, Point, Rect};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configurable, seeded random floorplan generator.
///
/// ```
/// use clockroute_geom::gen::FloorplanGenerator;
/// use clockroute_geom::Point;
///
/// let fp = FloorplanGenerator::new(40, 40)
///     .blocks(6)
///     .block_size(3, 8)
///     .keepout(Point::new(0, 0))
///     .keepout(Point::new(39, 39))
///     .generate(42);
/// assert_eq!(fp.blocks().len(), 6);
/// // Same seed ⇒ same floorplan.
/// let fp2 = FloorplanGenerator::new(40, 40)
///     .blocks(6)
///     .block_size(3, 8)
///     .keepout(Point::new(0, 0))
///     .keepout(Point::new(39, 39))
///     .generate(42);
/// assert_eq!(fp, fp2);
/// ```
#[derive(Debug, Clone)]
pub struct FloorplanGenerator {
    grid_w: u32,
    grid_h: u32,
    die_w: Length,
    die_h: Length,
    blocks: usize,
    min_size: u32,
    max_size: u32,
    keepouts: Vec<Point>,
    keepout_margin: u32,
    kinds: Vec<BlockKind>,
    allow_overlap: bool,
}

impl FloorplanGenerator {
    /// Creates a generator for a `grid_w × grid_h` die; the physical die
    /// size defaults to the paper's 25 mm × 25 mm.
    ///
    /// # Panics
    ///
    /// Panics if either grid dimension is zero.
    pub fn new(grid_w: u32, grid_h: u32) -> FloorplanGenerator {
        assert!(grid_w > 0 && grid_h > 0, "grid dimensions must be non-zero");
        FloorplanGenerator {
            grid_w,
            grid_h,
            die_w: Length::from_mm(25.0),
            die_h: Length::from_mm(25.0),
            blocks: 8,
            min_size: 2,
            max_size: 10,
            keepouts: Vec::new(),
            keepout_margin: 1,
            kinds: vec![BlockKind::Hard, BlockKind::Obstacle, BlockKind::WiringOnly],
            allow_overlap: false,
        }
    }

    /// Sets the physical die size.
    pub fn die_size(mut self, w: Length, h: Length) -> Self {
        self.die_w = w;
        self.die_h = h;
        self
    }

    /// Number of blocks to place.
    pub fn blocks(mut self, n: usize) -> Self {
        self.blocks = n;
        self
    }

    /// Inclusive range of block side lengths, in grid points.
    ///
    /// # Panics
    ///
    /// Panics if `min` is zero or `min > max`.
    pub fn block_size(mut self, min: u32, max: u32) -> Self {
        assert!(min > 0 && min <= max, "invalid block size range");
        self.min_size = min;
        self.max_size = max;
        self
    }

    /// Adds a grid point that no block may cover (e.g. the source or sink
    /// of the net under study). A margin of [`Self::keepout_margin`] grid
    /// points around the point is kept clear too.
    pub fn keepout(mut self, p: Point) -> Self {
        self.keepouts.push(p);
        self
    }

    /// Clearance (in grid points) kept around each keepout point.
    pub fn keepout_margin(mut self, margin: u32) -> Self {
        self.keepout_margin = margin;
        self
    }

    /// Restricts the kinds of blocks generated.
    ///
    /// # Panics
    ///
    /// Panics if `kinds` is empty.
    pub fn kinds(mut self, kinds: Vec<BlockKind>) -> Self {
        assert!(!kinds.is_empty(), "at least one block kind required");
        self.kinds = kinds;
        self
    }

    /// Allows generated blocks to overlap each other (default: disjoint).
    pub fn allow_overlap(mut self, yes: bool) -> Self {
        self.allow_overlap = yes;
        self
    }

    /// Generates a floorplan deterministically from `seed`.
    ///
    /// Placement uses rejection sampling; if the die is too congested to
    /// fit the requested number of disjoint blocks the generator places as
    /// many as it can within a bounded number of attempts rather than
    /// looping forever.
    pub fn generate(&self, seed: u64) -> Floorplan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut fp = Floorplan::new(self.die_w, self.die_h);
        let mut placed: Vec<Rect> = Vec::new();
        let max_attempts = self.blocks * 200 + 200;
        let mut attempts = 0;
        while placed.len() < self.blocks && attempts < max_attempts {
            attempts += 1;
            let w = rng
                .gen_range(self.min_size..=self.max_size)
                .min(self.grid_w);
            let h = rng
                .gen_range(self.min_size..=self.max_size)
                .min(self.grid_h);
            let x0 = rng.gen_range(0..=self.grid_w - w);
            let y0 = rng.gen_range(0..=self.grid_h - h);
            let rect = Rect::new(Point::new(x0, y0), Point::new(x0 + w - 1, y0 + h - 1));
            if self.violates_keepout(&rect) {
                continue;
            }
            if !self.allow_overlap && placed.iter().any(|r| r.intersects(&rect)) {
                continue;
            }
            let kind = self.kinds[rng.gen_range(0..self.kinds.len())];
            fp.add_block(rect, kind);
            placed.push(rect);
        }
        fp
    }

    fn violates_keepout(&self, rect: &Rect) -> bool {
        self.keepouts.iter().any(|&p| {
            let zone = Rect::new(p, p).inflate(self.keepout_margin, self.grid_w, self.grid_h);
            rect.intersects(&zone)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let g = FloorplanGenerator::new(30, 30).blocks(5);
        assert_eq!(g.generate(7), g.generate(7));
    }

    #[test]
    fn different_seeds_differ() {
        let g = FloorplanGenerator::new(30, 30).blocks(5);
        assert_ne!(g.generate(1), g.generate(2));
    }

    #[test]
    fn respects_keepouts() {
        let s = Point::new(0, 0);
        let t = Point::new(29, 29);
        let g = FloorplanGenerator::new(30, 30)
            .blocks(10)
            .keepout(s)
            .keepout(t)
            .keepout_margin(2);
        let fp = g.generate(99);
        for b in fp.blocks() {
            assert!(!b.rect.contains(s), "block covers source");
            assert!(!b.rect.contains(t), "block covers sink");
        }
    }

    #[test]
    fn disjoint_by_default() {
        let fp = FloorplanGenerator::new(40, 40).blocks(8).generate(3);
        let blocks = fp.blocks();
        for i in 0..blocks.len() {
            for j in i + 1..blocks.len() {
                assert!(
                    !blocks[i].rect.intersects(&blocks[j].rect),
                    "blocks {i} and {j} overlap"
                );
            }
        }
    }

    #[test]
    fn congested_die_terminates() {
        // Ask for far more blocks than fit disjointly: must not hang, and
        // must place at least one.
        let fp = FloorplanGenerator::new(10, 10)
            .blocks(500)
            .block_size(3, 5)
            .generate(0);
        assert!(!fp.blocks().is_empty());
        assert!(fp.blocks().len() < 500);
    }

    #[test]
    fn restricted_kinds() {
        let fp = FloorplanGenerator::new(30, 30)
            .blocks(6)
            .kinds(vec![BlockKind::Obstacle])
            .generate(11);
        assert!(fp.blocks().iter().all(|b| b.kind == BlockKind::Obstacle));
    }

    #[test]
    fn block_sizes_in_range() {
        let fp = FloorplanGenerator::new(50, 50)
            .blocks(10)
            .block_size(4, 6)
            .generate(5);
        for b in fp.blocks() {
            assert!((4..=6).contains(&b.rect.width()));
            assert!((4..=6).contains(&b.rect.height()));
        }
    }
}
