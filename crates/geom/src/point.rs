//! Integer grid coordinates.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A point on the routing grid, addressed by integer column (`x`) and row
/// (`y`) indices.
///
/// Grid coordinates are *indices*, not physical positions; the physical
/// pitch of the grid lives in
/// [`Floorplan::rasterize`](crate::Floorplan::rasterize) /
/// the grid-graph layer.
///
/// ```
/// use clockroute_geom::Point;
/// let p = Point::new(3, 4);
/// let q = Point::new(7, 1);
/// assert_eq!(p.manhattan(q), 7);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Point {
    /// Column index.
    pub x: u32,
    /// Row index.
    pub y: u32,
}

// Both orders by hand: a derived `PartialOrd` calls `partial_cmp`,
// which clippy.toml bans (CR001), and clippy wants `Ord` and
// `PartialOrd` derived together or written together.
impl Ord for Point {
    #[inline]
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.x, self.y).cmp(&(other.x, other.y))
    }
}

impl PartialOrd for Point {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Point {
    /// Creates a point at `(x, y)`.
    #[inline]
    pub const fn new(x: u32, y: u32) -> Point {
        Point { x, y }
    }

    /// Manhattan (L1) distance to `other`, in grid edges.
    #[inline]
    pub fn manhattan(self, other: Point) -> u32 {
        self.x.abs_diff(other.x) + self.y.abs_diff(other.y)
    }

    /// Chebyshev (L∞) distance to `other`.
    #[inline]
    pub fn chebyshev(self, other: Point) -> u32 {
        self.x.abs_diff(other.x).max(self.y.abs_diff(other.y))
    }

    /// Returns the four axis-aligned neighbours of this point that lie in
    /// the `width × height` grid (0-based, exclusive bounds).
    ///
    /// The result is returned in a fixed deterministic order:
    /// west, east, south, north (of those that exist).
    pub fn neighbors(self, width: u32, height: u32) -> impl Iterator<Item = Point> {
        let Point { x, y } = self;
        let candidates = [
            (x > 0).then(|| Point::new(x.wrapping_sub(1), y)),
            (x + 1 < width).then(|| Point::new(x + 1, y)),
            (y > 0).then(|| Point::new(x, y.wrapping_sub(1))),
            (y + 1 < height).then(|| Point::new(x, y + 1)),
        ];
        candidates.into_iter().flatten()
    }

    /// `true` if `other` is exactly one grid edge away.
    #[inline]
    pub fn is_adjacent(self, other: Point) -> bool {
        self.manhattan(other) == 1
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.x, self.y)
    }
}

impl From<(u32, u32)> for Point {
    fn from((x, y): (u32, u32)) -> Point {
        Point::new(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_distance() {
        assert_eq!(Point::new(0, 0).manhattan(Point::new(3, 4)), 7);
        assert_eq!(Point::new(3, 4).manhattan(Point::new(0, 0)), 7);
        assert_eq!(Point::new(5, 5).manhattan(Point::new(5, 5)), 0);
    }

    #[test]
    fn chebyshev_distance() {
        assert_eq!(Point::new(0, 0).chebyshev(Point::new(3, 4)), 4);
        assert_eq!(Point::new(2, 2).chebyshev(Point::new(2, 2)), 0);
    }

    #[test]
    fn neighbors_interior() {
        let n: Vec<_> = Point::new(2, 2).neighbors(5, 5).collect();
        assert_eq!(
            n,
            vec![
                Point::new(1, 2),
                Point::new(3, 2),
                Point::new(2, 1),
                Point::new(2, 3)
            ]
        );
    }

    #[test]
    fn neighbors_corner() {
        let n: Vec<_> = Point::new(0, 0).neighbors(5, 5).collect();
        assert_eq!(n, vec![Point::new(1, 0), Point::new(0, 1)]);
        let n: Vec<_> = Point::new(4, 4).neighbors(5, 5).collect();
        assert_eq!(n, vec![Point::new(3, 4), Point::new(4, 3)]);
    }

    #[test]
    fn neighbors_degenerate_grid() {
        // 1×1 grid: no neighbours at all.
        assert_eq!(Point::new(0, 0).neighbors(1, 1).count(), 0);
        // 1-wide column: only vertical neighbours.
        let n: Vec<_> = Point::new(0, 1).neighbors(1, 3).collect();
        assert_eq!(n, vec![Point::new(0, 0), Point::new(0, 2)]);
    }

    #[test]
    fn adjacency() {
        assert!(Point::new(1, 1).is_adjacent(Point::new(1, 2)));
        assert!(Point::new(1, 1).is_adjacent(Point::new(0, 1)));
        assert!(!Point::new(1, 1).is_adjacent(Point::new(2, 2)));
        assert!(!Point::new(1, 1).is_adjacent(Point::new(1, 1)));
    }

    #[test]
    fn conversion_and_display() {
        let p: Point = (3, 9).into();
        assert_eq!(p, Point::new(3, 9));
        assert_eq!(p.to_string(), "(3, 9)");
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    fn pt() -> impl Strategy<Value = Point> {
        (0u32..1000, 0u32..1000).prop_map(|(x, y)| Point::new(x, y))
    }

    proptest! {
        #[test]
        fn manhattan_is_a_metric(a in pt(), b in pt(), c in pt()) {
            // Symmetry.
            prop_assert_eq!(a.manhattan(b), b.manhattan(a));
            // Identity.
            prop_assert_eq!(a.manhattan(a), 0);
            // Triangle inequality.
            prop_assert!(a.manhattan(c) <= a.manhattan(b) + b.manhattan(c));
            // Chebyshev lower-bounds Manhattan.
            prop_assert!(a.chebyshev(b) <= a.manhattan(b));
        }

        #[test]
        fn neighbors_are_adjacent_and_unique(x in 0u32..50, y in 0u32..50) {
            let p = Point::new(x, y);
            let n: Vec<Point> = p.neighbors(50, 50).collect();
            for &q in &n {
                prop_assert!(p.is_adjacent(q));
            }
            let set: std::collections::HashSet<_> = n.iter().collect();
            prop_assert_eq!(set.len(), n.len());
        }
    }
}
