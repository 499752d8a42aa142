//! Paths on the routing grid.

use crate::{GridGraph, NodeId};
use clockroute_geom::units::Length;
use clockroute_geom::Point;
use serde::{Deserialize, Serialize};
use std::error::Error;
use std::fmt;

/// A path on the grid: a sequence of grid points
/// `(s = v₁, v₂, …, v_k = t)` (paper §II).
///
/// `GridPath` does not itself guarantee validity; call
/// [`validate`](GridPath::validate) against a [`GridGraph`] to check
/// adjacency and blockage constraints.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GridPath {
    points: Vec<Point>,
}

/// Errors reported by [`GridPath::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidatePathError {
    /// The path contains fewer than one point.
    Empty,
    /// A point lies outside the grid.
    OutOfBounds { index: usize, point: Point },
    /// Consecutive points are not grid-adjacent.
    NotAdjacent { index: usize },
    /// The path uses a blocked (deleted) edge.
    BlockedEdge { index: usize },
}

impl fmt::Display for ValidatePathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidatePathError::Empty => write!(f, "path is empty"),
            ValidatePathError::OutOfBounds { index, point } => {
                write!(f, "path point #{index} {point} is outside the grid")
            }
            ValidatePathError::NotAdjacent { index } => {
                write!(
                    f,
                    "path points #{index} and #{} are not adjacent",
                    index + 1
                )
            }
            ValidatePathError::BlockedEdge { index } => {
                write!(f, "path edge #{index} is blocked")
            }
        }
    }
}

impl Error for ValidatePathError {}

impl GridPath {
    /// Creates a path from a point sequence.
    pub fn new(points: Vec<Point>) -> GridPath {
        GridPath { points }
    }

    /// The point sequence.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the path has no points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Number of edges (`len − 1`, saturating).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.points.len().saturating_sub(1)
    }

    /// The first point.
    pub fn source(&self) -> Option<Point> {
        self.points.first().copied()
    }

    /// The last point.
    pub fn sink(&self) -> Option<Point> {
        self.points.last().copied()
    }

    /// Total physical length of the path on `graph`.
    pub fn length(&self, graph: &GridGraph) -> Length {
        self.points
            .windows(2)
            .map(|w| graph.edge_length(graph.node(w[0]), graph.node(w[1])))
            .sum()
    }

    /// Checks that every point is on the grid, consecutive points are
    /// adjacent, and no traversed edge is blocked.
    ///
    /// # Errors
    ///
    /// Returns the first violation found, in path order.
    pub fn validate(&self, graph: &GridGraph) -> Result<(), ValidatePathError> {
        if self.points.is_empty() {
            return Err(ValidatePathError::Empty);
        }
        for (i, &p) in self.points.iter().enumerate() {
            if !graph.contains(p) {
                return Err(ValidatePathError::OutOfBounds { index: i, point: p });
            }
        }
        for (i, w) in self.points.windows(2).enumerate() {
            if !w[0].is_adjacent(w[1]) {
                return Err(ValidatePathError::NotAdjacent { index: i });
            }
            if graph.blockage().is_edge_blocked(w[0], w[1]) {
                return Err(ValidatePathError::BlockedEdge { index: i });
            }
        }
        Ok(())
    }

    /// Iterates over the node ids of the path on `graph`.
    pub fn node_ids<'a>(&'a self, graph: &'a GridGraph) -> impl Iterator<Item = NodeId> + 'a {
        self.points.iter().map(move |&p| graph.node(p))
    }
}

impl FromIterator<Point> for GridPath {
    fn from_iter<I: IntoIterator<Item = Point>>(iter: I) -> GridPath {
        GridPath::new(iter.into_iter().collect())
    }
}

impl fmt::Display for GridPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path[")?;
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                write!(f, " → ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::BlockageMap;

    fn open_graph() -> GridGraph {
        GridGraph::open(5, 5, Length::from_um(100.0))
    }

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn valid_path() {
        let g = open_graph();
        let path: GridPath = [p(0, 0), p(1, 0), p(1, 1), p(2, 1)].into_iter().collect();
        assert!(path.validate(&g).is_ok());
        assert_eq!(path.edge_count(), 3);
        assert_eq!(path.length(&g), Length::from_um(300.0));
        assert_eq!(path.source(), Some(p(0, 0)));
        assert_eq!(path.sink(), Some(p(2, 1)));
    }

    #[test]
    fn empty_path_invalid() {
        let g = open_graph();
        let path = GridPath::new(vec![]);
        assert_eq!(path.validate(&g), Err(ValidatePathError::Empty));
        assert!(path.is_empty());
        assert_eq!(path.edge_count(), 0);
    }

    #[test]
    fn single_point_path_valid() {
        let g = open_graph();
        let path = GridPath::new(vec![p(2, 2)]);
        assert!(path.validate(&g).is_ok());
        assert_eq!(path.length(&g), Length::ZERO);
    }

    #[test]
    fn out_of_bounds_detected() {
        let g = open_graph();
        let path = GridPath::new(vec![p(0, 0), p(0, 7)]);
        assert_eq!(
            path.validate(&g),
            Err(ValidatePathError::OutOfBounds {
                index: 1,
                point: p(0, 7)
            })
        );
    }

    #[test]
    fn non_adjacent_detected() {
        let g = open_graph();
        let path = GridPath::new(vec![p(0, 0), p(2, 0)]);
        assert_eq!(
            path.validate(&g),
            Err(ValidatePathError::NotAdjacent { index: 0 })
        );
    }

    #[test]
    fn blocked_edge_detected() {
        let mut blk = BlockageMap::new(5, 5);
        blk.block_edge(p(1, 0), p(2, 0));
        let g = GridGraph::new(blk, Length::from_um(100.0), Length::from_um(100.0));
        let path = GridPath::new(vec![p(0, 0), p(1, 0), p(2, 0)]);
        assert_eq!(
            path.validate(&g),
            Err(ValidatePathError::BlockedEdge { index: 1 })
        );
    }

    #[test]
    fn node_ids_round_trip() {
        let g = open_graph();
        let path: GridPath = [p(0, 0), p(0, 1)].into_iter().collect();
        let ids: Vec<_> = path.node_ids(&g).collect();
        assert_eq!(g.point(ids[0]), p(0, 0));
        assert_eq!(g.point(ids[1]), p(0, 1));
    }

    #[test]
    fn display() {
        let path: GridPath = [p(0, 0), p(1, 0)].into_iter().collect();
        assert_eq!(path.to_string(), "path[(0, 0) → (1, 0)]");
    }
}
