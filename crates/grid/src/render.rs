//! ASCII rendering of grids, blockages and labelled routes.
//!
//! Used by the examples and the `figures` benchmark binary to reproduce
//! the paper's illustrative figures (Figs. 3, 6, 11) as terminal art.

use crate::{GridGraph, GridPath};
use clockroute_geom::Point;
// Ordered collections throughout: rendered art is diffed byte-for-byte
// in tests and reports (CR006, clippy.toml).
use std::collections::{BTreeMap, BTreeSet};

/// Options controlling [`render_grid`].
#[derive(Debug, Clone)]
pub struct RenderOptions {
    /// Character for free nodes.
    pub free: char,
    /// Character for placement-blocked nodes.
    pub blocked: char,
    /// Character for plain route nodes.
    pub route: char,
    /// Draw a border around the grid.
    pub border: bool,
}

impl Default for RenderOptions {
    fn default() -> RenderOptions {
        RenderOptions {
            free: '·',
            blocked: '█',
            route: '*',
            border: true,
        }
    }
}

/// Renders the grid with an optional route and per-node label overrides
/// (e.g. `B` for buffers, `R` for registers, `F` for the MCFIFO).
///
/// Row 0 is drawn at the *bottom*, matching the usual die-coordinate
/// convention. Labels take precedence over the route marker, which takes
/// precedence over blockage/free markers.
///
/// # Example
///
/// ```
/// use clockroute_grid::{GridGraph, render_grid, RenderOptions};
/// use clockroute_geom::{Point, units::Length};
///
/// let g = GridGraph::open(3, 2, Length::from_um(100.0));
/// let art = render_grid(&g, None, &[(Point::new(1, 1), 'S')], &RenderOptions::default());
/// assert!(art.contains('S'));
/// ```
pub fn render_grid(
    graph: &GridGraph,
    route: Option<&GridPath>,
    labels: &[(Point, char)],
    opts: &RenderOptions,
) -> String {
    let label_map: BTreeMap<Point, char> = labels.iter().copied().collect();
    let route_set: BTreeSet<Point> = route
        .map(|r| r.points().iter().copied().collect())
        .unwrap_or_default();

    let w = graph.width() as usize;
    let mut out = String::new();
    if opts.border {
        out.push('+');
        out.push_str(&"-".repeat(w * 2 - 1));
        out.push_str("+\n");
    }
    for y in (0..graph.height()).rev() {
        if opts.border {
            out.push('|');
        }
        for x in 0..graph.width() {
            let p = Point::new(x, y);
            let ch = if let Some(&c) = label_map.get(&p) {
                c
            } else if route_set.contains(&p) {
                opts.route
            } else if graph.blockage().is_node_blocked(p) {
                opts.blocked
            } else {
                opts.free
            };
            out.push(ch);
            if x + 1 < graph.width() {
                // Show wiring blockages as gaps between cells.
                let east = Point::new(x + 1, y);
                let connected = !graph.blockage().is_edge_blocked(p, east);
                let on_route = route_set.contains(&p) && route_set.contains(&east);
                out.push(if on_route && connected {
                    '-'
                } else if connected {
                    ' '
                } else {
                    '┆'
                });
            }
        }
        if opts.border {
            out.push('|');
        }
        out.push('\n');
    }
    if opts.border {
        out.push('+');
        out.push_str(&"-".repeat(w * 2 - 1));
        out.push_str("+\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::units::Length;
    use clockroute_geom::{BlockageMap, Rect};

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn renders_expected_dimensions() {
        let g = GridGraph::open(4, 3, Length::from_um(100.0));
        let art = render_grid(&g, None, &[], &RenderOptions::default());
        let lines: Vec<&str> = art.lines().collect();
        // 3 rows + 2 border lines.
        assert_eq!(lines.len(), 5);
        // 4 cells + 3 separators + 2 borders.
        assert_eq!(lines[1].chars().count(), 4 + 3 + 2);
    }

    #[test]
    fn row_zero_at_bottom() {
        let g = GridGraph::open(2, 2, Length::from_um(100.0));
        let art = render_grid(&g, None, &[(p(0, 0), 'S')], &RenderOptions::default());
        let lines: Vec<&str> = art.lines().collect();
        // Bottom data line (second to last) holds S.
        assert!(lines[lines.len() - 2].contains('S'));
        assert!(!lines[1].contains('S'));
    }

    #[test]
    fn blockages_and_route_markers() {
        let mut blk = BlockageMap::new(4, 4);
        blk.block_nodes(&Rect::new(p(1, 1), p(2, 2)));
        let g = GridGraph::new(blk, Length::from_um(100.0), Length::from_um(100.0));
        let route = GridPath::new(vec![p(0, 0), p(1, 0), p(2, 0), p(3, 0)]);
        let art = render_grid(&g, Some(&route), &[], &RenderOptions::default());
        assert!(art.contains('█'));
        assert!(art.contains('*'));
        assert!(art.contains("*-*"));
    }

    #[test]
    fn wire_blockages_shown_as_gaps() {
        let mut blk = BlockageMap::new(3, 1);
        blk.block_edge(p(0, 0), p(1, 0));
        let g = GridGraph::new(blk, Length::from_um(100.0), Length::from_um(100.0));
        let art = render_grid(&g, None, &[], &RenderOptions::default());
        assert!(art.contains('┆'));
    }

    #[test]
    fn labels_take_precedence() {
        let g = GridGraph::open(2, 1, Length::from_um(100.0));
        let route = GridPath::new(vec![p(0, 0), p(1, 0)]);
        let art = render_grid(
            &g,
            Some(&route),
            &[(p(0, 0), 'R')],
            &RenderOptions::default(),
        );
        assert!(art.contains('R'));
    }

    #[test]
    fn borderless_render() {
        let g = GridGraph::open(2, 2, Length::from_um(100.0));
        let opts = RenderOptions {
            border: false,
            ..RenderOptions::default()
        };
        let art = render_grid(&g, None, &[], &opts);
        assert_eq!(art.lines().count(), 2);
        assert!(!art.contains('+'));
    }
}
