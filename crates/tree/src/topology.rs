//! Routing-tree topologies over the grid.

use clockroute_geom::Point;
use clockroute_grid::GridGraph;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// A rooted routing tree embedded in the grid: every node is a grid
/// point, every edge a grid edge; the root is the net's source and a
/// designated subset of nodes are sinks.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoutingTree {
    points: Vec<Point>,
    /// Parent index per node (`usize::MAX` for the root).
    parents: Vec<usize>,
    children: Vec<Vec<usize>>,
    root: usize,
    sinks: Vec<usize>,
}

/// Errors from tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildTreeError {
    /// Fewer than two terminals were given.
    TooFewTerminals,
    /// A terminal lies outside the grid.
    TerminalOffGrid(Point),
    /// Two terminals coincide.
    DuplicateTerminal(Point),
    /// An embedded edge crosses a wiring blockage (L-shaped embedding
    /// does not route around blockages; pre-clear the spine region or
    /// use the path algorithms for obstructed nets).
    BlockedEdge(Point, Point),
}

impl fmt::Display for BuildTreeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildTreeError::TooFewTerminals => f.write_str("need a source and at least one sink"),
            BuildTreeError::TerminalOffGrid(p) => write!(f, "terminal {p} is outside the grid"),
            BuildTreeError::DuplicateTerminal(p) => write!(f, "duplicate terminal {p}"),
            BuildTreeError::BlockedEdge(a, b) => {
                write!(f, "embedded edge {a}–{b} crosses a wiring blockage")
            }
        }
    }
}

impl Error for BuildTreeError {}

impl RoutingTree {
    /// Builds a rectilinear routing tree: Prim MST over the terminals
    /// (Manhattan metric), each MST edge embedded as an L-shaped route
    /// (horizontal first), overlapping segments merged.
    ///
    /// # Errors
    ///
    /// See [`BuildTreeError`].
    pub fn rectilinear(
        graph: &GridGraph,
        source: Point,
        sinks: &[Point],
    ) -> Result<RoutingTree, BuildTreeError> {
        if sinks.is_empty() {
            return Err(BuildTreeError::TooFewTerminals);
        }
        let mut terminals = vec![source];
        terminals.extend_from_slice(sinks);
        for &t in &terminals {
            if !graph.contains(t) {
                return Err(BuildTreeError::TerminalOffGrid(t));
            }
        }
        for i in 0..terminals.len() {
            for j in i + 1..terminals.len() {
                if terminals[i] == terminals[j] {
                    return Err(BuildTreeError::DuplicateTerminal(terminals[i]));
                }
            }
        }

        // Prim MST over terminals, rooted at the source.
        let n = terminals.len();
        let mut in_tree = vec![false; n];
        let mut best_dist = vec![u32::MAX; n];
        let mut best_link = vec![0usize; n];
        in_tree[0] = true;
        for i in 1..n {
            best_dist[i] = terminals[0].manhattan(terminals[i]);
        }
        let mut mst_edges: Vec<(usize, usize)> = Vec::new();
        for _ in 1..n {
            let (i, _) = best_dist
                .iter()
                .enumerate()
                .filter(|(i, _)| !in_tree[*i])
                .min_by_key(|(_, d)| **d)
                .expect("some terminal remains");
            in_tree[i] = true;
            mst_edges.push((best_link[i], i));
            for j in 1..n {
                if !in_tree[j] {
                    let d = terminals[i].manhattan(terminals[j]);
                    if d < best_dist[j] {
                        best_dist[j] = d;
                        best_link[j] = i;
                    }
                }
            }
        }

        // Embed each MST edge (from the already-rooted endpoint outward)
        // as an L-shaped route; grow a grid-level adjacency map with
        // shared segments merged.
        let mut adjacency: BTreeMap<Point, Vec<Point>> = BTreeMap::new();
        let mut add_edge = |a: Point, b: Point| {
            let list = adjacency.entry(a).or_default();
            if !list.contains(&b) {
                list.push(b);
            }
            let list = adjacency.entry(b).or_default();
            if !list.contains(&a) {
                list.push(a);
            }
        };
        for &(from, to) in &mst_edges {
            let (a, b) = (terminals[from], terminals[to]);
            for w in l_shape(a, b).windows(2) {
                if graph.blockage().is_edge_blocked(w[0], w[1]) {
                    return Err(BuildTreeError::BlockedEdge(w[0], w[1]));
                }
                add_edge(w[0], w[1]);
            }
        }

        // Root the merged graph at the source with a BFS (the union of
        // L-embeddings can contain cycles; the BFS tree keeps shortest
        // hop counts, preserving rectilinear spirit).
        let mut points = vec![source];
        let mut index: BTreeMap<Point, usize> = BTreeMap::from([(source, 0)]);
        let mut parents = vec![usize::MAX];
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(p) = queue.pop_front() {
            let pi = index[&p];
            if let Some(neigh) = adjacency.get(&p) {
                for &q in neigh {
                    if let std::collections::btree_map::Entry::Vacant(e) = index.entry(q) {
                        let qi = points.len();
                        e.insert(qi);
                        points.push(q);
                        parents.push(pi);
                        queue.push_back(q);
                    }
                }
            }
        }

        let mut children = vec![Vec::new(); points.len()];
        for (i, &p) in parents.iter().enumerate() {
            if p != usize::MAX {
                children[p].push(i);
            }
        }
        // Prune branches that lead to no sink (BFS may have kept cycle
        // remnants as dead twigs).
        let sink_set: std::collections::BTreeSet<Point> = sinks.iter().copied().collect();
        let mut keep = vec![false; points.len()];
        for (i, &p) in points.iter().enumerate() {
            if sink_set.contains(&p) {
                let mut cur = i;
                while cur != usize::MAX && !keep[cur] {
                    keep[cur] = true;
                    cur = parents[cur];
                }
            }
        }
        let mut remap = vec![usize::MAX; points.len()];
        let mut new_points = Vec::new();
        let mut new_parents = Vec::new();
        for (i, &k) in keep.iter().enumerate() {
            if k {
                remap[i] = new_points.len();
                new_points.push(points[i]);
                new_parents.push(if parents[i] == usize::MAX {
                    usize::MAX
                } else {
                    remap[parents[i]]
                });
            }
        }
        let mut new_children = vec![Vec::new(); new_points.len()];
        for (i, &p) in new_parents.iter().enumerate() {
            if p != usize::MAX {
                new_children[p].push(i);
            }
        }
        let sinks_idx: Vec<usize> = sinks
            .iter()
            .map(|s| {
                new_points
                    .iter()
                    .position(|p| p == s)
                    .expect("every sink is kept")
            })
            .collect();

        Ok(RoutingTree {
            points: new_points,
            parents: new_parents,
            children: new_children,
            root: 0,
            sinks: sinks_idx,
        })
    }

    /// Number of tree nodes.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the tree has no nodes (never true for built trees).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The grid point of node `i`.
    pub fn point(&self, i: usize) -> Point {
        self.points[i]
    }

    /// The root (source) node index.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Parent of node `i` (`None` for the root).
    pub fn parent(&self, i: usize) -> Option<usize> {
        let p = self.parents[i];
        (p != usize::MAX).then_some(p)
    }

    /// Children of node `i`.
    pub fn children(&self, i: usize) -> &[usize] {
        &self.children[i]
    }

    /// Sink node indices.
    pub fn sinks(&self) -> &[usize] {
        &self.sinks
    }

    /// Total wirelength in grid edges.
    pub fn edge_count(&self) -> usize {
        self.points.len() - 1
    }

    /// Nodes in topological order, leaves first (safe for bottom-up DP).
    pub fn bottom_up(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.len()).collect();
        let mut depth = vec![0usize; self.len()];
        for (i, slot) in depth.iter_mut().enumerate() {
            let mut cur = i;
            let mut d = 0;
            while let Some(p) = self.parent(cur) {
                cur = p;
                d += 1;
            }
            *slot = d;
        }
        order.sort_by_key(|&i| std::cmp::Reverse(depth[i]));
        order
    }

    /// The path (node indices) from the root to node `i`, inclusive.
    pub fn path_from_root(&self, i: usize) -> Vec<usize> {
        let mut path = vec![i];
        let mut cur = i;
        while let Some(p) = self.parent(cur) {
            path.push(p);
            cur = p;
        }
        path.reverse();
        path
    }
}

/// L-shaped grid route from `a` to `b`: horizontal leg first.
fn l_shape(a: Point, b: Point) -> Vec<Point> {
    let mut pts = vec![a];
    let mut cur = a;
    while cur.x != b.x {
        cur = Point::new(if cur.x < b.x { cur.x + 1 } else { cur.x - 1 }, cur.y);
        pts.push(cur);
    }
    while cur.y != b.y {
        cur = Point::new(cur.x, if cur.y < b.y { cur.y + 1 } else { cur.y - 1 });
        pts.push(cur);
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_geom::units::Length;
    use clockroute_geom::BlockageMap;

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    fn open(n: u32) -> GridGraph {
        GridGraph::open(n, n, Length::from_um(500.0))
    }

    #[test]
    fn single_sink_is_an_l_path() {
        let g = open(10);
        let tree = RoutingTree::rectilinear(&g, p(0, 0), &[p(5, 3)]).unwrap();
        assert_eq!(tree.edge_count(), 8);
        assert_eq!(tree.sinks().len(), 1);
        assert_eq!(tree.point(tree.root()), p(0, 0));
        // Every non-root node has exactly one parent; sink is a leaf.
        let sink = tree.sinks()[0];
        assert!(tree.children(sink).is_empty());
    }

    #[test]
    fn two_sinks_share_trunk() {
        let g = open(12);
        // Sinks aligned so their L-embeddings share the horizontal trunk.
        let tree = RoutingTree::rectilinear(&g, p(0, 0), &[p(8, 0), p(8, 4)]).unwrap();
        // Shared trunk 8 + branch 4 = 12 edges (not 8 + 12).
        assert_eq!(tree.edge_count(), 12);
        // Exactly one branch node with two children or the sink chain.
        let branching = (0..tree.len())
            .filter(|&i| tree.children(i).len() > 1)
            .count();
        assert!(branching <= 1);
    }

    #[test]
    fn star_topology() {
        let g = open(15);
        let sinks = [p(14, 7), p(7, 14), p(0, 7), p(7, 0)];
        let tree = RoutingTree::rectilinear(&g, p(7, 7), &sinks).unwrap();
        assert_eq!(tree.sinks().len(), 4);
        for &s in tree.sinks() {
            // Path from root reaches each sink.
            let path = tree.path_from_root(s);
            assert_eq!(path[0], tree.root());
            assert_eq!(*path.last().unwrap(), s);
            // Consecutive path nodes are grid-adjacent.
            for w in path.windows(2) {
                assert!(tree.point(w[0]).is_adjacent(tree.point(w[1])));
            }
        }
    }

    #[test]
    fn bottom_up_order_is_safe() {
        let g = open(12);
        let tree = RoutingTree::rectilinear(&g, p(0, 0), &[p(8, 0), p(8, 4), p(3, 6)]).unwrap();
        let order = tree.bottom_up();
        let mut seen = vec![false; tree.len()];
        for &i in &order {
            for &c in tree.children(i) {
                assert!(seen[c], "child {c} visited after parent {i}");
            }
            seen[i] = true;
        }
        assert_eq!(*order.last().unwrap(), tree.root());
    }

    #[test]
    fn validation_errors() {
        let g = open(8);
        assert_eq!(
            RoutingTree::rectilinear(&g, p(0, 0), &[]),
            Err(BuildTreeError::TooFewTerminals)
        );
        assert_eq!(
            RoutingTree::rectilinear(&g, p(0, 0), &[p(9, 9)]),
            Err(BuildTreeError::TerminalOffGrid(p(9, 9)))
        );
        assert_eq!(
            RoutingTree::rectilinear(&g, p(0, 0), &[p(2, 2), p(2, 2)]),
            Err(BuildTreeError::DuplicateTerminal(p(2, 2)))
        );
        let mut blk = BlockageMap::new(8, 8);
        for y in 0..8 {
            blk.block_edge(p(3, y), p(4, y));
        }
        for x in 0..8 {
            if x != 7 {
                blk.block_edge(p(x, 3), p(x, 4));
            }
        }
        let gb = GridGraph::new(blk, Length::from_um(500.0), Length::from_um(500.0));
        assert!(matches!(
            RoutingTree::rectilinear(&gb, p(0, 0), &[p(7, 0)]),
            Err(BuildTreeError::BlockedEdge(..))
        ));
    }

    #[test]
    fn tree_is_acyclic_and_spanning() {
        let g = open(20);
        let sinks = [p(19, 19), p(19, 0), p(0, 19), p(10, 5), p(5, 10)];
        let tree = RoutingTree::rectilinear(&g, p(0, 0), &sinks).unwrap();
        // |V| = |E| + 1 guarantees a tree given connectivity.
        assert_eq!(tree.len(), tree.edge_count() + 1);
        // All sinks present.
        for s in sinks {
            assert!(tree.sinks().iter().any(|&i| tree.point(i) == s));
        }
    }
}
