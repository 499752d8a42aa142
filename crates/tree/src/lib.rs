//! Concurrent register and repeater insertion on **routing trees** — the
//! multi-sink companion to the paper's path algorithms.
//!
//! Hassoun & Alpert solve the *path* problem; for multi-fanout nets they
//! cite Cocchini's extension of van Ginneken's bottom-up dynamic
//! programming, which “optimally places registers and repeaters when
//! given a tree routing topology” (§I). This crate implements exactly
//! that pipeline:
//!
//! 1. [`RoutingTree`] — a Steiner-style routing tree over the grid: a
//!    rectilinear MST over the terminals, embedded edge-by-edge with
//!    L-shaped routes, with shared segments merged into Steiner branches
//!    ([`RoutingTree::rectilinear`]);
//! 2. [`TreeInsertionSpec`] — bottom-up Pareto DP over `(c, d)` states
//!    per register-count bucket: wires accumulate Elmore delay, buffers
//!    and registers may be inserted at unblocked nodes, branch nodes
//!    merge child states (`c = Σcᵢ`, `d = max dᵢ`), and every
//!    register-to-register stage obeys `stage ≤ T_φ` — the same clock
//!    feasibility rule as RBP;
//! 3. [`TreeSolution`] — the labelling, per-sink cycle latencies, and
//!    total synchronizer count (minimised, with delay as tie-break).
//!
//! On a degenerate tree (a single path) the result provably coincides
//! with RBP — asserted in the tests.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod insertion;
pub mod topology;

pub use insertion::{TreeInsertionSpec, TreeSolution};
pub use topology::{BuildTreeError, RoutingTree};
