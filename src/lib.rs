//! # clockroute
//!
//! Optimal simultaneous **routing + buffer insertion + synchronizer
//! insertion** for single- and multiple-clock-domain system-on-chip
//! designs — a from-scratch Rust reproduction of
//!
//! > S. Hassoun and C. J. Alpert, *“Optimal Path Routing in Single- and
//! > Multiple-Clock Domain Systems”*, IEEE Trans. Computer-Aided Design,
//! > vol. 22, 2003.
//!
//! The workspace implements three optimal polynomial-time dynamic-
//! programming algorithms over a routing grid graph with physical and
//! wiring blockages:
//!
//! * **fast path** — minimum Elmore-delay buffered path (Zhou et al.,
//!   the framework the paper builds on);
//! * **RBP** — minimum cycle-latency *registered*-buffered path in a
//!   single clock domain (paper Problem 1, Fig. 5);
//! * **GALS** — minimum-latency path crossing two clock domains through a
//!   mixed-clock FIFO with relay stations (paper Problem 2, Fig. 12).
//!
//! This crate is a facade that re-exports the workspace layers:
//!
//! | Layer | Crate | Contents |
//! |-------|-------|----------|
//! | geometry | [`geom`] | units, points, rectangles, blockage maps, floorplans |
//! | electrical | [`elmore`] | technology, gate models, Elmore delay engine |
//! | grid | [`grid`] | routing grid graph, baseline maze routing, rendering |
//! | algorithms | [`core`] | fast path, RBP, GALS, latch extension, oracles |
//! | protocol | [`sim`] | discrete-event simulation of the synthesized routes |
//! | planning | [`plan`] | sequential multi-net planning with resource reservation |
//! | batch routing | [`flow`] | congestion-aware capacitated batch mode |
//! | trees | [`tree`] | Cocchini-style register/repeater insertion on routing trees |
//!
//! # Quick start
//!
//! Route a net across a 10 mm die at a 300 ps clock, inserting buffers and
//! registers optimally:
//!
//! ```
//! use clockroute::prelude::*;
//!
//! // 40×40 grid over a 10 mm × 10 mm die (0.25 mm pitch).
//! let fp = Floorplan::new(Length::from_mm(10.0), Length::from_mm(10.0));
//! let graph = GridGraph::from_floorplan(&fp, 40, 40);
//! let tech = Technology::paper_070nm();
//! let lib = GateLibrary::paper_library();
//!
//! let spec = RbpSpec::new(&graph, &tech, &lib)
//!     .source(Point::new(0, 0))
//!     .sink(Point::new(39, 39))
//!     .period(Time::from_ps(300.0));
//! let solution = spec.solve().expect("a feasible route exists");
//! println!(
//!     "latency {} using {} registers and {} buffers",
//!     solution.latency(),
//!     solution.register_count(),
//!     solution.buffer_count()
//! );
//! # assert!(solution.register_count() > 0);
//! ```

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub use clockroute_core as core;
pub use clockroute_elmore as elmore;
pub use clockroute_flow as flow;
pub use clockroute_geom as geom;
pub use clockroute_grid as grid;
pub use clockroute_plan as plan;
pub use clockroute_sim as sim;
pub use clockroute_tree as tree;

/// Convenient single-import surface for applications.
pub mod prelude {
    pub use clockroute_core::{
        FastPathSpec, GalsSolution, GalsSpec, RbpSolution, RbpSpec, RouteError, RoutedPath,
        SearchStats,
    };
    pub use clockroute_elmore::{Gate, GateId, GateKind, GateLibrary, Technology};
    pub use clockroute_geom::units::{Capacitance, Length, Resistance, Time};
    pub use clockroute_geom::{BlockKind, BlockageMap, Floorplan, Point, Rect};
    pub use clockroute_grid::{GridGraph, GridPath};
}
