//! Optimal simultaneous routing and synchronizer insertion — the core
//! algorithms of Hassoun & Alpert, *“Optimal Path Routing in Single- and
//! Multiple-Clock Domain Systems”* (IEEE TCAD, 2003).
//!
//! Three searches over a blocked routing grid, all optimal and
//! polynomial:
//!
//! | Algorithm | Problem | Entry point |
//! |-----------|---------|-------------|
//! | fast path | minimum Elmore-delay buffered path (Zhou et al. framework) | [`FastPathSpec`] |
//! | RBP | minimum cycle-latency buffered + *registered* path, single clock domain (Problem 1) | [`RbpSpec`] |
//! | GALS | minimum-latency path across two clock domains via an MCFIFO (Problem 2) | [`GalsSpec`] |
//!
//! Plus two documented extensions: transparent-latch routing with time
//! borrowing ([`latch`]) and exhaustive reference oracles used to verify
//! optimality on small instances (the `reference` module).
//!
//! Every search accepts an optional [`SearchBudget`] (wall-clock,
//! candidate-count and arena-memory caps) and fails fast with
//! [`RouteError::BudgetExceeded`] when it trips; the [`failpoint`]
//! module provides deterministic fault injection for resilience tests.
//!
//! # Example
//!
//! ```
//! use clockroute_core::{FastPathSpec, RbpSpec};
//! use clockroute_elmore::{Technology, GateLibrary};
//! use clockroute_grid::GridGraph;
//! use clockroute_geom::{Point, units::{Length, Time}};
//!
//! let graph = GridGraph::open(30, 30, Length::from_um(500.0));
//! let tech = Technology::paper_070nm();
//! let lib = GateLibrary::paper_library();
//!
//! // Unconstrained minimum delay…
//! let fp = FastPathSpec::new(&graph, &tech, &lib)
//!     .source(Point::new(0, 0))
//!     .sink(Point::new(29, 29))
//!     .solve()?;
//!
//! // …and the registered route at a 400 ps clock.
//! let rbp = RbpSpec::new(&graph, &tech, &lib)
//!     .source(Point::new(0, 0))
//!     .sink(Point::new(29, 29))
//!     .period(Time::from_ps(400.0))
//!     .solve()?;
//! assert!(rbp.latency() >= fp.delay());
//! # Ok::<(), clockroute_core::RouteError>(())
//! ```

#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

mod budget;
pub mod bytes;
pub mod canon;
mod ctx;
pub mod drc;
mod engine;
mod error;
pub mod failpoint;
mod fastpath;
mod gals;
mod goal;
pub mod json;
pub mod latch;
pub mod lockcheck;
mod rbp;
pub mod reference;
mod result;
mod search;
mod stats;
pub mod telemetry;

pub use budget::{BudgetMeter, SearchBudget, SearchStage};
pub use engine::DialQueue;
pub use error::RouteError;
pub use fastpath::FastPathSpec;
pub use gals::GalsSpec;
pub use latch::{LatchSolution, LatchSpec};
pub use lockcheck::{LockRank, OrderedCondvar, OrderedMutex};
pub use rbp::{RbpSpec, TieBreak, WaveTrace};
pub use result::{FastPathSolution, GalsSolution, RbpSolution, RoutedPath};
pub use stats::{SearchStats, TouchedRegion};
pub use telemetry::{MetricsRecorder, Telemetry, TelemetryHandle, TelemetryShard, TraceWriter};

#[cfg(test)]
mod send_audit {
    //! The parallel batch planner moves specs and solutions across scoped
    //! worker threads; these assertions pin down the auto-traits it relies
    //! on so an accidental `Rc`/`RefCell` in a spec becomes a compile
    //! error here rather than a planner build failure.
    use super::*;

    fn assert_send<T: Send>() {}
    fn assert_sync<T: Sync>() {}

    #[test]
    fn specs_and_results_cross_threads() {
        assert_send::<FastPathSpec<'static>>();
        assert_send::<RbpSpec<'static>>();
        assert_send::<GalsSpec<'static>>();
        assert_send::<latch::LatchSpec<'static>>();
        assert_sync::<FastPathSpec<'static>>();
        assert_send::<FastPathSolution>();
        assert_send::<RbpSolution>();
        assert_send::<GalsSolution>();
        assert_send::<RoutedPath>();
        assert_send::<RouteError>();
        assert_send::<SearchStats>();
        assert_send::<SearchBudget>();
        assert_sync::<SearchBudget>();
        assert_send::<failpoint::ArmedSet>();
        assert_send::<TelemetryHandle<'static>>();
        assert_sync::<TelemetryHandle<'static>>();
        assert_send::<MetricsRecorder>();
        assert_sync::<MetricsRecorder>();
        assert_send::<TelemetryShard>();
        assert_sync::<TelemetryShard>();
    }
}
