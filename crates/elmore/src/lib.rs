//! Electrical substrate: technology parameters, switch-level gate models,
//! RC wire models and the Elmore delay engine.
//!
//! The routing algorithms in `clockroute-core` evaluate millions of partial
//! solutions; every delay number they manipulate is produced by this crate.
//! The model follows Hassoun & Alpert §II exactly:
//!
//! * wires use the **resistance–capacitance π-model** with uniform per-length
//!   R and C for a fixed width and layer assignment ([`Technology`]);
//! * gates (buffers, registers, relay stations, MCFIFOs) use a
//!   **switch-level model**: driver resistance `R(g)`, intrinsic delay
//!   `K(g)` and input capacitance `C(g)` ([`Gate`], [`GateLibrary`]);
//! * path delays use the **Elmore model** ([`delay`]).
//!
//! The crate also contains closed-form buffered-line theory ([`calib`])
//! used both to calibrate the default parameter set against the paper's
//! published anchors and to cross-check the search algorithms in tests.
//!
//! # Example
//!
//! ```
//! use clockroute_elmore::{Technology, GateLibrary, delay::{RouteElem, evaluate}};
//! use clockroute_geom::units::{Length, Time};
//!
//! let tech = Technology::paper_070nm();
//! let lib = GateLibrary::paper_library();
//! let reg = lib.register();
//! // register → 1 mm wire → register
//! let route = [
//!     RouteElem::Gate(reg),
//!     RouteElem::Wire(Length::from_mm(1.0)),
//!     RouteElem::Gate(reg),
//! ];
//! let report = evaluate(&route, &tech, &lib).unwrap();
//! assert_eq!(report.stages.len(), 1);
//! assert!(report.stages[0].delay > Time::ZERO);
//! ```

#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod calib;
pub mod delay;
pub mod gate;
pub mod lower_bound;
pub mod tech;

pub use gate::{Gate, GateId, GateKind, GateLibrary};
pub use tech::Technology;
