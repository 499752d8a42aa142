//! Physical units, planar geometry and floorplan modelling for `clockroute`.
//!
//! This crate is the bottom layer of the `clockroute` workspace. It provides:
//!
//! * [`units`] — zero-cost newtypes for the physical quantities that appear in
//!   Elmore delay computations ([`Time`], [`Resistance`], [`Capacitance`],
//!   [`Length`]) with dimension-checked arithmetic (`Ω × fF → ps`,
//!   `Ω/µm × µm → Ω`, …).
//! * [`Point`] / [`Rect`] — integer grid coordinates and axis-aligned
//!   rectangles used to describe chip floorplans.
//! * [`BlockageMap`] — which grid nodes are covered by *placement obstacles*
//!   (no gate may be inserted there) and which grid edges are removed by
//!   *wiring blockages* (no route may pass), exactly as modelled in
//!   Hassoun & Alpert, §II.
//! * [`Floorplan`] — a chip outline plus a set of IP / macro blocks that
//!   induce a [`BlockageMap`] on a routing grid of a chosen pitch.
//! * [`gen`] — seeded, reproducible random floorplan generators used by the
//!   test-suite and the benchmark harness.
//!
//! # Example
//!
//! ```
//! use clockroute_geom::{Floorplan, Rect, Point, BlockKind, units::Length};
//!
//! // A 25 mm × 25 mm die with one hard IP block that blocks both
//! // placement and wiring, rasterised on a 0.125 mm routing grid.
//! let mut fp = Floorplan::new(Length::from_mm(25.0), Length::from_mm(25.0));
//! fp.add_block(
//!     Rect::new(Point::new(40, 40), Point::new(80, 90)),
//!     BlockKind::Hard,
//! );
//! let map = fp.rasterize(200, 200);
//! assert!(map.is_node_blocked(Point::new(50, 50)));
//! assert!(!map.is_node_blocked(Point::new(5, 5)));
//! ```

#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod blockage;
pub mod floorplan;
pub mod gen;
pub mod point;
pub mod rect;
pub mod units;

pub use blockage::{BlockageMap, EdgeDir};
pub use floorplan::{BlockKind, Floorplan, PlacedBlock};
pub use point::Point;
pub use rect::Rect;
pub use units::{CapPerLength, Capacitance, Length, ResPerLength, Resistance, Time};
