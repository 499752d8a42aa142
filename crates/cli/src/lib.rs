//! Library side of the `clockroute` CLI: the scenario file format and
//! the shared plan report renderer.
//!
//! See [`scenario`] for the format specification and parser and
//! [`report`] for the per-net report text. The `crplan` binary
//! (`src/main.rs`) reads a scenario, plans every net through
//! [`clockroute_plan::Planner`], and prints the report; `crserve`
//! (crates/service) parses the same format off the wire and returns
//! the same report bytes.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod report;
pub mod scenario;
