//! Protocol-level discrete-event simulation of synthesized routes.
//!
//! The routing algorithms in `clockroute-core` *claim* latencies —
//! `T_φ·(p+1)` for a registered path, `T_s·(Reg_s+1) + T_t·(Reg_t+1)` for
//! a two-domain MCFIFO path. This crate builds the actual hardware
//! protocol out of cycle-level models and measures those latencies (and
//! throughputs, and back-pressure behaviour) by simulation:
//!
//! * [`RegisterPipeline`] — the single-clock registered route of §III;
//! * [`RelayChain`] — Carloni-style relay stations (main + auxiliary
//!   register, one-cycle `Stop` propagation, Fig. 8);
//! * [`McFifo`] — the Chelcea–Nowick mixed-clock FIFO (put/get interfaces
//!   on unrelated clocks, `full`/`empty` flags, Fig. 7);
//! * [`GalsLink`] — the full composition of Fig. 9: source-domain relay
//!   chain → MCFIFO → sink-domain relay chain.
//!
//! The integration tests in the workspace root drive these simulators
//! with the registers/relays placed by RBP and GALS and assert that the
//! simulated first-token latency matches the analytic formulas.
//!
//! # Example
//!
//! ```
//! use clockroute_sim::{RegisterPipeline, StallPattern};
//! use clockroute_geom::units::Time;
//!
//! // 3 registers at a 300 ps clock: first token arrives after 4 cycles.
//! let report = RegisterPipeline::new(3, Time::from_ps(300.0))
//!     .simulate(100, StallPattern::None);
//! assert_eq!(report.first_arrival, Time::from_ps(1200.0));
//! // 100 tokens in 103 cycles: pipeline fill is the only overhead.
//! assert!(report.throughput_tokens_per_cycle > 0.97);
//! ```

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod gals_link;
pub mod mcfifo;
pub mod multicycle;
pub mod pipeline;
pub mod relay;
pub mod wavepipe;

pub use gals_link::{GalsLink, GalsLinkReport};
pub use mcfifo::McFifo;
pub use multicycle::{MultiCycleChannel, MultiCycleReport};
pub use pipeline::{PipelineReport, RegisterPipeline, StallPattern};
pub use relay::{RelayChain, RelayChainReport};
pub use wavepipe::{WavePipe, WavePipeReport};
