//! Benchmark for `crserve` and `crplan`; see `README.md`.

pub mod check;
pub mod gen;
pub mod proc;
pub mod stats;
pub mod trace;
pub mod workload;
