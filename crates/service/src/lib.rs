//! `clockroute-service` — a long-running routing service around the
//! deterministic planner.
//!
//! The `crserve` binary answers line-oriented JSON requests (stdio or
//! TCP): each `route` request carries a `.cr` scenario, and the
//! response embeds exactly the per-net report a cold `crplan --quiet`
//! run would print. Three request paths produce that report:
//!
//! * **hit** — the scenario's canonical hash ([`keys`]) matches a
//!   cached solve byte-for-byte; no planning happens.
//! * **warm** — same die/grid/tech/nets as a cached solve but a
//!   blockage delta of at most 4096 grid points; only nets whose search
//!   footprints intersect the delta are re-routed
//!   ([`clockroute_plan::Planner::plan_warm`]).
//! * **cold** — a full solve under the service's admission budget.
//! * **coalesced** — a concurrent request for a scenario already being
//!   solved; single-flight ([`shard`]) blocks it on the leader's solve
//!   and answers it from the leader's entry once durable.
//!
//! All four are byte-identical by construction and by test, for every
//! `--shards` value. The cache is sharded across per-key locks
//! ([`shard::ShardedCache`]); the TCP front-end runs a bounded worker
//! pool ([`pool`]) instead of a thread per connection. Admission
//! control ([`admission`]) bounds concurrent solves and scenario size,
//! answering `busy` (with a deterministic `retry_after_ms` hint)
//! instead of queueing unboundedly; a panicking solve (fault injection
//! included) costs one request, never the process.
//!
//! The service is also **crash-safe**: with a state directory
//! configured, every insert is appended to a checksummed snapshot log
//! ([`persist`]) and replayed on restart — each record re-verified
//! structurally like a cache hit, torn or corrupt records dropped.
//! Untrusted streams are read only through the bounded [`frame`]
//! reader (crlint CR007), and SIGINT/SIGTERM drain gracefully
//! ([`server::install_signal_handlers`]). Clients pace themselves with
//! the deterministic [`retry`] backoff policy.
//!
//! Every lock in the crate is a ranked
//! [`clockroute_core::lockcheck::OrderedMutex`]
//! (`Pool < Pending < Cache < Persist < Telemetry`), so the documented
//! lock order — pending before cache, never two shards, waits hold
//! exactly the waited lock — is asserted at runtime in debug/lockcheck
//! builds and statically by crlint CR008–CR010.
//!
//! See DESIGN.md §12 for the protocol grammar and the warm-start
//! soundness argument, §13 for the persistence format and the shutdown
//! state machine, §14 for the sharding, single-flight, and lock-order
//! story, and §16 for the rank lattice and what the lockcheck gates
//! prove.

pub mod admission;
pub mod cache;
pub mod frame;
pub mod keys;
pub mod persist;
pub mod pool;
pub mod protocol;
pub mod retry;
pub mod server;
pub mod shard;

pub use admission::{Admission, Rejection};
pub use cache::{ResultCache, Solved};
pub use frame::{Frame, FrameReader};
pub use keys::{base_key, block_delta, scenario_key};
pub use retry::RetryPolicy;
pub use server::{install_signal_handlers, Service, ServiceConfig};
pub use shard::{Lookup, ShardedCache};
