//! The routing service: request dispatch, cache orchestration, and the
//! stdio / TCP front-ends.
//!
//! Threads are created in exactly two modules of this crate — here and
//! [`crate::pool`] (crlint CR004 enforces that); everything
//! request-scoped funnels through [`Service::handle_line`], which is
//! plain sequential code so the stdio and TCP front-ends — and the
//! tests — exercise exactly the same path. Concurrency composes in
//! layers (DESIGN.md §14): the bounded worker pool caps connection
//! threads, [`Admission`] caps concurrent solves, each admitted solve
//! runs the planner with [`ServiceConfig::jobs`] workers under the
//! server-global `SearchBudget`, and the sharded single-flight cache
//! ([`crate::shard::ShardedCache`]) makes duplicate concurrent
//! requests cost one solve.
//!
//! The response contract (asserted by the crate's property tests): for
//! a given scenario, the `route` response is byte-identical whether it
//! was computed cold, answered from the exact-match cache, or
//! warm-started from a near-miss entry — and identical to what a
//! freshly spawned `crplan --quiet` prints for the same file.

use crate::admission::{Admission, RequestTimer};
use crate::cache::{Solved, WarmPrior};
use crate::frame::{self, Frame, FrameReader};
use crate::keys::{base_key, scenario_key};
use crate::persist::{self, LogSlot, SnapshotLog};
use crate::pool;
use crate::protocol::{self, Op, Request};
use crate::shard::{Lookup, ShardedCache};
use clockroute_cli::{report, scenario};
use clockroute_core::{lockcheck, MetricsRecorder, Telemetry, TelemetryShard};
use clockroute_elmore::GateLibrary;
use clockroute_grid::GridGraph;
use clockroute_plan::{Planner, SharedTelemetry, TracedPlan};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// Tunables for a [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads per solve (plan output is identical for any
    /// value).
    pub jobs: usize,
    /// Result cache capacity in scenarios (0 disables caching).
    pub cache_cap: usize,
    /// Per-net search deadline in milliseconds (`None` = unlimited).
    /// Server-global so that the budget — which shapes degraded
    /// results — is part of the cache key's implicit context.
    pub budget_ms: Option<u64>,
    /// Largest accepted scenario, in nets.
    pub max_nets: usize,
    /// Concurrent solve limit; excess requests get `busy`.
    pub max_inflight: usize,
    /// Largest accepted request line in bytes; longer lines get one
    /// `malformed` response and are discarded unbuffered.
    pub max_line: usize,
    /// Result-cache shard count (0 = auto: available parallelism).
    /// Responses are byte-identical for every value; sharding only
    /// changes which lock a key contends on.
    pub shards: usize,
    /// State directory for crash-consistent cache snapshots (`None`
    /// disables persistence).
    pub state: Option<PathBuf>,
}

/// Largest blockage delta (in grid points) eligible for warm-starting;
/// larger deltas solve cold.
const WARM_MAX_DIRTY: usize = 4096;

/// Shutdown-poll granularity: TCP reads time out this often so idle
/// connections notice a drain within one interval.
const POLL_INTERVAL: Duration = Duration::from_millis(50);

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            jobs: 1,
            cache_cap: 64,
            budget_ms: None,
            max_nets: 512,
            max_inflight: 4,
            max_line: 1 << 20,
            shards: 0,
            state: None,
        }
    }
}

/// How a `route` request was answered — reported in the response's
/// `cache` field and mirrored by the `service.*` counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CachePath {
    Hit,
    Coalesced,
    Warm,
    Cold,
}

impl CachePath {
    fn label(self) -> &'static str {
        match self {
            CachePath::Hit => "hit",
            CachePath::Coalesced => "coalesced",
            CachePath::Warm => "warm",
            CachePath::Cold => "cold",
        }
    }
}

/// A long-running routing service. Shared-state layout: the result
/// cache sharded across per-key locks with single-flight coalescing
/// (locks held only for lookups and inserts, never across a solve),
/// admission as lock-free atomics, telemetry in a shared recorder.
/// `&Service` is `Sync`, so one instance serves any number of
/// connection threads.
#[derive(Debug)]
pub struct Service {
    config: ServiceConfig,
    cache: ShardedCache,
    admission: Admission,
    metrics: Arc<MetricsRecorder>,
    shutdown: AtomicBool,
    snapshot_log: LogSlot,
}

/// Set by the process signal handlers (SIGINT/SIGTERM); every service
/// in the process treats it as a shutdown request. An ordinary atomic,
/// not `static mut`, so the handler is data-race free.
static SIGNALLED: AtomicBool = AtomicBool::new(false);

/// `true` once SIGINT or SIGTERM has been delivered (only ever after
/// [`install_signal_handlers`] ran).
pub fn signalled() -> bool {
    SIGNALLED.load(Ordering::Acquire)
}

/// Routes SIGINT and SIGTERM to a flag ([`signalled`]) instead of the
/// default kill disposition, turning both into graceful drains. Uses
/// raw `signal(2)` so the workspace stays dependency-free; the handler
/// body is a single atomic store, which is async-signal-safe.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        SIGNALLED.store(true, Ordering::Release);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    // SAFETY: `signal` is only given a handler that performs one atomic
    // store; installing it cannot fail in a way that leaves the process
    // worse off than the default disposition.
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

/// Non-unix fallback: no signals to install; `shutdown` requests are
/// the only drain trigger.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

impl Service {
    /// A fresh service. With [`ServiceConfig::state`] set, the cache is
    /// rebuilt from the snapshot log in that directory: every record is
    /// checksum- and structure-verified like a cache hit, corrupt or
    /// torn records are dropped (counted in `service.persist.dropped`),
    /// and the surviving set is compacted back to disk before serving
    /// starts.
    pub fn new(config: ServiceConfig) -> Service {
        let admission = Admission::new(config.max_inflight, config.max_nets, config.budget_ms);
        let metrics = Arc::new(MetricsRecorder::new());
        // Lock-order violations panic the offending thread; routing
        // them through the aggregate recorder first means a postmortem
        // metrics dump shows `lockcheck.violations` alongside whatever
        // else the request was doing. Global last-install-wins: one
        // process runs one service outside of tests.
        lockcheck::install_sink(Some(metrics.clone()));
        let shards = if config.shards == 0 {
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            config.shards
        };
        let cache = ShardedCache::new(shards, config.cache_cap);
        let snapshot_log = match &config.state {
            Some(dir) => Self::recover(dir, &cache, &metrics),
            None => None,
        };
        Service {
            cache,
            admission,
            metrics,
            shutdown: AtomicBool::new(false),
            snapshot_log: LogSlot::new(snapshot_log),
            config,
        }
    }

    /// How many cache shards this instance runs (resolved from
    /// [`ServiceConfig::shards`], where 0 means auto).
    pub fn shard_count(&self) -> usize {
        self.cache.shard_count()
    }

    /// Replays the snapshot log into `cache`, compacts the survivors,
    /// and reopens the log for appending. Any persistence failure
    /// degrades to running without persistence (counted, never fatal):
    /// a service that promises to stay up must not die over its cache.
    fn recover(dir: &Path, cache: &ShardedCache, metrics: &MetricsRecorder) -> Option<SnapshotLog> {
        match persist::load(dir) {
            Ok((entries, stats)) => {
                metrics.counter("service.persist.recovered", stats.recovered as u64);
                metrics.counter("service.persist.dropped", stats.dropped as u64);
                for e in entries {
                    // Replay in LRU order: insert order reproduces both
                    // contents and eviction order, a smaller cap keeps
                    // the most recently used survivors, and the sharded
                    // insert routes each key to the shard live traffic
                    // would use. Duplicate-key records collapse
                    // last-wins: a later insert replaces the slot, so
                    // neither `len` nor the eviction count ever counts
                    // one fingerprint twice.
                    cache.insert(e.key, e.base, e.scenario, Arc::new(e.solved));
                }
                let payloads: Vec<Vec<u8>> = cache
                    .export()
                    .into_iter()
                    .map(|(key, base, scenario, solved)| {
                        persist::encode_entry(key, base, &scenario, &solved)
                    })
                    .collect();
                if persist::rewrite(dir, &payloads).is_err() {
                    metrics.counter("service.persist.errors", 1);
                }
                match SnapshotLog::open(dir) {
                    Ok(log) => Some(log),
                    Err(_) => {
                        metrics.counter("service.persist.errors", 1);
                        None
                    }
                }
            }
            Err(_) => {
                metrics.counter("service.persist.errors", 1);
                None
            }
        }
    }

    /// The aggregated telemetry recorder (service counters plus every
    /// solve's planner counters, replayed shard by shard).
    pub fn metrics(&self) -> &MetricsRecorder {
        &self.metrics
    }

    /// `true` once a `shutdown` request has been accepted or a handled
    /// signal (SIGINT/SIGTERM) arrived.
    pub fn is_shut_down(&self) -> bool {
        self.shutdown.load(Ordering::Acquire) || signalled()
    }

    /// Compacts the in-memory cache to the state directory (temp file +
    /// atomic rename), replacing the append log. A no-op without a
    /// configured state directory. Called on graceful shutdown; safe to
    /// call at any time.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from the rewrite; the previous snapshot
    /// file is untouched when that happens.
    pub fn snapshot(&self) -> io::Result<()> {
        let Some(dir) = &self.config.state else {
            return Ok(());
        };
        let payloads: Vec<Vec<u8>> = self
            .cache
            .export()
            .into_iter()
            .map(|(key, base, scenario, solved)| {
                persist::encode_entry(key, base, &scenario, &solved)
            })
            .collect();
        persist::rewrite(dir, &payloads)?;
        // The old handle points at the renamed-over inode; reopen so
        // later appends land in the new file.
        self.snapshot_log.replace(SnapshotLog::open(dir)?);
        Ok(())
    }

    /// Handles one request line and returns the one-line JSON response.
    pub fn handle_line(&self, line: &str) -> String {
        self.metrics.counter("service.requests", 1);
        let request = match protocol::parse_request(line) {
            Ok(r) => r,
            Err(e) => {
                self.metrics.counter("service.malformed", 1);
                return protocol::malformed(&e);
            }
        };
        let Request { id, op } = request;
        let id = id.as_deref();
        match op {
            Op::Ping => protocol::pong(id),
            Op::Stats => {
                // Last-value, so eviction and compaction shrink are
                // visible; the high-water mark keeps its own gauge.
                let len = self.cache.len() as u64;
                self.metrics.gauge_set("service.cache.len", len);
                self.metrics.gauge_max("service.cache.len.max", len);
                protocol::stats(id, &self.metrics.counters(), &self.metrics.gauges())
            }
            Op::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                protocol::bye(id)
            }
            Op::Route { scenario } => self.route(id, &scenario),
        }
    }

    fn route(&self, id: Option<&str>, text: &str) -> String {
        let timer = RequestTimer::start();
        let parsed = match scenario::parse(text) {
            Ok(s) => s,
            Err(e) => {
                self.metrics.counter("service.errors", 1);
                return protocol::error(id, &format!("scenario: {e}"));
            }
        };
        let permit = match self.admission.try_admit(parsed.nets.len()) {
            Ok(p) => p,
            Err(rejection) => {
                self.metrics.counter("service.rejects", 1);
                return protocol::busy(id, &rejection.reason(), rejection.retry_after_ms());
            }
        };

        let key = scenario_key(&parsed);
        let base = base_key(&parsed);
        let (solved, path) = match self.cache.lookup_or_claim(key, &parsed) {
            Lookup::Hit(solved) => (solved, CachePath::Hit),
            // A concurrent leader solved this key while we waited; its
            // entry was inserted and persisted before the slot dropped,
            // so echoing it keeps "answered ⟹ durable".
            Lookup::Coalesced(solved) => (solved, CachePath::Coalesced),
            Lookup::Lead(slot) => {
                let prior = self.cache.find_warm(base, &parsed, WARM_MAX_DIRTY);
                let path = if prior.is_some() {
                    CachePath::Warm
                } else {
                    CachePath::Cold
                };
                let traced = match self.solve(&parsed, prior) {
                    Ok(traced) => traced,
                    Err(message) => {
                        // `slot` drops here, so a coalesced waiter
                        // retries as the new leader instead of echoing
                        // a failure.
                        self.metrics.counter("service.errors", 1);
                        return protocol::error(id, &message);
                    }
                };
                let solved = Arc::new(self.render(traced));
                // Encode before the insert: the append payload is a
                // pure function of the entry, and the shard lock must
                // stay short.
                let record = self
                    .persists()
                    .then(|| persist::encode_entry(key, base, &parsed, &solved));
                let (evicted, _) = slot.insert(base, parsed, Arc::clone(&solved));
                if evicted > 0 {
                    self.metrics.counter("service.evictions", evicted);
                }
                let len = self.cache.len() as u64;
                self.metrics.gauge_set("service.cache.len", len);
                self.metrics.gauge_max("service.cache.len.max", len);
                if let Some(payload) = record {
                    self.append_record(&payload);
                    // The admission permit is still held here: inflight
                    // accounting must cover the fsync window, or a
                    // burst could stack unbounded threads inside
                    // persistence while the gate reads 0.
                    self.metrics
                        .gauge_max("service.persist.inflight", self.admission.inflight() as u64);
                }
                // Entry inserted and durable: dropping the slot now
                // releases every coalesced waiter.
                drop(slot);
                (solved, path)
            }
        };

        match path {
            CachePath::Hit => self.metrics.counter("service.hits", 1),
            CachePath::Coalesced => self.metrics.counter("service.coalesced", 1),
            CachePath::Warm => {
                self.metrics.counter("service.misses", 1);
                self.metrics.counter("service.warm_reuse", 1);
            }
            CachePath::Cold => self.metrics.counter("service.misses", 1),
        }
        self.metrics
            .span_ns("service.request.ns", timer.elapsed_ns());
        // Held from admission through solve, insert, and the fsynced
        // append — the whole durability window (DESIGN.md §14).
        drop(permit);
        protocol::route_ok(
            id,
            path.label(),
            solved.routed,
            solved.failed,
            solved.degraded,
            &solved.report,
        )
    }

    /// Runs the planner (cold or warm-started) under `catch_unwind`, so
    /// a panicking solve (e.g. an armed failpoint) costs one request,
    /// not the service.
    fn solve(
        &self,
        parsed: &scenario::Scenario,
        prior: Option<WarmPrior>,
    ) -> Result<TracedPlan, String> {
        let shard = Arc::new(TelemetryShard::new());
        let shard_for_solve = shard.clone();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let (gw, gh) = parsed.grid;
            let graph = GridGraph::from_floorplan(&parsed.floorplan, gw, gh);
            let planner = Planner::new(graph, parsed.tech, GateLibrary::paper_library())
                .reserve_routes(parsed.reserve)
                .budget(self.admission.budget())
                .jobs(self.config.jobs)
                .telemetry(SharedTelemetry::new(shard_for_solve));
            match prior {
                Some(w) => planner.plan_warm(&parsed.nets, &w.solved.traced, &w.dirty),
                None => planner.plan_traced(&parsed.nets),
            }
        }));
        shard.replay_into(&*self.metrics);
        outcome.map_err(|panic| {
            let what = panic
                .downcast_ref::<&str>()
                .copied()
                .map(str::to_owned)
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown panic".to_owned());
            format!("internal: solve panicked: {what}")
        })
    }

    /// `true` when a snapshot log is live (persistence configured and
    /// healthy).
    fn persists(&self) -> bool {
        self.snapshot_log.is_live()
    }

    /// Appends one encoded entry to the snapshot log. Failures are
    /// counted (`service.persist.errors`) and otherwise ignored — a
    /// full disk degrades durability, never availability; the log
    /// itself rolled back the torn tail.
    fn append_record(&self, payload: &[u8]) {
        if self.snapshot_log.append(payload).is_err() {
            self.metrics.counter("service.persist.errors", 1);
        }
    }

    fn render(&self, traced: TracedPlan) -> Solved {
        let plan = traced.plan();
        Solved {
            report: report::plan_report(plan),
            routed: plan.routed().count(),
            failed: plan.failed().count(),
            degraded: plan.degraded().count(),
            traced,
        }
    }

    /// Serves one line-oriented connection (stdio or a TCP stream)
    /// until EOF or shutdown, through the bounded [`FrameReader`] —
    /// the only sanctioned way to read an untrusted stream in this
    /// crate (crlint CR007). Blank lines are ignored; every request
    /// line gets exactly one response line, flushed immediately.
    /// Oversized lines get one `malformed` response and are discarded
    /// without buffering. A timed-out read (TCP reads time out every
    /// 50 ms) just re-checks the shutdown flag, which is how idle
    /// connections notice a drain.
    ///
    /// # Errors
    ///
    /// Propagates read/write errors on the underlying streams (never a
    /// parse or protocol problem — those are answered in-band).
    pub fn serve<R: Read, W: Write>(&self, reader: R, mut writer: W) -> io::Result<()> {
        let mut frames = FrameReader::new(reader, self.config.max_line);
        loop {
            match frames.next_frame()? {
                Frame::Line(line) => {
                    if line.trim().is_empty() {
                        continue;
                    }
                    frame::write_line(&mut writer, &self.handle_line(&line))?;
                    if self.is_shut_down() {
                        return Ok(());
                    }
                }
                Frame::Oversized { limit } => {
                    self.metrics.counter("service.malformed", 1);
                    let message = format!("request line exceeds {limit} bytes");
                    frame::write_line(&mut writer, &protocol::malformed(&message))?;
                }
                Frame::Idle => {
                    if self.is_shut_down() {
                        return Ok(());
                    }
                }
                Frame::Eof { partial } => {
                    // A half-written final line (no newline before the
                    // peer died) still gets its one response; then the
                    // connection closes cleanly.
                    if let Some(tail) = partial {
                        if !tail.trim().is_empty() {
                            frame::write_line(&mut writer, &self.handle_line(&tail))?;
                        }
                    }
                    return Ok(());
                }
            }
        }
    }

    /// Accept loop: a bounded worker pool (never one thread per
    /// connection) drains accepted streams from a bounded queue, so
    /// thread count and queued memory are functions of configuration,
    /// not offered load. The pool is sized against
    /// [`ServiceConfig::max_inflight`] — every solve slot can stay busy
    /// while two spare workers keep control traffic and `busy`
    /// rejections flowing; connections beyond that wait first in the
    /// queue, then in the OS accept backlog. Non-blocking accept so a
    /// `shutdown` request on any connection stops the listener
    /// promptly; connections read with a 50 ms timeout so idle ones
    /// observe the drain too. Returns once shutdown is observed and all
    /// pooled connections finish.
    ///
    /// # Errors
    ///
    /// Propagates fatal `accept` errors (per-connection I/O errors only
    /// end that connection).
    pub fn serve_listener(&self, listener: &TcpListener) -> io::Result<()> {
        listener.set_nonblocking(true)?;
        let workers = self.config.max_inflight.saturating_add(2);
        pool::run(
            workers,
            workers,
            |stream: TcpStream| {
                // Best-effort: a connection without a timeout still
                // serves, it just cannot notice a drain until its next
                // complete frame.
                let _ = stream.set_read_timeout(Some(POLL_INTERVAL));
                // Best-effort too: every response leaves in one write,
                // but a large report spans several segments, and Nagle
                // would hold its last one until the client's (delayed)
                // ACK of the others.
                let _ = stream.set_nodelay(true);
                if let Ok(write_half) = stream.try_clone() {
                    // Connection errors end the connection, never the
                    // service.
                    let _ = self.serve(stream, write_half);
                }
            },
            |queue| loop {
                if self.is_shut_down() {
                    return Ok(());
                }
                match listener.accept() {
                    Ok((stream, _addr)) => {
                        self.metrics
                            .gauge_max("service.pool.backlog", queue.depth() as u64 + 1);
                        if !queue.push(stream) {
                            return Ok(());
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                        thread::sleep(Duration::from_millis(5));
                    }
                    Err(e) => return Err(e),
                }
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_core::json::validate_json;

    const SCENARIO: &str =
        "die 10mm 10mm\\ngrid 20 20\\nblock hard 8 8 11 11\\nnet comb name=a src=0,0 dst=19,19\\nnet reg name=b src=0,10 dst=19,10 period=2000\\n";

    fn route_line(id: &str, scenario: &str) -> String {
        format!("{{\"id\":\"{id}\",\"op\":\"route\",\"scenario\":\"{scenario}\"}}")
    }

    #[test]
    fn cold_then_hit_same_bytes() {
        let service = Service::new(ServiceConfig::default());
        let cold = service.handle_line(&route_line("c", SCENARIO));
        let hit = service.handle_line(&route_line("c", SCENARIO));
        assert!(cold.contains("\"cache\":\"cold\""), "{cold}");
        assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
        assert_eq!(
            cold.replace("\"cache\":\"cold\"", ""),
            hit.replace("\"cache\":\"hit\"", ""),
            "identical apart from the cache label"
        );
        assert_eq!(service.metrics().counter_value("service.hits"), 1);
        assert_eq!(service.metrics().counter_value("service.misses"), 1);
    }

    #[test]
    fn whitespace_variant_is_a_cache_hit() {
        let service = Service::new(ServiceConfig::default());
        let a = service.handle_line(&route_line("a", SCENARIO));
        let noisy = SCENARIO.replace("\\n", "   # note\\r\\n");
        let b = service.handle_line(&route_line("a", &noisy));
        assert!(a.contains("\"cache\":\"cold\""));
        assert!(b.contains("\"cache\":\"hit\""), "{b}");
    }

    #[test]
    fn malformed_and_bad_scenarios_get_error_responses() {
        let service = Service::new(ServiceConfig::default());
        let r = service.handle_line("{oops");
        assert!(r.contains("\"status\":\"malformed\""), "{r}");
        validate_json(&r).unwrap();
        let r = service.handle_line(&route_line("x", "die 1mm 1mm\\nnope\\n"));
        assert!(r.contains("\"status\":\"error\""), "{r}");
        assert!(r.contains("scenario: line 2"), "{r}");
        assert_eq!(service.metrics().counter_value("service.malformed"), 1);
        assert_eq!(service.metrics().counter_value("service.errors"), 1);
    }

    #[test]
    fn deep_nesting_is_malformed_not_a_stack_overflow() {
        let service = Service::new(ServiceConfig::default());
        for line in [
            "[".repeat(1 << 20),
            format!("{{\"op\":{}", "[".repeat(1 << 20)),
        ] {
            let r = service.handle_line(&line);
            assert!(
                r.starts_with("{\"id\":null,\"status\":\"malformed\""),
                "{r}"
            );
        }
        assert_eq!(service.metrics().counter_value("service.malformed"), 2);
    }

    #[test]
    fn surrogate_pair_ids_are_echoed() {
        let service = Service::new(ServiceConfig::default());
        for line in [
            r#"{"id":"\ud83d\ude00","op":"ping"}"#,
            r#"{"id":"😀","op":"ping"}"#,
        ] {
            let r = service.handle_line(line);
            assert_eq!(r, "{\"id\":\"😀\",\"status\":\"ok\",\"pong\":true}");
        }
    }

    #[test]
    fn net_cap_rejects_with_busy() {
        let config = ServiceConfig {
            max_nets: 1,
            ..ServiceConfig::default()
        };
        let service = Service::new(config);
        let r = service.handle_line(&route_line("big", SCENARIO));
        assert!(r.contains("\"status\":\"busy\""), "{r}");
        assert!(r.contains("2 nets, limit 1"), "{r}");
        assert_eq!(service.metrics().counter_value("service.rejects"), 1);
    }

    #[test]
    fn control_requests_work() {
        let service = Service::new(ServiceConfig::default());
        assert!(service
            .handle_line("{\"id\":\"p\",\"op\":\"ping\"}")
            .contains("\"pong\":true"));
        let stats = service.handle_line("{\"op\":\"stats\"}");
        assert!(stats.contains("service.requests"), "{stats}");
        validate_json(&stats).unwrap();
        assert!(!service.is_shut_down());
        let bye = service.handle_line("{\"op\":\"shutdown\"}");
        assert!(bye.contains("\"bye\":true"));
        assert!(service.is_shut_down());
    }

    #[test]
    fn oversized_and_half_written_lines_never_kill_the_loop() {
        let config = ServiceConfig {
            max_line: 64,
            ..ServiceConfig::default()
        };
        let service = Service::new(config);
        let long = "x".repeat(200);
        // Oversized line, a good request, then a final request whose
        // newline never arrived (peer died mid-write).
        let input = format!("{long}\n{{\"op\":\"ping\"}}\n{{\"op\":\"ping\"}}");
        let mut out = Vec::new();
        service.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3, "{text}");
        assert!(lines[0].contains("\"status\":\"malformed\""), "{text}");
        assert!(lines[0].contains("exceeds 64 bytes"), "{text}");
        assert!(lines[1].contains("pong"), "{text}");
        assert!(
            lines[2].contains("pong"),
            "half-written tail answered: {text}"
        );
    }

    #[test]
    fn state_dir_round_trips_the_cache_across_restarts() {
        let dir =
            std::env::temp_dir().join(format!("clockroute-server-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            state: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let first = Service::new(config.clone());
        let cold = first.handle_line(&route_line("r", SCENARIO));
        assert!(cold.contains("\"cache\":\"cold\""), "{cold}");
        assert!(first.metrics().counter_value("plan.nets.routed") > 0);
        // No snapshot() call: the per-insert append alone must carry
        // the entry across the "crash".
        drop(first);
        let second = Service::new(config);
        assert_eq!(
            second.metrics().counter_value("service.persist.recovered"),
            1
        );
        assert_eq!(second.metrics().counter_value("service.persist.dropped"), 0);
        let hit = second.handle_line(&route_line("r", SCENARIO));
        assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
        assert_eq!(
            cold.replace("\"cache\":\"cold\"", ""),
            hit.replace("\"cache\":\"hit\"", ""),
            "recovered entry answers byte-identically"
        );
        assert_eq!(
            second.metrics().counter_value("plan.nets.routed"),
            0,
            "a recovered entry answers without planning"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_compacts_and_survives_reopen() {
        let dir =
            std::env::temp_dir().join(format!("clockroute-server-snapshot-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let config = ServiceConfig {
            state: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let service = Service::new(config.clone());
        service.handle_line(&route_line("r", SCENARIO));
        service.snapshot().unwrap();
        // Appends after a snapshot land in the new log generation.
        let other = SCENARIO.replace("8 8 11 11", "3 3 6 6");
        service.handle_line(&route_line("r2", &other));
        drop(service);
        let reborn = Service::new(config);
        assert_eq!(
            reborn.metrics().counter_value("service.persist.recovered"),
            2
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_answers_each_line_and_stops_on_shutdown() {
        let service = Service::new(ServiceConfig::default());
        let input = "{\"op\":\"ping\"}\n\n{\"op\":\"shutdown\"}\n{\"op\":\"ping\"}\n";
        let mut out = Vec::new();
        service.serve(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "post-shutdown line unanswered: {text}");
        assert!(lines[0].contains("pong"));
        assert!(lines[1].contains("bye"));
    }
}
