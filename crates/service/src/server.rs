//! The routing service: request dispatch, cache orchestration, and the
//! stdio / TCP front-ends.
//!
//! Threads are created in exactly one module of this crate,
//! [`crate::pool`] (CR004 in clippy.toml enforces that); everything
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
//! was computed cold, answered from the exact-match cache (through the
//! parser or the exact-bytes scenario-literal memo in front of it), or
//! warm-started from a near-miss entry — and identical to what a
//! freshly spawned `crplan --quiet` prints for the same file.

use crate::admission::{Admission, Permit, RequestTimer};
use crate::cache::{Answer, Solved, WarmPrior};
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

/// Rewrites the snapshot in `dir` to hold exactly `rows`, an export of
/// the cache, in order.
fn rewrite_export(
    dir: &Path,
    rows: &[(u64, u64, scenario::Scenario, Arc<Solved>)],
) -> io::Result<()> {
    let payloads: Vec<Vec<u8>> = rows
        .iter()
        .map(|(key, base, scenario, solved)| persist::encode_entry(*key, *base, scenario, solved))
        .collect();
    persist::rewrite(dir, &payloads)
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
    /// checksum- and structure-verified like a cache hit, on every
    /// available core, corrupt or torn records are dropped (counted in
    /// `service.persist.dropped`), and the log is made durable as a
    /// compaction of the surviving set before serving starts.
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
    /// and reopens the log for appending. A log that replay took whole
    /// and whose records the cache holds exactly, in file order, is
    /// already that compaction: it is synced, not rewritten. Any
    /// persistence failure degrades to running without persistence
    /// (counted, never fatal): a service that promises to stay up must
    /// not die over its cache.
    fn recover(dir: &Path, cache: &ShardedCache, metrics: &MetricsRecorder) -> Option<SnapshotLog> {
        let replay = match persist::replay(dir, persist::recovery_workers()) {
            Ok(replay) => replay,
            Err(_) => {
                metrics.counter("service.persist.errors", 1);
                return None;
            }
        };
        metrics.counter("service.persist.recovered", replay.stats.recovered as u64);
        metrics.counter("service.persist.dropped", replay.stats.dropped as u64);
        let mut loaded = Vec::with_capacity(replay.entries.len());
        for e in replay.entries {
            // Replay in LRU order: insert order reproduces both
            // contents and eviction order, a smaller cap keeps the most
            // recently used survivors, and the sharded insert routes
            // each key to the shard live traffic would use. Duplicate-
            // key records collapse last-wins: a later insert replaces
            // the slot, so neither `len` nor the eviction count ever
            // counts one fingerprint twice.
            let solved = Arc::new(e.solved);
            loaded.push(Arc::clone(&solved));
            cache.insert(e.key, e.base, e.scenario, Arc::new(Answer::new(solved)));
        }
        let rows = cache.export();
        // The export holds every loaded record, itself and in file
        // order, only when no duplicate collapsed and nothing was
        // evicted: then the file already is its own compaction.
        let compact = replay.compact
            && rows.len() == loaded.len()
            && rows
                .iter()
                .zip(&loaded)
                .all(|((_, _, _, row), record)| Arc::ptr_eq(row, record));
        if !compact && rewrite_export(dir, &rows).is_err() {
            metrics.counter("service.persist.errors", 1);
        }
        let log = match SnapshotLog::open(dir) {
            Ok(log) => log,
            Err(_) => {
                metrics.counter("service.persist.errors", 1);
                return None;
            }
        };
        // In place of the rewrite's fsync: a record the last process
        // wrote but never synced is about to be served as a hit.
        if compact && log.sync().is_err() {
            metrics.counter("service.persist.errors", 1);
        }
        Some(log)
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
        rewrite_export(dir, &self.cache.export())?;
        // The old handle points at the renamed-over inode; reopen so
        // later appends land in the new file.
        self.snapshot_log.replace(SnapshotLog::open(dir)?);
        Ok(())
    }

    /// Handles one request line and returns the one-line JSON response.
    pub fn handle_line(&self, line: &str) -> String {
        self.metrics.counter("service.requests", 1);
        // Memo path: a plain `route` envelope whose raw scenario literal
        // some entry holds as an alias is answered without decoding the
        // literal or parsing the scenario. Anything else, or a memo that
        // comes up empty, takes the parse path below.
        let raw = protocol::raw_route(line);
        if let Some(raw) = &raw {
            if let Some(response) = self.memo(raw.id.as_deref(), raw.literal) {
                return response;
            }
        }
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
            Op::Route { scenario } => {
                // Both readings of one line: the envelope walk found the
                // literal that `parse_request` decoded.
                let literal = raw.map(|raw| raw.literal);
                debug_assert!(literal.is_none_or(|l| {
                    clockroute_core::json::parse(l)
                        == Ok(protocol::JsonValue::Str(scenario.clone()))
                }));
                self.route(id, &scenario, literal)
            }
        }
    }

    /// The memo answer for a `route` whose raw scenario literal an entry
    /// holds as an alias, or `None` to take the parse path. The alias is
    /// a literal `parse_request` accepted and decoded to text that
    /// parsed to the entry, so the parse path would answer these bytes
    /// from the same entry. Admission sees the entry's net count,
    /// exactly as the parse path would; the bytes are re-verified under
    /// the shard lock, and a miss there (evicted or replaced since the
    /// scan) falls through.
    fn memo(&self, id: Option<&str>, literal: &str) -> Option<String> {
        let timer = RequestTimer::start();
        let (key, nets) = self.cache.find_alias(literal)?;
        let permit = match self.admit(id, nets) {
            Ok(p) => p,
            Err(busy) => return Some(busy),
        };
        let answer = self.cache.lookup_alias(key, literal)?;
        Some(self.answer(id, &timer, permit, &answer, CachePath::Hit))
    }

    /// The parse path of a `route` whose scenario decoded to `text`;
    /// `literal` is its raw literal when the line is a plain `route`
    /// envelope, recorded as an alias of the entry that answers it.
    fn route(&self, id: Option<&str>, text: &str, literal: Option<&str>) -> String {
        let timer = RequestTimer::start();
        let parsed = match scenario::parse(text) {
            Ok(s) => s,
            Err(e) => {
                self.metrics.counter("service.errors", 1);
                return protocol::error(id, &format!("scenario: {e}"));
            }
        };
        let permit = match self.admit(id, parsed.nets.len()) {
            Ok(p) => p,
            Err(busy) => return busy,
        };

        let key = scenario_key(&parsed);
        let base = base_key(&parsed);
        let (answer, path) = match self.cache.lookup_or_claim(key, &parsed, literal) {
            Lookup::Hit(answer) => (answer, CachePath::Hit),
            // A concurrent leader solved this key while we waited; its
            // entry was inserted and persisted before the slot dropped,
            // so echoing it keeps "answered ⟹ durable".
            Lookup::Coalesced(answer) => (answer, CachePath::Coalesced),
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
                let answer = Arc::new(Answer::new(Arc::new(self.render(traced))));
                // Encode before the insert: the append payload is a
                // pure function of the entry, and the shard lock must
                // stay short.
                let record = self
                    .persists()
                    .then(|| persist::encode_entry(key, base, &parsed, &answer.solved));
                let (evicted, _) = slot.insert(base, parsed, Arc::clone(&answer), literal);
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
                (answer, path)
            }
        };
        self.answer(id, &timer, permit, &answer, path)
    }

    /// Takes an in-flight permit for a `nets`-net request, or counts the
    /// rejection and returns its `busy` response.
    fn admit(&self, id: Option<&str>, nets: usize) -> Result<Permit<'_>, String> {
        self.admission.try_admit(nets).map_err(|rejection| {
            self.metrics.counter("service.rejects", 1);
            protocol::busy(id, &rejection.reason(), rejection.retry_after_ms())
        })
    }

    /// The `ok` response for an answered `route`, on every path: the
    /// path's counters, the request span, the permit release, and the
    /// response bytes, spliced around the stored report literal.
    fn answer(
        &self,
        id: Option<&str>,
        timer: &RequestTimer,
        permit: Permit<'_>,
        answer: &Answer,
        path: CachePath,
    ) -> String {
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
        let solved = &answer.solved;
        protocol::route_ok_spliced(
            id,
            path.label(),
            solved.routed,
            solved.failed,
            solved.degraded,
            &answer.report_literal,
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
                    frame::write_line(&mut writer, self.handle_line(&line))?;
                    if self.is_shut_down() {
                        return Ok(());
                    }
                }
                Frame::Oversized { limit } => {
                    self.metrics.counter("service.malformed", 1);
                    let message = format!("request line exceeds {limit} bytes");
                    frame::write_line(&mut writer, protocol::malformed(&message))?;
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
                            frame::write_line(&mut writer, self.handle_line(&tail))?;
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
    use clockroute_core::json::{json_string, validate_json};
    use std::collections::BTreeMap;

    const SCENARIO: &str =
        "die 10mm 10mm\\ngrid 20 20\\nblock hard 8 8 11 11\\nnet comb name=a src=0,0 dst=19,19\\nnet reg name=b src=0,10 dst=19,10 period=2000\\n";

    fn route_line(id: &str, scenario: &str) -> String {
        format!("{{\"id\":\"{id}\",\"op\":\"route\",\"scenario\":\"{scenario}\"}}")
    }

    /// A `route` line for raw scenario text (JSON-escaped).
    fn route_text(id: &str, text: &str) -> String {
        format!(
            "{{\"id\":\"{id}\",\"op\":\"route\",\"scenario\":{}}}",
            json_string(text)
        )
    }

    /// `SCENARIO` as the text the service receives.
    fn scenario_text() -> String {
        SCENARIO.replace("\\n", "\n")
    }

    /// The response with its cache label erased, for comparing paths.
    fn unlabelled(response: &str) -> String {
        ["hit", "coalesced", "warm"]
            .iter()
            .fold(response.to_owned(), |r, label| {
                r.replace(&format!("\"cache\":\"{label}\""), "\"cache\":\"cold\"")
            })
    }

    /// Named telemetry values.
    type Readings = Vec<(String, u64)>;

    /// Sends one line; returns the response and what it did to the
    /// telemetry: every counter's increment and every gauge that moved.
    fn send(service: &Service, line: &str) -> (String, Readings, Readings) {
        let counters: BTreeMap<String, u64> = service.metrics().counters().into_iter().collect();
        let gauges = service.metrics().gauges();
        let response = service.handle_line(line);
        let counted = service
            .metrics()
            .counters()
            .into_iter()
            .map(|(name, v)| {
                let d = v - counters.get(&name).copied().unwrap_or(0);
                (name, d)
            })
            .filter(|&(_, d)| d > 0)
            .collect();
        let moved = service
            .metrics()
            .gauges()
            .into_iter()
            .filter(|g| !gauges.contains(g))
            .collect();
        (response, counted, moved)
    }

    /// Every shipped `scenarios/*.cr`, as `(file name, text)`.
    fn shipped_scenarios() -> Vec<(String, String)> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
        let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "cr"))
            .collect();
        files.sort();
        assert!(!files.is_empty(), "no scenarios in {}", dir.display());
        files
            .into_iter()
            .map(|p| {
                let name = p.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read_to_string(&p).unwrap())
            })
            .collect()
    }

    /// The other three textual forms the canonical fingerprint maps to
    /// the plain text's entry: with comments, with CRLF line ends, and
    /// with the `block` lines in reverse order.
    fn variant_forms(text: &str) -> [String; 3] {
        let comments = text.replace('\n', "   # memo\n");
        let crlf = text.replace('\n', "\r\n");
        let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
        let blocks: Vec<usize> = (0..lines.len())
            .filter(|&i| lines[i].starts_with("block"))
            .collect();
        let reversed: Vec<&str> = blocks.iter().rev().map(|&i| lines[i]).collect();
        for (&i, line) in blocks.iter().zip(reversed) {
            lines[i] = line;
        }
        [comments, crlf, lines.concat()]
    }

    /// `count` seeded one-byte mutants of `text`: an ASCII byte swapped
    /// for one of `#`, `x`, `q`, so no mutant grows the grid or a net.
    fn one_byte_mutants(text: &str, seed: u64, count: usize) -> Vec<String> {
        let mut state = seed;
        let mut mutants = Vec::new();
        while mutants.len() < count {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = (state >> 33) as usize % text.len();
            let old = text.as_bytes()[at];
            let new = b"#xq"[(state >> 17) as usize % 3];
            if old.is_ascii() && old != new {
                let mut bytes = text.as_bytes().to_vec();
                bytes[at] = new;
                mutants.push(String::from_utf8(bytes).unwrap());
            }
        }
        mutants
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

        // Every shipped scenario in four textual forms: the first send
        // of a form takes the parse path, its repeat the memo path, and
        // both answer with the cold bytes and the same telemetry delta.
        for (i, (name, plain)) in shipped_scenarios().into_iter().enumerate() {
            let cold = Service::new(ServiceConfig::default()).handle_line(&route_text("s", &plain));
            assert!(cold.contains("\"status\":\"ok\""), "{name}: {cold}");
            let mutants: Vec<(String, String)> = one_byte_mutants(&plain, 7 + i as u64, 3)
                .into_iter()
                .map(|m| {
                    let alone = Service::new(ServiceConfig::default());
                    let reference = alone.handle_line(&route_text("s", &m));
                    (m, reference)
                })
                .collect();
            for shards in [1, 4] {
                let service = Service::new(ServiceConfig {
                    shards,
                    ..ServiceConfig::default()
                });
                assert_eq!(service.handle_line(&route_text("s", &plain)), cold);
                let (repeat, hit_delta, moved) = send(&service, &route_text("s", &plain));
                assert_eq!(unlabelled(&repeat), cold, "{name}, {shards} shards");
                assert!(moved.is_empty(), "{name}: a hit moved {moved:?}");
                // Without two `block` lines the reordered form is the
                // plain text itself, already covered above.
                for form in variant_forms(&plain).into_iter().filter(|f| *f != plain) {
                    assert!(
                        service.cache.find_alias(&json_string(&form)).is_none(),
                        "{name}"
                    );
                    let parse_path = send(&service, &route_text("s", &form));
                    assert!(
                        service.cache.find_alias(&json_string(&form)).is_some(),
                        "{name}"
                    );
                    let memo_path = send(&service, &route_text("s", &form));
                    assert!(parse_path.0.contains("\"cache\":\"hit\""), "{name}");
                    assert_eq!(unlabelled(&parse_path.0), cold, "{name}, {shards} shards");
                    assert_eq!(memo_path, parse_path, "{name}, {shards} shards");
                    assert_eq!(memo_path.1, hit_delta, "{name}, {shards} shards");
                }
                // One byte off a memoized text is never a memo answer;
                // a mutant's first and repeated sends answer like a
                // fresh service would.
                for (mutant, reference) in &mutants {
                    let first = service.handle_line(&route_text("s", mutant));
                    let again = service.handle_line(&route_text("s", mutant));
                    assert_eq!(unlabelled(&first), unlabelled(reference), "{name}");
                    assert_eq!(unlabelled(&again), unlabelled(reference), "{name}");
                }
            }
        }
    }

    /// The `serve_smoke.sh` session's scenario and the lines it sends
    /// (less `stats`, whose counters differ between two services primed
    /// differently).
    fn smoke_session() -> (String, Vec<String>) {
        let scen = "die 25mm 25mm\\ngrid 12 12\\nblock hard 4 4 6 6\\nnet comb name=a src=0,0 dst=11,11\\nnet reg name=b src=0,6 dst=11,6 period=2000\\n";
        let crlf = scen.replace("\\n", "\\r\\n");
        let lines = vec![
            r#"{"id":"p","op":"ping"}"#.to_owned(),
            route_line("r1", scen),
            route_line("r2", scen),
            route_line("r3", &crlf),
            route_line("r4", &crlf),
            "this is not json".to_owned(),
            r#"{"id":"q","op":"shutdown"}"#.to_owned(),
        ];
        (scen.replace("\\n", "\n"), lines)
    }

    /// Lines around one escaping `literal` of a scenario text: every
    /// envelope shape the memo must either answer exactly as the parser
    /// would or leave to it.
    fn envelopes(literal: &str) -> Vec<String> {
        vec![
            format!(r#"{{"id":"x","op":"route","scenario":{literal}}}"#),
            format!(r#"{{"scenario":{literal},"op":"route","id":"x"}}"#),
            format!(" {{ \"id\" : \"x\" ,\t\"op\" :\"route\" , \"scenario\" :\r\n{literal} }}  "),
            format!(r#"{{"op":"route","scenario":{literal}}}"#),
            format!(r#"{{"id":null,"op":"route","scenario":{literal}}}"#),
            format!(r#"{{"id":"x","op":"route","scenario":{literal},"extra":1}}"#),
            format!(r#"{{"id":"x","op":"ping","scenario":{literal}}}"#),
            format!(r#"{{"id":"x","op":"route","scenario":{literal},"scenario":{literal}}}"#),
            format!(r#"{{"id":"x","id":"x","op":"route","scenario":{literal}}}"#),
            format!(r#"{{"id":7,"op":"route","scenario":{literal}}}"#),
            format!(r#"{{"id":{{"n":1}},"op":"route","scenario":{literal}}}"#),
            format!(r#"{{"id":"x","op":"route","scenario":{literal}}}garbage"#),
            format!(r#"{{"id":"x","op":"route","scenario":{literal} 1}}"#),
            format!(r#"{{"id":"x","op":"route","scenario":{literal}"#),
            format!(
                r#"{{"id":"x","op":"route","scenario":{}"#,
                &literal[..literal.len() / 2]
            ),
        ]
    }

    /// `count` seeded one-byte mutants of a request line: an ASCII byte
    /// swapped for a JSON-significant one, a comment mark or a letter,
    /// never a digit, so no mutant grows the grid.
    fn line_mutants(line: &str, seed: u64, count: usize) -> Vec<String> {
        let mut state = seed;
        let mut mutants = Vec::new();
        while mutants.len() < count {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let at = (state >> 33) as usize % line.len();
            let new = b"\"\\:,{}[x #"[(state >> 17) as usize % 10];
            let old = line.as_bytes()[at];
            if old.is_ascii() && old != new {
                let mut bytes = line.as_bytes().to_vec();
                bytes[at] = new;
                mutants.push(String::from_utf8(bytes).unwrap());
            }
        }
        mutants
    }

    #[test]
    fn memo_path_answers_every_line_as_the_parse_path_does() {
        let mut groups = vec![smoke_session()];
        for (i, (_, plain)) in shipped_scenarios().into_iter().enumerate() {
            let mut lines = Vec::new();
            let mut forms = vec![plain.clone()];
            forms.extend(variant_forms(&plain));
            forms.dedup();
            for form in &forms {
                let literal = json_string(form);
                lines.extend(envelopes(&literal));
                lines.extend(envelopes(&literal.replace("\\n", "\\u000a")));
                let slashed = json_string(&format!("{form}# a/b\n"));
                lines.extend(envelopes(&slashed.replace('/', "\\/")));
            }
            lines.extend(line_mutants(&route_text("x", &plain), 11 + i as u64, 40));
            // A mutant's literal may start an entry of its own on both
            // services; sent twice, it would meet B's memo too.
            let mut seen = std::collections::BTreeSet::new();
            lines.retain(|line| seen.insert(line.clone()));
            groups.push((plain, lines));
        }
        let mut memo_answers = 0;
        for (plain, lines) in groups {
            // A holds the plain text's own literal as an alias. B holds
            // four other forms of the same scenario, which fill its
            // alias slots, so every line below takes B's parse path.
            let a = Service::new(ServiceConfig::default());
            let b = Service::new(ServiceConfig::default());
            a.handle_line(&route_text("prime", &plain));
            for k in 0..4 {
                b.handle_line(&route_text("prime", &format!("{plain}# only b {k}\n")));
            }
            for line in &lines {
                let literal = protocol::raw_route(line).map(|raw| raw.literal);
                let on_b = literal.and_then(|l| b.cache.find_alias(l));
                assert!(on_b.is_none(), "B answers {line} from its memo");
                memo_answers += usize::from(literal.and_then(|l| a.cache.find_alias(l)).is_some());
                let (got_a, count_a, _) = send(&a, line);
                let (got_b, count_b, _) = send(&b, line);
                assert_eq!(got_a, got_b, "{line}");
                for name in [
                    "service.requests",
                    "service.hits",
                    "service.misses",
                    "service.malformed",
                ] {
                    let delta = |c: &Readings| c.iter().find(|(n, _)| n == name).map(|(_, d)| *d);
                    assert_eq!(delta(&count_a), delta(&count_b), "{name} on {line}");
                }
            }
        }
        assert!(memo_answers >= 30, "only {memo_answers} lines met the memo");
    }

    #[test]
    fn eviction_takes_the_memo_with_it() {
        // Cache cap 1: A, B, A ends in a miss, not a memo answer from
        // A's evicted entry.
        let service = Service::new(ServiceConfig {
            cache_cap: 1,
            shards: 1,
            ..ServiceConfig::default()
        });
        let a = scenario_text();
        let b = a.replace("8 8 11 11", "3 3 6 6");
        let first = service.handle_line(&route_text("a", &a));
        service.handle_line(&route_text("b", &b));
        assert!(service.cache.find_alias(&json_string(&a)).is_none());
        let again = service.handle_line(&route_text("a", &a));
        assert!(!again.contains("\"cache\":\"hit\""), "{again}");
        assert_eq!(unlabelled(&again), first);
        assert_eq!(service.metrics().counter_value("service.misses"), 3);
        assert_eq!(service.metrics().counter_value("service.hits"), 0);
    }

    #[test]
    fn busy_bytes_match_on_the_memo_and_parse_paths() {
        let service = Service::new(ServiceConfig {
            max_inflight: 1,
            ..ServiceConfig::default()
        });
        let text = scenario_text();
        service.handle_line(&route_text("b", &text));
        let crlf = text.replace('\n', "\r\n");
        let held = service.admission.try_admit(0).unwrap();
        assert!(service.cache.find_alias(&json_string(&crlf)).is_none());
        let parse_path = send(&service, &route_text("b", &crlf));
        assert!(service.cache.find_alias(&json_string(&text)).is_some());
        let memo_path = send(&service, &route_text("b", &text));
        assert!(
            parse_path.0.contains("\"status\":\"busy\""),
            "{parse_path:?}"
        );
        assert_eq!(memo_path, parse_path);
        drop(held);
        let hit = service.handle_line(&route_text("b", &text));
        assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    }

    #[test]
    fn memo_traffic_leaves_the_snapshot_bytes_unchanged() {
        let a = scenario_text();
        let b = a.replace("8 8 11 11", "3 3 6 6");
        let noisy = |t: &str| t.replace('\n', " # n\n");
        // The same hits in the same order, once as exact repeats (memo
        // path) and once as distinct texts (parse path only).
        let memo = [a.clone(), b.clone(), a.clone(), b.clone(), a.clone()];
        let parse = [
            a.clone(),
            b.clone(),
            noisy(&a),
            noisy(&b),
            a.replace('\n', "\r\n"),
        ];
        for shards in [1, 4] {
            let mut snapshots = Vec::new();
            for (tag, texts) in [("memo", &memo), ("parse", &parse)] {
                let dir = std::env::temp_dir().join(format!(
                    "clockroute-server-memo-{tag}-{shards}-{}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&dir);
                let service = Service::new(ServiceConfig {
                    shards,
                    state: Some(dir.clone()),
                    ..ServiceConfig::default()
                });
                for text in texts {
                    service.handle_line(&route_text("m", text));
                }
                assert_eq!(service.metrics().counter_value("service.hits"), 3);
                service.snapshot().unwrap();
                snapshots.push(std::fs::read(persist::snapshot_file(&dir)).unwrap());
                drop(service);
                let _ = std::fs::remove_dir_all(&dir);
            }
            assert_eq!(snapshots[0], snapshots[1], "{shards} shards");
        }
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
