//! The three workloads. Each run sets up (timed as `setup_s`), drives
//! the real binary closed-loop for the run's seconds, checks every
//! output against an in-process reference, and reports the end-to-end
//! metrics; a traced run instead replays the fixed request sequence and
//! reports the per-layer metrics.

use crate::check::{self, Quality, Reference};
use crate::gen::{self, Scn, Style};
use crate::proc::{self, now, route_line, secs, Conn, Server, CACHE_CAP, JOBS, SHARDS};
use crate::stats::{median, percentile, Metrics};
use crate::trace::{Layers, Sink};
use clockroute_cli::{report, scenario};
use clockroute_flow::{FlowConfig, PlannerFlowExt};
use clockroute_plan::{SharedTelemetry, TracedPlan};
use clockroute_service::persist::{self, SnapshotLog};
use clockroute_service::protocol::{self, JsonValue};
use clockroute_service::{keys, RetryPolicy, Service, ServiceConfig, Solved};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Where and how long one run works.
pub struct Ctx {
    pub bin_dir: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

/// What one run found.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    /// Attempts that were not answered with a verified-correct output.
    pub failed: u64,
    /// Check failures, in order found.
    pub errors: Vec<String>,
    pub metrics: Metrics,
    /// Quality totals over the workload's fixed scenario set.
    pub quality: Quality,
    /// Human-readable context printed above the metrics.
    pub info: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, what: String) {
        if self.errors.len() < 20 {
            self.errors.push(what);
        }
    }
}

/// Start-ups of the program per run; `setup_s` is their median. Half
/// are timed before the measured window and half after it, so a host
/// that drifts during the run moves the median less.
const SETUP_REPEATS: usize = 21;
/// `crplan` start-ups per run for `setup_s` (and, before the window
/// only, `crplan.floor_ms`); split like [`SETUP_REPEATS`].
const FLOOR_REPEATS: usize = 61;
/// Requests every untimed run completes even past its seconds, so p90
/// always has ten samples beyond it. `serve_solve`'s quality totals are
/// summed over exactly its first this-many requests.
pub const MIN_REQUESTS: usize = 100;
/// Ping round trips per connection in a traced run.
const PINGS: usize = 20;

/// Maps `f` over `items` on two threads, keeping order.
fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let mid = items.len() / 2;
    let (a, b) = items.split_at(mid);
    let f = &f;
    proc::scope(|s| {
        let left = s.spawn(move || a.iter().map(f).collect::<Vec<R>>());
        let mut right: Vec<R> = b.iter().map(f).collect();
        let mut out = left.join().expect("reference thread panicked");
        out.append(&mut right);
        out
    })
}

/// The end-to-end metrics every workload reports.
fn e2e_metrics(
    setup: &[f64],
    latencies_ms: &[f64],
    wall_s: f64,
    ok: u64,
    attempted: u64,
    peak_rss_mb: f64,
    q: Quality,
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    m.put("setup_s", median(setup).ok_or("no set-up samples")?, "s");
    m.put_pct("req_p50_ms", percentile(latencies_ms, 50.0)?, "ms");
    m.put_pct("req_p90_ms", percentile(latencies_ms, 90.0)?, "ms");
    m.put("throughput_rps", latencies_ms.len() as f64 / wall_s, "1/s");
    m.put("ok_frac", ok as f64 / attempted.max(1) as f64, "ratio");
    m.put("peak_rss_mb", peak_rss_mb, "MB");
    m.put("latency_ps_total", q.latency_ps, "ps");
    m.put("wire_mm_total", q.wire_mm, "mm");
    m.put("nets_degraded", q.nets_degraded as f64, "count");
    m.put("overflow_edges", q.overflow_edges as f64, "count");
    Ok(m)
}

/// Checks the `stats` identity `hits + coalesced + misses == answered`
/// and returns the counters.
fn checked_stats(conn: &mut Conn, answered: u64, out: &mut Outcome) -> BTreeMap<String, u64> {
    match conn.stats() {
        Ok(stats) => {
            let get = |k: &str| stats.get(k).copied().unwrap_or(0);
            let sum = get("service.hits") + get("service.coalesced") + get("service.misses");
            if sum != answered {
                out.fail(format!(
                    "stats: hits + coalesced + misses = {sum}, but {answered} route requests were answered"
                ));
            }
            stats
        }
        Err(e) => {
            out.fail(format!("stats: {e}"));
            BTreeMap::new()
        }
    }
}

/// Times [`PINGS`] `ping` round trips on `conn`.
fn time_pings(conn: &mut Conn, layers: &mut Layers, out: &mut Outcome) {
    for i in 0..PINGS {
        let start = now();
        match conn.call(&format!("{{\"id\":\"p{i}\",\"op\":\"ping\"}}")) {
            Ok(r) if r == protocol::pong(Some(&format!("p{i}"))) => {
                layers.time("transport.ping_rtt_ms", secs(start) * 1e3);
            }
            Ok(r) => out.fail(format!("ping: unexpected reply {r}")),
            Err(e) => out.fail(format!("ping: {e}")),
        }
    }
}

/// Whether a closed loop sends request `k`: exactly `count` requests in
/// a traced pass, otherwise until `deadline` and at least
/// [`MIN_REQUESTS`].
fn keep_going(k: usize, count: Option<usize>, deadline: std::time::Instant) -> bool {
    match count {
        Some(n) => k < n,
        None => k < MIN_REQUESTS || now() < deadline,
    }
}

/// Times `n` start-ups of `crserve` on `state`, each shut down again.
fn time_startups(ctx: &Ctx, state: &Path, n: usize, setup: &mut Vec<f64>) -> Result<(), String> {
    for _ in 0..n {
        let (server, conn, s) = Server::spawn(&ctx.bin_dir, state)?;
        setup.push(s);
        server.shutdown(conn)?;
    }
    Ok(())
}

/// Times the first half of the start-ups on `state` and spawns the
/// serving `crserve`, whose start-up is timed too. The second half runs
/// after the window on `pristine`, a copy of `state` made here, since
/// the run changes `state`.
fn start_serving(
    ctx: &Ctx,
    state: &Path,
    pristine: &str,
) -> Result<(Vec<f64>, PathBuf, Server, Conn), String> {
    let copy = proc::fresh_dir(&ctx.work, pristine)?;
    std::fs::copy(persist::snapshot_file(state), persist::snapshot_file(&copy))
        .map_err(|e| format!("copying the snapshot: {e}"))?;
    let mut setup = Vec::new();
    time_startups(ctx, state, SETUP_REPEATS / 2, &mut setup)?;
    let (server, conn, s) = Server::spawn(&ctx.bin_dir, state)?;
    setup.push(s);
    Ok((setup, copy, server, conn))
}

/// Records `unattributed_ms`, the median over the socket pass's
/// requests of each one's latency minus the in-process time of the
/// layers on its path (`path_ms[j]`, timed on the same request).
fn attribute(
    layers: &mut Layers,
    latencies: &[f64],
    path_ms: &[f64],
    out: &mut Outcome,
) -> Result<(), String> {
    if latencies.len() != path_ms.len() {
        return Err(format!(
            "{} requests over the socket, {} replayed in-process",
            latencies.len(),
            path_ms.len()
        ));
    }
    let p50 = percentile(latencies, 50.0)?.value;
    let rest: Vec<f64> = latencies.iter().zip(path_ms).map(|(l, p)| l - p).collect();
    let unattributed = median(&rest).unwrap_or(0.0);
    layers.count("unattributed_ms", unattributed);
    out.info.push(format!(
        "traced: req_p50_ms {p50:.4} (n={}), layers on the path account for {:.1}% of it",
        latencies.len(),
        100.0 * (p50 - unattributed) / p50
    ));
    Ok(())
}

fn service_config(state: &Path) -> ServiceConfig {
    ServiceConfig {
        jobs: JOBS,
        cache_cap: CACHE_CAP,
        shards: SHARDS,
        state: Some(state.to_path_buf()),
        ..ServiceConfig::default()
    }
}

/// Server-side counters of a traced pass, exact for its fixed sequence.
fn service_counters(layers: &mut Layers, stats: &BTreeMap<String, u64>, retries: u64) {
    let get = |k: &str| stats.get(k).copied().unwrap_or(0) as f64;
    for name in [
        "service.hits",
        "service.misses",
        "service.warm_reuse",
        "service.coalesced",
        "service.evictions",
        "service.rejects",
    ] {
        layers.count(name, get(name));
    }
    let answered = get("service.hits") + get("service.coalesced") + get("service.misses");
    if answered > 0.0 {
        layers.count("service.hit_ratio", get("service.hits") / answered);
    }
    if get("service.misses") > 0.0 {
        layers.count(
            "service.warm_ratio",
            get("service.warm_reuse") / get("service.misses"),
        );
    }
    layers.count("client.retries", retries as f64);
}

/// Times the request-parsing layers of one `route` line in-process:
/// `protocol::parse_request`, `scenario::parse`, and the two keys.
fn time_front_layers(layers: &mut Layers, line: &str) -> Result<(f64, scenario::Scenario), String> {
    let t = now();
    let request = protocol::parse_request(line)?;
    let parse_request = secs(t);
    let protocol::Op::Route { scenario: text } = request.op else {
        return Err("not a route request".to_owned());
    };
    let t = now();
    let parsed = scenario::parse(&text).map_err(|e| e.to_string())?;
    let parse = secs(t);
    let t = now();
    std::hint::black_box((keys::scenario_key(&parsed), keys::base_key(&parsed)));
    let key = secs(t);
    layers.time("protocol.parse_request_us", parse_request * 1e6);
    layers.time("scenario.parse_us", parse * 1e6);
    layers.time("keys.scenario_key_us", key * 1e6);
    Ok((parse_request + parse + key, parsed))
}

/// Cold references for the plain rendering of every scenario of `set`.
fn serve_refs(set: &[Scn]) -> Result<Vec<Reference>, String> {
    par_map(set, |s| check::serve_reference(&s.render(Style::Plain)))
        .into_iter()
        .collect()
}

/// A snapshot state directory `name` holding `set`, solved cold by a
/// `crserve` that then shut down; every response is checked.
fn warm_snapshot(
    ctx: &Ctx,
    name: &str,
    set: &[Scn],
    refs: &[Reference],
    out: &mut Outcome,
) -> Result<PathBuf, String> {
    let state = proc::fresh_dir(&ctx.work, name)?;
    let (server, mut conn, _) = Server::spawn(&ctx.bin_dir, &state)?;
    for (i, (s, reference)) in set.iter().zip(refs).enumerate() {
        let id = format!("prep-{i}");
        let response = conn.call(&route_line(&id, &s.render(Style::Plain)))?;
        if response != reference.response(&id, "cold") {
            out.fail(format!(
                "prep {i}: cold response differs from the reference"
            ));
        }
    }
    server.shutdown(conn)?;
    Ok(state)
}

/// A copy `name` of the snapshot in `state`, for an in-process
/// `Service`; times [`SETUP_REPEATS`] `persist::load`s of it.
fn snapshot_copy(
    ctx: &Ctx,
    state: &Path,
    name: &str,
    entries: usize,
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<PathBuf, String> {
    let copy = proc::fresh_dir(&ctx.work, name)?;
    std::fs::copy(persist::snapshot_file(state), persist::snapshot_file(&copy))
        .map_err(|e| format!("copying the snapshot: {e}"))?;
    for _ in 0..SETUP_REPEATS {
        let t = now();
        let (loaded, _) = persist::load(&copy).map_err(|e| format!("load: {e}"))?;
        layers.time("persist.load_ms", secs(t) * 1e3);
        if loaded.len() != entries {
            out.fail(format!(
                "snapshot holds {} entries, expected {entries}",
                loaded.len()
            ));
        }
    }
    Ok(copy)
}

/// What the service stores for a plan it solved.
fn solved(traced: &TracedPlan, report: String) -> Solved {
    let plan = traced.plan();
    Solved {
        routed: plan.routed().count(),
        failed: plan.failed().count(),
        degraded: plan.degraded().count(),
        report,
        traced: traced.clone(),
    }
}

/// Times, in-process, how `crserve` wrote the snapshot a workload
/// starts from: per scenario of `set`, the cold plan (through a
/// telemetry sink for the search counters), its report, the entry's
/// encoding and its fsynced append to a fresh log. The hits never reach
/// these layers; this is their write path.
fn time_snapshot_writes(
    ctx: &Ctx,
    set: &[Scn],
    refs: &[Reference],
    layers: &mut Layers,
    out: &mut Outcome,
) -> Result<(), String> {
    let log_dir = proc::fresh_dir(&ctx.work, "hit-trace-log")?;
    let mut log = SnapshotLog::open(&log_dir).map_err(|e| format!("log: {e}"))?;
    let sink = Arc::new(Sink::default());
    for (s, reference) in set.iter().zip(refs) {
        let parsed = scenario::parse(&s.render(Style::Plain)).map_err(|e| e.to_string())?;
        let planner = check::planner(&parsed, JOBS, Some(SharedTelemetry::new(sink.clone())));
        let t = now();
        let traced_plan = planner.plan_traced(&parsed.nets);
        layers.time("plan.cold_ms", secs(t) * 1e3);
        let t = now();
        let report_text = report::plan_report(traced_plan.plan());
        layers.time("report.plan_report_us", secs(t) * 1e6);
        if report_text != reference.report {
            out.fail("in-process cold plan differs from the reference".to_owned());
        }
        let (key, base) = (keys::scenario_key(&parsed), keys::base_key(&parsed));
        let t = now();
        let payload = persist::encode_entry(key, base, &parsed, &solved(&traced_plan, report_text));
        layers.time("persist.encode_entry_us", secs(t) * 1e6);
        let t = now();
        log.append(&payload).map_err(|e| format!("append: {e}"))?;
        layers.time("persist.append_ms", secs(t) * 1e3);
    }
    layers.search_counters(&sink);
    layers.spans_ms(&sink);
    Ok(())
}

// ---------------------------------------------------------------------
// serve_hit
// ---------------------------------------------------------------------

/// One `serve_hit` connection's closed loop and what it saw.
struct HitClient {
    conn: Conn,
    latencies_ms: Vec<f64>,
    ok: u64,
    attempted: u64,
    retries: u64,
    errors: Vec<String>,
}

/// Sends `list` in order, cycling, until `deadline` (and at least
/// [`MIN_REQUESTS`] requests), or exactly `count` requests when given;
/// checks every response against its expected bytes.
fn hit_client(
    mut conn: Conn,
    list: &[(String, String)],
    c: usize,
    seed: u64,
    count: Option<usize>,
    deadline: std::time::Instant,
) -> HitClient {
    let policy = RetryPolicy::new(seed ^ c as u64);
    let (mut latencies_ms, mut ok, mut retries, mut errors) = (Vec::new(), 0, 0, Vec::new());
    let mut k = 0;
    while keep_going(k, count, deadline) {
        let (line, expected) = &list[k % list.len()];
        k += 1;
        match conn.route(line, &policy) {
            Ok(r) => {
                retries += u64::from(r.retries);
                latencies_ms.push(r.seconds * 1e3);
                if &r.response == expected {
                    ok += 1;
                } else {
                    errors.push(format!(
                        "conn {c} request {k}: hit response differs from the cold reference"
                    ));
                }
            }
            Err(e) => errors.push(format!("conn {c}: {e}")),
        }
    }
    HitClient {
        conn,
        latencies_ms,
        ok,
        attempted: k as u64,
        retries,
        errors,
    }
}

pub fn serve_hit(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let set = gen::hit_working_set(ctx.seed);
    let refs = serve_refs(&set)?;
    // Per connection: (request line, expected response) in send order.
    let lists: Vec<Vec<(String, String)>> = (0..2)
        .map(|c| {
            gen::hit_requests(ctx.seed, c)
                .into_iter()
                .enumerate()
                .map(|(k, (i, style))| {
                    let id = format!("c{c}-{k}");
                    (
                        route_line(&id, &set[i].render(style)),
                        refs[i].response(&id, "hit"),
                    )
                })
                .collect()
        })
        .collect();

    // The starting snapshot: the working set solved cold by crserve.
    let state = warm_snapshot(ctx, "hit-state", &set, &refs, &mut out)?;

    let (mut setup, pristine, server, conn0) = start_serving(ctx, &state, "hit-pristine")?;
    let conn1 = server.connect()?;

    let deadline = now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let start = now();
    let clients: Vec<HitClient> = proc::scope(|s| {
        let handles: Vec<_> = [conn0, conn1]
            .into_iter()
            .zip(&lists)
            .enumerate()
            .map(|(c, (conn, list))| {
                s.spawn(move || {
                    hit_client(
                        conn,
                        list,
                        c,
                        ctx.seed,
                        traced.then_some(list.len()),
                        deadline,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(start);
    let mut latencies = Vec::new();
    let (mut ok, mut retries) = (0, 0);
    let mut conns = Vec::new();
    for client in clients {
        latencies.extend(client.latencies_ms);
        ok += client.ok;
        out.attempted += client.attempted;
        retries += client.retries;
        for e in client.errors {
            out.fail(e);
        }
        conns.push(client.conn);
    }
    out.failed = out.attempted - ok;
    let answered = latencies.len() as u64;
    let mut layers = Layers::default();
    if traced {
        for conn in &mut conns {
            time_pings(conn, &mut layers, &mut out);
        }
    }
    let stats = checked_stats(&mut conns[0], answered, &mut out);
    if stats.get("service.misses").copied().unwrap_or(0) != 0 {
        out.fail("serve_hit answered a request without the cache".to_owned());
    }
    let rss = server.peak_rss_mb()?;
    let conn0 = conns.remove(0);
    drop(conns);
    server.shutdown(conn0)?;

    let mut quality = Quality::default();
    for r in &refs {
        quality.add(r.quality);
    }
    out.quality = quality;
    if !traced {
        time_startups(ctx, &pristine, SETUP_REPEATS / 2, &mut setup)?;
        out.metrics = e2e_metrics(&setup, &latencies, wall, ok, out.attempted, rss, quality)?;
        return Ok(out);
    }

    // Traced replay of the same sequence against an in-process service
    // recovered from a copy of the same snapshot.
    service_counters(&mut layers, &stats, retries);
    let copy = snapshot_copy(
        ctx,
        &state,
        "hit-trace-state",
        set.len(),
        &mut layers,
        &mut out,
    )?;
    time_snapshot_writes(ctx, &set, &refs, &mut layers, &mut out)?;
    let service = Service::new(service_config(&copy));
    // The socket pass sent each connection's list once, in this order.
    let sequence: Vec<&(String, String)> = lists.iter().flatten().collect();
    let ping = layers.med("transport.ping_rtt_ms");
    let mut path_ms = Vec::new();
    let replay_start = now();
    let mut pass = 0;
    while pass == 0 || secs(replay_start) < ctx.seconds {
        for (line, expected) in &sequence {
            let (front, _) = time_front_layers(&mut layers, line)?;
            let t = now();
            let response = service.handle_line(line);
            let handle = secs(t);
            layers.time("server.handle_line_us", handle * 1e6);
            layers.time("server.self_us", (handle - front) * 1e6);
            if pass == 0 {
                path_ms.push(ping + handle * 1e3);
            }
            if response != **expected {
                out.fail("in-process hit response differs from the reference".to_owned());
            }
        }
        if pass == 0 {
            let hits = service.metrics().counter_value("service.hits");
            if hits != sequence.len() as u64 || hits != layers.counts["service.hits"] as u64 {
                out.fail(format!(
                    "in-process replay counted {hits} hits; the TCP pass {}",
                    layers.counts["service.hits"]
                ));
            }
        }
        pass += 1;
    }
    attribute(&mut layers, &latencies, &path_ms, &mut out)?;
    out.metrics = layers.to_metrics();
    Ok(out)
}

// ---------------------------------------------------------------------
// serve_solve
// ---------------------------------------------------------------------

/// The expected cache path of every `serve_solve` request: a near-miss
/// of a cached family warm-starts, a new family solves cold.
fn solve_labels(stream: &gen::SolveStream, count: usize) -> Vec<&'static str> {
    let mut seen = std::collections::BTreeSet::new();
    stream.items[..count]
        .iter()
        .map(|(family, _)| if seen.insert(*family) { "cold" } else { "warm" })
        .collect()
}

/// Requests a traced `serve_solve` run sends over the socket before it
/// replays them in-process. Replaying every request at once would let
/// host drift between the two passes skew the attribution; replaying
/// each one right after it was sent would idle the connection between
/// requests and change its delayed-ACK behaviour.
const REPLAY_CHUNK: usize = 25;

/// The traced replay of `serve_solve`: an in-process `Service`
/// configured like `crserve`, and the layers it calls, timed one by one
/// on the same requests the socket pass sent.
struct SolveReplay {
    service: Service,
    log: SnapshotLog,
    sink: Arc<Sink>,
    /// Latest traced plan per family: the warm prior the service picks.
    latest: BTreeMap<usize, (scenario::Scenario, TracedPlan)>,
    handle_ms: Vec<f64>,
}

impl SolveReplay {
    fn new(ctx: &Ctx, service_state: PathBuf) -> Result<SolveReplay, String> {
        let log_dir = proc::fresh_dir(&ctx.work, "solve-trace-log")?;
        Ok(SolveReplay {
            service: Service::new(service_config(&service_state)),
            log: SnapshotLog::open(&log_dir).map_err(|e| format!("log: {e}"))?,
            sink: Arc::new(Sink::default()),
            latest: BTreeMap::new(),
            handle_ms: Vec::new(),
        })
    }

    fn step(
        &mut self,
        family: usize,
        line: &str,
        socket_response: &str,
        layers: &mut Layers,
    ) -> Result<Option<String>, String> {
        let (front, parsed) = time_front_layers(layers, line)?;
        let t = now();
        let response = self.service.handle_line(line);
        let handle = secs(t);
        layers.time("server.handle_line_us", handle * 1e6);
        self.handle_ms.push(handle * 1e3);

        let telemetry = Some(SharedTelemetry::new(self.sink.clone()));
        let t = now();
        let (traced_plan, kind) = match self.latest.get(&family) {
            Some((prior_scn, prior)) => {
                let dirty = keys::block_delta(prior_scn, &parsed);
                let planner = check::planner(&parsed, JOBS, telemetry);
                (
                    planner.plan_warm(&parsed.nets, prior, &dirty),
                    "plan.warm_ms",
                )
            }
            None => {
                let planner = check::planner(&parsed, JOBS, telemetry);
                (planner.plan_traced(&parsed.nets), "plan.cold_ms")
            }
        };
        let plan_s = secs(t);
        layers.time(kind, plan_s * 1e3);
        let t = now();
        let report_text = report::plan_report(traced_plan.plan());
        let report_s = secs(t);
        layers.time("report.plan_report_us", report_s * 1e6);
        let solved = solved(&traced_plan, report_text);
        let (key, base) = (keys::scenario_key(&parsed), keys::base_key(&parsed));
        let t = now();
        let payload = persist::encode_entry(key, base, &parsed, &solved);
        let encode_s = secs(t);
        layers.time("persist.encode_entry_us", encode_s * 1e6);
        let t = now();
        self.log
            .append(&payload)
            .map_err(|e| format!("append: {e}"))?;
        let append_s = secs(t);
        layers.time("persist.append_ms", append_s * 1e3);
        let children = front + plan_s + report_s + encode_s + append_s;
        layers.time("server.self_us", (handle - children) * 1e6);
        self.latest.insert(family, (parsed, traced_plan));

        let served_report = match protocol::parse_flat(&response).map(|mut f| f.remove("report")) {
            Ok(Some(JsonValue::Str(r))) => r,
            _ => String::new(),
        };
        Ok(if response != socket_response {
            Some("in-process response differs from crserve's".to_owned())
        } else if served_report != solved.report {
            Some("the layers' own plan differs from the service's".to_owned())
        } else {
            None
        })
    }
}

pub fn serve_solve(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut stream = gen::SolveStream::new(ctx.seed);

    // A restarted service: the snapshot holds an earlier working set
    // that the stream never asks for again, so it is evicted over time.
    let warm_set = gen::hit_working_set(!ctx.seed);
    let warm_refs = serve_refs(&warm_set)?;
    let state = warm_snapshot(ctx, "solve-state", &warm_set, &warm_refs, &mut out)?;
    let mut layers = Layers::default();
    let mut replay = if traced {
        let copy = snapshot_copy(
            ctx,
            &state,
            "solve-trace-state",
            warm_set.len(),
            &mut layers,
            &mut out,
        )?;
        Some(SolveReplay::new(ctx, copy)?)
    } else {
        None
    };
    let (mut setup, pristine, server, mut conn) = start_serving(ctx, &state, "solve-pristine")?;

    let policy = RetryPolicy::new(ctx.seed);
    let mut responses: Vec<String> = Vec::new();
    let mut latencies = Vec::new();
    let mut retries = 0;
    let deadline = now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let start = now();
    let mut j = 0;
    while keep_going(j, traced.then_some(MIN_REQUESTS), deadline) {
        let line = route_line(&format!("r{j}"), &stream.get(j).render(Style::Plain));
        out.attempted += 1;
        match conn.route(&line, &policy) {
            Ok(r) => {
                retries += u64::from(r.retries);
                latencies.push(r.seconds * 1e3);
                responses.push(r.response);
            }
            Err(e) => {
                out.fail(format!("request {j}: {e}"));
                break;
            }
        }
        j += 1;
        if let Some(replay) = replay.as_mut() {
            if j % REPLAY_CHUNK == 0 || j == MIN_REQUESTS {
                let done = replay.handle_ms.len();
                for (k, response) in responses.iter().enumerate().skip(done) {
                    let line = route_line(&format!("r{k}"), &stream.get(k).render(Style::Plain));
                    let family = stream.items[k].0;
                    if let Some(e) = replay.step(family, &line, response, &mut layers)? {
                        out.fail(format!("request {k}: {e}"));
                    }
                }
            }
        }
    }
    let wall = secs(start);
    if traced {
        time_pings(&mut conn, &mut layers, &mut out);
    }
    let stats = checked_stats(&mut conn, responses.len() as u64, &mut out);
    if stats.get("service.hits").copied().unwrap_or(0) != 0 {
        out.fail("serve_solve repeated a request".to_owned());
    }
    let rss = server.peak_rss_mb()?;
    server.shutdown(conn)?;

    // Every response against a cold in-process reference.
    let texts: Vec<String> = (0..responses.len())
        .map(|j| stream.get(j).render(Style::Plain))
        .collect();
    let refs: Vec<Result<Reference, String>> = par_map(&texts, |t| check::serve_reference(t));
    let labels = solve_labels(&stream, responses.len());
    let mut ok = 0;
    let mut quality = Quality::default();
    for (j, (response, reference)) in responses.iter().zip(&refs).enumerate() {
        match reference {
            Ok(reference) if *response == reference.response(&format!("r{j}"), labels[j]) => {
                ok += 1;
                if j < MIN_REQUESTS {
                    quality.add(reference.quality);
                }
            }
            Ok(_) => out.fail(format!(
                "request {j}: response differs from the cold reference (expected cache path {})",
                labels[j]
            )),
            Err(e) => out.fail(format!("request {j}: reference: {e}")),
        }
    }
    out.failed = out.attempted - ok;
    out.quality = quality;
    let Some(replay) = replay else {
        time_startups(ctx, &pristine, SETUP_REPEATS / 2, &mut setup)?;
        out.metrics = e2e_metrics(&setup, &latencies, wall, ok, out.attempted, rss, quality)?;
        return Ok(out);
    };

    service_counters(&mut layers, &stats, retries);
    layers.spans_ms(&replay.sink);
    layers.search_counters(&replay.sink);
    out.info.push(format!(
        "warm starts reused {} nets and re-routed {}",
        replay.sink.counter_value("plan.warm.reused"),
        replay.sink.counter_value("plan.warm.rerouted")
    ));
    let ping = layers.med("transport.ping_rtt_ms");
    let path_ms: Vec<f64> = replay.handle_ms.iter().map(|h| ping + h).collect();
    attribute(&mut layers, &latencies, &path_ms, &mut out)?;
    out.metrics = layers.to_metrics();
    Ok(out)
}

// ---------------------------------------------------------------------
// flow_congested
// ---------------------------------------------------------------------

fn write_inputs(dir: &Path, set: &[Scn]) -> Result<(Vec<PathBuf>, Vec<String>), String> {
    let mut files = Vec::new();
    let mut texts = Vec::new();
    for (i, s) in set.iter().enumerate() {
        let path = dir.join(format!("c{i}.cr"));
        let text = s.render(Style::Plain);
        std::fs::write(&path, &text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        files.push(path);
        texts.push(text);
    }
    Ok((files, texts))
}

/// `n` `crplan` start-ups on the one-net scenario, checked; returns
/// their seconds.
fn floor_runs(ctx: &Ctx, dir: &Path, n: usize, out: &mut Outcome) -> Result<Vec<f64>, String> {
    let text = gen::floor_scenario();
    let path = dir.join("floor.cr");
    std::fs::write(&path, &text).map_err(|e| format!("writing floor scenario: {e}"))?;
    let reference = check::serve_reference(&text)?;
    let mut times = Vec::new();
    for _ in 0..n {
        let run = proc::crplan(&ctx.bin_dir, &path, &[])?;
        if run.stdout != reference.report {
            out.fail("crplan floor run: stdout differs from the reference".to_owned());
        }
        times.push(run.seconds);
    }
    Ok(times)
}

pub fn flow_congested(ctx: &Ctx, traced: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let set = gen::flow_set(ctx.seed);
    let dir = proc::fresh_dir(&ctx.work, "flow")?;
    let (files, texts) = write_inputs(&dir, &set)?;
    let refs: Vec<Reference> = par_map(&texts, |t| check::flow_reference(t))
        .into_iter()
        .collect::<Result<_, _>>()?;

    let mut setup = floor_runs(ctx, &dir, FLOOR_REPEATS - FLOOR_REPEATS / 2, &mut out)?;
    let mut quality = Quality::default();
    for r in &refs {
        quality.add(r.quality);
    }
    out.quality = quality;
    if traced {
        return flow_traced(ctx, &files, &texts, &refs, &setup, out);
    }
    let mut latencies = Vec::new();
    let (mut ok, mut rss) = (0, 0.0f64);
    let deadline = now() + std::time::Duration::from_secs_f64(ctx.seconds);
    let start = now();
    let mut k = 0;
    while keep_going(k, None, deadline) {
        let i = k % files.len();
        k += 1;
        out.attempted += 1;
        match proc::crplan(&ctx.bin_dir, &files[i], &["--flow"]) {
            Ok(run) => {
                latencies.push(run.seconds * 1e3);
                rss = rss.max(run.peak_rss_mb);
                if run.stdout == refs[i].report {
                    ok += 1;
                } else {
                    out.fail(format!(
                        "crplan --flow on c{i}.cr: stdout differs from the reference"
                    ));
                }
            }
            Err(e) => out.fail(e),
        }
    }
    let wall = secs(start);
    out.failed = out.attempted - ok;
    setup.extend(floor_runs(ctx, &dir, FLOOR_REPEATS / 2, &mut out)?);
    out.metrics = e2e_metrics(&setup, &latencies, wall, ok, out.attempted, rss, quality)?;
    Ok(out)
}

/// The traced `flow_congested` run: each `crplan --flow` invocation is
/// followed at once by the same scenario through the layers in-process,
/// so host drift hits both alike; passes repeat for the run's seconds.
fn flow_traced(
    ctx: &Ctx,
    files: &[PathBuf],
    texts: &[String],
    refs: &[Reference],
    setup: &[f64],
    mut out: Outcome,
) -> Result<Outcome, String> {
    let mut layers = Layers::default();
    for s in setup {
        layers.time("crplan.floor_ms", s * 1e3);
    }
    let floor = layers.med("crplan.floor_ms");
    let (mut latencies, mut path_ms) = (Vec::new(), Vec::new());
    let mut ok = 0;
    let start = now();
    let mut pass = 0;
    while pass == 0 || secs(start) < ctx.seconds {
        for (i, (file, (text, reference))) in files.iter().zip(texts.iter().zip(refs)).enumerate() {
            out.attempted += 1;
            match proc::crplan(&ctx.bin_dir, file, &["--flow"]) {
                Ok(run) if run.stdout == reference.report => {
                    ok += 1;
                    latencies.push(run.seconds * 1e3);
                }
                Ok(_) => {
                    out.fail(format!(
                        "crplan --flow on c{i}.cr: stdout differs from the reference"
                    ));
                    continue;
                }
                Err(e) => {
                    out.fail(e);
                    continue;
                }
            }
            let t = now();
            let parsed = scenario::parse(text).map_err(|e| e.to_string())?;
            let parse_s = secs(t);
            layers.time("scenario.parse_us", parse_s * 1e6);
            let sink = Arc::new(Sink::default());
            let planner = check::planner(&parsed, 1, Some(SharedTelemetry::new(sink.clone())));
            let t = now();
            let (plan, _) = planner
                .flow(&parsed.nets, &parsed.capacities, FlowConfig::default())
                .into_parts();
            let flow_s = secs(t);
            layers.time("flow.flow_ms", flow_s * 1e3);
            let t = now();
            let report_text = report::plan_report(&plan);
            let report_s = secs(t);
            layers.time("report.plan_report_us", report_s * 1e6);
            path_ms.push(floor + (parse_s + flow_s + report_s) * 1e3);
            if report_text != reference.report {
                out.fail("in-process flow plan differs from the reference".to_owned());
            }
            if pass == 0 {
                for name in ["flow.rounds", "flow.price.updates", "flow.ripups"] {
                    layers.count(name, sink.counter_value(name) as f64);
                }
                layers.count(
                    "flow.overflow.total",
                    sink.gauge_value("flow.overflow.total") as f64,
                );
                layers.search_counters(&sink);
                layers.spans_ms(&sink);
            }
        }
        pass += 1;
    }
    out.failed = out.attempted - ok;
    attribute(&mut layers, &latencies, &path_ms, &mut out)?;
    out.metrics = layers.to_metrics();
    Ok(out)
}
