//! Service cache latency table: per-request wall-clock for the three
//! `crserve` answer paths — cold solve, exact-match cache hit, and
//! near-miss warm start — on growing grids.
//!
//! Before any time is reported, every path's response is asserted
//! identical (modulo the `cache` label) to a cold solve on a fresh
//! service, so the table can never trade correctness for speed. The
//! run fails loudly if a cache hit is not at least 10× faster than the
//! cold solve it replays.
//!
//! Usage: `cargo run --release -p clockroute-bench --bin servebench [max_grid]`
//! (default 100; pass 200 to add the paper-sized grid).
//!
//! Besides the table, each run appends one JSONL record per grid to
//! `BENCH_serve.json` at the workspace root — cold/hit/warm latencies
//! plus the snapshot recovery time — so future PRs can diff service
//! performance as a trajectory, and one `serve.retry` record pinning
//! the deterministic client backoff schedule.

use clockroute_service::protocol::{self, JsonValue};
use clockroute_service::{Admission, RetryPolicy, Service, ServiceConfig};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// A scenario with `nets` short registered nets alternating between the
/// left and right die edges, plus one hard block in the right-middle
/// whose position is the only variable. A search footprint is the
/// arena's bounding box — roughly the cost-`len` diamond around the
/// net — so moving the block dirties only the right-middle corridors:
/// left-band nets and far right-band nets replay from the cached solve,
/// the few near the block re-route.
fn scenario_text(grid: u32, nets: u32, block_x: u32) -> String {
    let mut text = format!("die 25mm 25mm\ngrid {grid} {grid}\n");
    text.push_str(&format!(
        "block hard {block_x} {} {} {}\n",
        grid / 2 - 2,
        block_x + 3,
        grid / 2 + 1
    ));
    let len = grid / 5;
    for i in 0..nets {
        let y = 2 + i * (grid - 4) / nets;
        let (x0, x1) = if i % 2 == 0 {
            (1, 1 + len)
        } else {
            (grid - 2 - len, grid - 2)
        };
        text.push_str(&format!(
            "net reg name=n{i} src={x0},{y} dst={x1},{y} period=400\n"
        ));
    }
    text
}

fn route_line(text: &str) -> String {
    format!(
        "{{\"id\":\"b\",\"op\":\"route\",\"scenario\":{}}}",
        clockroute_core::json::json_string(text)
    )
}

/// A route response's fields apart from its `cache` label, which is
/// the only field allowed to differ between answer paths.
fn normalize(response: &str) -> BTreeMap<String, JsonValue> {
    let mut fields = protocol::parse_flat(response)
        .unwrap_or_else(|e| panic!("unparseable response {response}: {e}"));
    fields.remove("cache");
    fields
}

/// Times one request on `service`, asserting the response took the
/// expected cache path and matches `reference` field for field apart
/// from that label.
fn timed(service: &Service, line: &str, path: &str, reference: &str) -> f64 {
    // crlint-allow: CR003 bench harness measures wall-clock by design; timings are reported, never byte-compared
    let start = Instant::now();
    let response = service.handle_line(line);
    let seconds = start.elapsed().as_secs_f64();
    let cache = protocol::parse_flat(&response).map(|mut f| f.remove("cache"));
    assert_eq!(
        cache,
        Ok(Some(JsonValue::Str(path.to_owned()))),
        "expected a {path} response, got: {response}"
    );
    assert_eq!(
        normalize(&response),
        normalize(reference),
        "{path} response diverged from the cold reference"
    );
    seconds
}

/// Appends one JSONL record to `BENCH_serve.json` at the workspace
/// root. Best-effort: a read-only checkout costs the trajectory entry,
/// not the bench run.
fn append_trajectory(record: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| writeln!(f, "{record}"));
    if let Err(e) = appended {
        eprintln!("warning: cannot append to BENCH_serve.json: {e}");
    }
}

/// Populates a state directory with the solve for `line`, restarts a
/// service on it, and returns how long recovery (verified replay +
/// compaction) took. Asserts the recovered entry answers as a hit with
/// the reference bytes.
fn timed_recovery(line: &str, reference: &str, tag: &str) -> f64 {
    let dir = std::env::temp_dir().join(format!("servebench-state-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServiceConfig {
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let first = Service::new(config.clone());
    first.handle_line(line);
    drop(first); // "crash": only the fsynced append log survives

    // crlint-allow: CR003 bench harness measures wall-clock by design; timings are reported, never byte-compared
    let start = Instant::now();
    let recovered = Service::new(config);
    let seconds = start.elapsed().as_secs_f64();
    assert_eq!(
        recovered.metrics().counter_value("service.persist.recovered"),
        1,
        "snapshot replay lost the entry"
    );
    let _ = timed(&recovered, line, "hit", reference);
    let _ = std::fs::remove_dir_all(&dir);
    seconds
}

/// Walks the deterministic client retry policy against a saturated
/// admission gate (the in-flight "solve" completes after three
/// rejections), returning the busy hint, the attempts taken, and the
/// full delay schedule. No clock involved: the schedule is a pure
/// function of the seed, which is what makes it a trajectory record
/// worth diffing.
fn retry_walk() -> (u64, u32, Vec<u64>) {
    let gate = Admission::new(1, 64, Some(50));
    let mut held = Some(gate.try_admit(1).expect("free slot"));
    let policy = RetryPolicy::new(0xC10C);
    let mut attempts = 0u32;
    let mut hint = 0u64;
    let mut delays = Vec::new();
    loop {
        match gate.try_admit(1) {
            Ok(_permit) => return (hint, attempts, delays),
            Err(rejection) => {
                hint = rejection.retry_after_ms().expect("busy is transient");
                let delay = policy
                    .backoff_ms(attempts, Some(hint))
                    .expect("schedule long enough for three rejections");
                delays.push(delay);
                attempts += 1;
                if attempts == 3 {
                    held.take(); // the in-flight solve finishes
                }
            }
        }
    }
}

/// Drives `clients` concurrent client threads against one sharded
/// service, each firing `PER_CLIENT` requests over a seeded mix of the
/// (pre-warmed) distinct scenarios. Every response is asserted
/// byte-identical to its cold reference before its latency counts.
/// Returns `(req_per_s, p50_ms, p99_ms)`.
fn concurrent_throughput(clients: usize, texts: &[String], refs: &[String]) -> (f64, f64, f64) {
    const PER_CLIENT: usize = 200;
    let service = Service::new(ServiceConfig {
        max_inflight: clients,
        ..ServiceConfig::default()
    });
    // Pre-warm every distinct scenario so the timed section measures
    // steady-state concurrent serving, not first-solve planning.
    for (text, reference) in texts.iter().zip(refs) {
        let got = service.handle_line(&route_line(text));
        assert_eq!(normalize(&got), normalize(reference));
    }

    let barrier = std::sync::Barrier::new(clients + 1);
    let (service, barrier, texts, refs) = (&service, &barrier, texts, refs);
    // crlint-allow: CR004 bench harness drives real concurrent clients; the service under test owns its own pool
    let (wall, latencies) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(PER_CLIENT);
                    barrier.wait();
                    for r in 0..PER_CLIENT {
                        let idx = (clockroute_core::canon::mix64(((c as u64) * 1009) ^ (r as u64))
                            % texts.len() as u64) as usize;
                        let line = route_line(&texts[idx]);
                        // crlint-allow: CR003 bench harness measures wall-clock by design; timings are reported, never byte-compared
                        let start = Instant::now();
                        let got = service.handle_line(&line);
                        latencies.push(start.elapsed().as_secs_f64() * 1e3);
                        assert_eq!(
                            normalize(&got),
                            normalize(&refs[idx]),
                            "client {c} request {r} diverged"
                        );
                    }
                    latencies
                })
            })
            .collect();
        barrier.wait();
        // crlint-allow: CR003 bench harness measures wall-clock by design; timings are reported, never byte-compared
        let start = Instant::now();
        let mut latencies = Vec::with_capacity(clients * PER_CLIENT);
        for h in handles {
            latencies.extend(h.join().expect("client thread"));
        }
        (start.elapsed().as_secs_f64(), latencies)
    });

    let mut sorted = latencies;
    sorted.sort_by(f64::total_cmp);
    let p50 = sorted[sorted.len() / 2];
    let p99 = sorted[(sorted.len() * 99 / 100).min(sorted.len() - 1)];
    ((clients * PER_CLIENT) as f64 / wall, p50, p99)
}

fn main() {
    let max_grid: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(100);
    println!("# Service cache latency (cold / hit / warm)");
    println!();
    println!(
        "Each row: one scenario solved cold, replayed as an exact-match hit \
         (best of 5), then re-requested with the hard block moved (warm \
         start: only nets whose search footprints intersect the blockage \
         delta re-route). All responses asserted byte-identical to a fresh \
         cold solve before timing is reported."
    );
    println!();
    println!("| grid | nets | cold s | hit s | warm s | recovery s | hit speedup | warm speedup |");
    println!("|------|------|--------|-------|--------|------------|-------------|--------------|");

    for &(grid, nets) in [(60u32, 8u32), (100, 10), (200, 10)]
        .iter()
        .filter(|&&(g, _)| g <= max_grid)
    {
        let a = scenario_text(grid, nets, grid * 5 / 8);
        let b = scenario_text(grid, nets, grid * 3 / 4);
        let line_a = route_line(&a);
        let line_b = route_line(&b);

        // Fresh-service cold solves are the byte-identity references.
        let ref_a = Service::new(ServiceConfig::default()).handle_line(&line_a);
        let ref_b = Service::new(ServiceConfig::default()).handle_line(&line_b);

        let service = Service::new(ServiceConfig::default());
        let cold = timed(&service, &line_a, "cold", &ref_a);
        let hit = (0..5)
            .map(|_| timed(&service, &line_a, "hit", &ref_a))
            .fold(f64::INFINITY, f64::min);
        let warm = timed(&service, &line_b, "warm", &ref_b);

        let recovery = timed_recovery(&line_a, &ref_a, &format!("g{grid}"));

        let hit_speedup = cold / hit;
        let warm_speedup = cold / warm;
        println!(
            "| {grid}×{grid} | {nets} | {cold:.4} | {hit:.6} | {warm:.4} | {recovery:.4} | {hit_speedup:.0}× | {warm_speedup:.2}× |"
        );
        assert!(
            hit_speedup >= 10.0,
            "cache hit must be ≥10× faster than cold (got {hit_speedup:.1}×)"
        );
        // Only meaningful when the solve dominates disk latency: on a
        // fast box a sub-millisecond cold solve loses to the fsync-bound
        // replay no matter how cheap verification is.
        assert!(
            recovery < cold || cold < 0.002,
            "replaying a verified snapshot ({recovery:.4}s) must beat re-solving ({cold:.4}s)"
        );
        append_trajectory(&format!(
            "{{\"bench\":\"serve\",\"grid\":{grid},\"nets\":{nets},\"cold_s\":{cold:.6},\
             \"hit_s\":{hit:.6},\"warm_s\":{warm:.6},\"recovery_s\":{recovery:.6}}}"
        ));
    }

    let (hint, attempts, delays) = retry_walk();
    let delays_json: Vec<String> = delays.iter().map(u64::to_string).collect();
    println!();
    println!(
        "Client backoff (seed 0xC10C, server hint {hint} ms): {attempts} busy \
         rejections, delays {delays:?} ms — deterministic, so this schedule \
         is pinned in the trajectory record."
    );
    append_trajectory(&format!(
        "{{\"bench\":\"serve.retry\",\"hint_ms\":{hint},\"attempts\":{attempts},\
         \"delays_ms\":[{}]}}",
        delays_json.join(",")
    ));

    // Concurrent clients: seeded mix of duplicate/distinct scenarios
    // against the sharded cache, hit-heavy steady state.
    let texts: Vec<String> = [30u32, 34, 38, 42]
        .iter()
        .map(|&bx| scenario_text(60, 8, bx))
        .collect();
    let refs: Vec<String> = texts
        .iter()
        .map(|t| Service::new(ServiceConfig::default()).handle_line(&route_line(t)))
        .collect();
    println!();
    println!("## Concurrent clients (grid 60×60, 4 scenarios, hit-heavy)");
    println!();
    println!("| clients | req/s | p50 ms | p99 ms |");
    println!("|---------|-------|--------|--------|");
    let mut single_req_s = 0.0;
    for clients in [1usize, 4] {
        let (req_s, p50, p99) = concurrent_throughput(clients, &texts, &refs);
        println!("| {clients} | {req_s:.0} | {p50:.4} | {p99:.4} |");
        append_trajectory(&format!(
            "{{\"bench\":\"serve.concurrent\",\"clients\":{clients},\"req_s\":{req_s:.1},\
             \"p50_ms\":{p50:.4},\"p99_ms\":{p99:.4}}}"
        ));
        if clients == 1 {
            single_req_s = req_s;
        } else {
            // Honest bar for a 1-CPU container: hits are CPU-bound, so
            // extra clients cannot multiply throughput there — but the
            // sharded locks and bounded pool must not *lose* meaningful
            // throughput either. On multi-core hosts this passes with
            // headroom.
            assert!(
                req_s >= 0.75 * single_req_s,
                "{clients} clients ({req_s:.0} req/s) fell below 75% of the \
                 single-client baseline ({single_req_s:.0} req/s)"
            );
        }
    }

    println!();
    println!(
        "Interpretation: a hit replays stored bytes (no planning), so its \
         speedup is orders of magnitude and bounded only by hashing and \
         response assembly. Warm starts still pay for re-routing the nets \
         whose footprints intersect the moved block — footprints are \
         conservative over-approximations (arena bounding boxes), so the \
         warm win grows with die size and shrinks as the delta cuts \
         through more traffic."
    );
}
