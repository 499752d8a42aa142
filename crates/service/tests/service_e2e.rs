//! End-to-end and property tests for the routing service.
//!
//! The property tests pin the crate's central contract: a `route`
//! response carries the same bytes whether it was solved cold, answered
//! from the exact-match cache, warm-started from a near-miss entry, or
//! squeezed through a one-entry cache that evicts on every insert. The
//! binary tests drive the real `crserve` process over stdio and TCP and
//! check it survives malformed requests, admission rejections and armed
//! failpoints without dying.

use clockroute_cli::{report, scenario};
use clockroute_core::json::{validate_json, validate_jsonl};
use clockroute_core::SearchBudget;
use clockroute_elmore::GateLibrary;
use clockroute_grid::GridGraph;
use clockroute_plan::Planner;
use clockroute_service::protocol::{self, JsonValue};
use clockroute_service::{Service, ServiceConfig};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::process::{Command, Stdio};

/// A 16×16 scenario whose only variable is the position of one 3×3
/// hard block; terminals sit on x=0 / x=15 columns the block (x ∈
/// 1..=13) never reaches, so every variant is solvable.
fn scenario_text(bx: u32, by: u32) -> String {
    format!(
        "die 8mm 8mm\ngrid 16 16\nblock hard {bx} {by} {} {}\n\
         net comb name=a src=0,0 dst=15,15\nnet reg name=b src=0,8 dst=15,8 period=2000\n",
        bx + 2,
        by + 2
    )
}

fn route_line(id: &str, scenario_text: &str) -> String {
    format!(
        "{{\"id\":{},\"op\":\"route\",\"scenario\":{}}}",
        clockroute_core::json::json_string(id),
        clockroute_core::json::json_string(scenario_text),
    )
}

/// Replaces the cache label so hit/warm/cold/coalesced responses can
/// be compared for byte-identity of everything else.
fn normalize(response: &str) -> String {
    response
        .replace("\"cache\":\"hit\"", "\"cache\":\"cold\"")
        .replace("\"cache\":\"warm\"", "\"cache\":\"cold\"")
        .replace("\"cache\":\"coalesced\"", "\"cache\":\"cold\"")
}

/// The response a fresh service (empty cache) gives — the cold
/// reference every other path must reproduce.
fn cold_reference(text: &str) -> String {
    let service = Service::new(ServiceConfig::default());
    service.handle_line(&route_line("x", text))
}

/// What `crplan --quiet` prints for this scenario, computed through the
/// same library renderer the CLI uses (the CLI e2e suite pins that
/// equivalence against the real binary).
fn library_report(text: &str) -> String {
    let s = scenario::parse(text).expect("test scenario parses");
    let (gw, gh) = s.grid;
    let graph = GridGraph::from_floorplan(&s.floorplan, gw, gh);
    let plan = Planner::new(graph, s.tech, GateLibrary::paper_library())
        .reserve_routes(s.reserve)
        .budget(SearchBudget::unlimited())
        .jobs(1)
        .plan(&s.nets);
    report::plan_report(&plan)
}

fn report_field(response: &str) -> String {
    match protocol::parse_flat(response)
        .expect("route response is flat JSON")
        .remove("report")
    {
        Some(JsonValue::Str(s)) => s,
        other => panic!("no report field in {response}: {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Satellite (c), part 1: cache-hit and warm-start responses are
    /// byte-identical to a cold solve of the same scenario — for every
    /// shard count (sharding must only move locks, never bytes) and for
    /// one and several planner workers (warm starts run on the same
    /// parallel scheduler as cold solves).
    #[test]
    fn hit_and_warm_responses_match_cold(bx in 1u32..13, by in 1u32..13, dx in 1u32..13) {
        // Force a real block move (the vendored proptest has no
        // prop_assume); dx stays inside 1..=13 so the block fits.
        let dx = if dx == bx { bx % 12 + 1 } else { dx };
        let a = scenario_text(bx, by);
        let b = scenario_text(dx, by); // same base, moved block
        for (jobs, shards) in [(1, 1), (1, 2), (1, 8), (4, 1), (4, 2), (4, 8)] {
            let service = Service::new(ServiceConfig { shards, jobs, ..ServiceConfig::default() });

            let cold_a = service.handle_line(&route_line("x", &a));
            prop_assert!(cold_a.contains("\"cache\":\"cold\""), "{}", cold_a);

            // Exact repeat, plus a comment/CRLF-noised variant: both hits.
            let hit = service.handle_line(&route_line("x", &a));
            prop_assert!(hit.contains("\"cache\":\"hit\""), "{}", hit);
            prop_assert_eq!(normalize(&cold_a), normalize(&hit));
            let noisy = a.replace('\n', "  # c\r\n");
            let noisy_hit = service.handle_line(&route_line("x", &noisy));
            prop_assert!(noisy_hit.contains("\"cache\":\"hit\""), "{}", noisy_hit);
            prop_assert_eq!(normalize(&cold_a), normalize(&noisy_hit));

            // Near miss: warm-started (the cross-shard scan must find
            // A's entry whichever shard holds it), yet byte-identical
            // to B's cold solve.
            let warm = service.handle_line(&route_line("x", &b));
            prop_assert!(warm.contains("\"cache\":\"warm\""), "jobs {}, shards {}: {}", jobs, shards, warm);
            prop_assert_eq!(normalize(&warm), normalize(&cold_reference(&b)));
            prop_assert_eq!(service.metrics().counter_value("service.warm_reuse"), 1);

            // And the embedded report is exactly the library report —
            // i.e. `crplan --quiet` bytes.
            prop_assert_eq!(report_field(&warm), library_report(&b));
            prop_assert_eq!(report_field(&hit), library_report(&a));
        }
    }

    /// Satellite (c), part 2: a one-entry cache that evicts on every
    /// insert never changes any response — under any shard count.
    #[test]
    fn eviction_under_tiny_capacity_never_changes_responses(
        xs in proptest::collection::vec(1u32..13, 3..6),
    ) {
        for shards in [1usize, 2, 8] {
            let service = Service::new(ServiceConfig {
                cache_cap: 1,
                shards,
                ..ServiceConfig::default()
            });
            // Each position twice, interleaved, so almost every request
            // evicts the previous entry (and may warm-start from it: all
            // variants share a base).
            let mut sequence: Vec<u32> = xs.clone();
            sequence.extend(&xs);
            for &bx in &sequence {
                let text = scenario_text(bx, 7);
                let got = service.handle_line(&route_line("x", &text));
                prop_assert_eq!(
                    normalize(&got),
                    normalize(&cold_reference(&text)),
                    "shards {}, divergence at block x={}",
                    shards,
                    bx
                );
            }
            // With several shards the cap-1 budget spreads out (each
            // shard keeps at least one entry), so eviction pressure is
            // only guaranteed in the single-shard layout.
            if shards == 1
                && xs.iter().collect::<std::collections::BTreeSet<_>>().len() > 1
            {
                prop_assert!(
                    service.metrics().counter_value("service.evictions") > 0,
                    "capacity 1 with {} distinct scenarios must evict",
                    xs.len()
                );
            }
        }
    }
}

#[test]
fn stats_counters_track_the_three_paths() {
    let service = Service::new(ServiceConfig::default());
    let a = scenario_text(3, 3);
    let b = scenario_text(9, 3);
    // Every planner and search counter, as the metrics export lists it.
    let solver_counters = |service: &Service| -> Vec<(String, u64)> {
        let mut counters = service.metrics().counters();
        counters.retain(|(name, _)| name.starts_with("plan.") || name.starts_with("search."));
        counters
    };
    service.handle_line(&route_line("1", &a)); // cold
    let after_cold = solver_counters(&service);
    for layer in ["plan.", "search."] {
        assert!(
            after_cold.iter().any(|(name, _)| name.starts_with(layer)),
            "the cold solve emits {layer}* counters: {after_cold:?}"
        );
    }
    service.handle_line(&route_line("2", &a)); // hit
                                               // A hit replays stored bytes: it neither plans nor searches.
    assert_eq!(
        solver_counters(&service),
        after_cold,
        "a hit ran the solver"
    );
    service.handle_line(&route_line("3", &b)); // warm
    let m = service.metrics();
    assert_eq!(m.counter_value("service.requests"), 3);
    assert_eq!(m.counter_value("service.hits"), 1);
    assert_eq!(m.counter_value("service.misses"), 2);
    assert_eq!(m.counter_value("service.warm_reuse"), 1);
    assert_eq!(
        m.counter_value("service.coalesced"),
        0,
        "serial traffic never coalesces"
    );
    assert_eq!(m.counter_value("service.rejects"), 0);
    assert_eq!(m.gauge_value("service.cache.len"), 2);
    assert_eq!(m.gauge_value("service.cache.len.max"), 2);
    // Planner counters were replayed into the same recorder.
    assert!(
        m.counter_value("plan.nets.routed") > 0,
        "planner shards replayed"
    );
}

#[test]
fn cache_len_gauge_shrinks_after_eviction() {
    // Satellite regression: `service.cache.len` used to be reported
    // via gauge_max, so it could never reflect eviction shrink. Fill a
    // 2-entry single-shard cache, then insert a third scenario: the
    // last-value gauge must read 2 (two survivors), not climb to 3,
    // while the high-water mark keeps the pre-eviction peak.
    let service = Service::new(ServiceConfig {
        cache_cap: 2,
        shards: 1,
        ..ServiceConfig::default()
    });
    for (i, bx) in [3u32, 6, 9].iter().enumerate() {
        service.handle_line(&route_line(&format!("r{i}"), &scenario_text(*bx, 3)));
    }
    let m = service.metrics();
    assert_eq!(m.counter_value("service.evictions"), 1);
    assert_eq!(m.gauge_value("service.cache.len"), 2, "last value, not max");
    assert_eq!(m.gauge_value("service.cache.len.max"), 2);
    // The stats op re-reads the live length the same way.
    let stats = service.handle_line("{\"id\":\"s\",\"op\":\"stats\"}");
    assert!(stats.contains("\"service.cache.len\":2"), "{stats}");
}

#[test]
fn recovery_replay_lands_entries_in_the_right_shards() {
    // Entries persisted under one shard layout must recover correctly
    // under any other: the shard is derived from the fingerprint at
    // insert time, so replay re-routes each record wherever the new
    // layout wants it.
    let dir = std::env::temp_dir().join(format!("crserve-shard-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let texts: Vec<String> = [2u32, 5, 8, 11]
        .iter()
        .map(|&bx| scenario_text(bx, 6))
        .collect();
    let mut colds = Vec::new();
    {
        let service = Service::new(ServiceConfig {
            shards: 4,
            state: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        for (i, t) in texts.iter().enumerate() {
            colds.push(service.handle_line(&route_line(&format!("c{i}"), t)));
        }
        // No snapshot() call: the append log alone carries the state.
    }
    for shards in [1usize, 2, 8] {
        let reborn = Service::new(ServiceConfig {
            shards,
            state: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        assert_eq!(
            reborn.metrics().counter_value("service.persist.recovered"),
            texts.len() as u64,
            "shards {shards}"
        );
        for (i, t) in texts.iter().enumerate() {
            let got = reborn.handle_line(&route_line(&format!("c{i}"), t));
            assert!(
                got.contains("\"cache\":\"hit\""),
                "shards {shards}: recovered entry must hit: {got}"
            );
            assert_eq!(
                normalize(&got),
                normalize(&colds[i]),
                "shards {shards}: recovered bytes diverged"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Binary tests: the real `crserve` process.
// ---------------------------------------------------------------------

fn crserve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_crserve"))
}

/// Runs a whole stdio session (input written upfront, stdin closed) and
/// returns (stdout, exit success).
fn run_session(args: &[&str], envs: &[(&str, &str)], input: &str) -> (String, bool) {
    let mut child = crserve()
        .args(args)
        .arg("--quiet")
        .envs(envs.iter().copied())
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn crserve");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write session");
    let out = child.wait_with_output().expect("wait for crserve");
    (
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
        out.status.success(),
    )
}

#[test]
fn crserve_stdio_session_hits_every_path_and_exits_cleanly() {
    let good = scenario_text(4, 4);
    let session = [
        "{\"id\":\"p\",\"op\":\"ping\"}".to_owned(),
        route_line("r1", &good),
        route_line("r1", &good), // same id so the responses byte-compare
        "{oops".to_owned(),
        route_line("r3", "die 1mm 1mm\nnope\n"),
        route_line("r4", &good), // over the net cap below -> busy
        "{\"id\":\"s\",\"op\":\"stats\"}".to_owned(),
        "{\"id\":\"q\",\"op\":\"shutdown\"}".to_owned(),
    ]
    .join("\n");
    let (stdout, ok) = run_session(&["--max-nets", "2"], &[], &session);
    assert!(ok, "exit 0 after shutdown");
    validate_jsonl(&stdout).expect("every response line is valid JSON");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 8, "one response per request: {stdout}");
    assert!(lines[0].contains("\"pong\":true"));
    assert!(lines[1].contains("\"cache\":\"cold\""));
    assert!(lines[2].contains("\"cache\":\"hit\""));
    assert_eq!(normalize(lines[1]), normalize(lines[2]));
    assert!(lines[3].contains("\"status\":\"malformed\""));
    assert!(lines[4].contains("\"status\":\"error\""));
    assert!(lines[4].contains("scenario: line 2"));
    assert!(
        lines[5].contains("\"cache\":\"hit\""),
        "r4 repeats r1: {}",
        lines[5]
    );
    assert!(lines[6].contains("\"service.hits\":2"), "{}", lines[6]);
    assert!(lines[6].contains("\"service.malformed\":1"), "{}", lines[6]);
    assert!(lines[7].contains("\"bye\":true"));
}

#[test]
fn crserve_net_cap_answers_busy_not_death() {
    let big = scenario_text(4, 4); // 2 nets, cap 1 below
    let session = [route_line("r", &big), "{\"op\":\"shutdown\"}".to_owned()].join("\n");
    let (stdout, ok) = run_session(&["--max-nets", "1"], &[], &session);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].contains("\"status\":\"busy\""), "{}", lines[0]);
    assert!(lines[0].contains("2 nets, limit 1"), "{}", lines[0]);
    assert!(lines[1].contains("\"bye\":true"));
}

#[test]
fn crserve_report_bytes_equal_crplan_quiet_output() {
    let text = scenario_text(6, 2);
    let moved = scenario_text(11, 2);
    let session = [
        route_line("cold", &text),
        route_line("hit", &text),
        route_line("warm", &moved),
        "{\"op\":\"shutdown\"}".to_owned(),
    ]
    .join("\n");
    let (stdout, ok) = run_session(&[], &[], &session);
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(lines[0].contains("\"cache\":\"cold\""));
    assert!(lines[1].contains("\"cache\":\"hit\""));
    assert!(lines[2].contains("\"cache\":\"warm\""));
    // The embedded reports are the library renderer's bytes — the same
    // renderer `crplan --quiet` prints from (pinned by the CLI e2e
    // suite), so all three cache paths match the CLI byte-for-byte.
    assert_eq!(report_field(lines[0]), library_report(&text));
    assert_eq!(report_field(lines[1]), library_report(&text));
    assert_eq!(report_field(lines[2]), library_report(&moved));
}

#[test]
fn crserve_survives_armed_failpoint_and_keeps_serving() {
    let text = scenario_text(4, 4);
    let session = [
        route_line("f", &text),
        "{\"id\":\"p\",\"op\":\"ping\"}".to_owned(),
        route_line("g", &scenario_text(9, 9)),
        "{\"op\":\"shutdown\"}".to_owned(),
    ]
    .join("\n");
    // The failpoint panics the first routing attempt of each net; the
    // planner converts it into a failed/degraded net, the service stays
    // up and keeps answering.
    let (stdout, ok) = run_session(
        &[],
        &[("CLOCKROUTE_FAILPOINTS", "plan::net=panic@1")],
        &session,
    );
    assert!(ok, "armed failpoint must not kill the service");
    validate_jsonl(&stdout).expect("all responses valid under failpoints");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 4, "{stdout}");
    assert!(
        lines[0].contains("\"status\":\"ok\"") || lines[0].contains("\"status\":\"error\""),
        "{}",
        lines[0]
    );
    assert!(
        lines[1].contains("\"pong\":true"),
        "still alive: {}",
        lines[1]
    );
    assert!(lines[2].contains("\"status\":\"ok\""), "{}", lines[2]);
    assert!(lines[3].contains("\"bye\":true"));
}

#[test]
fn crserve_pins_malformed_input_behaviour() {
    // Satellite pins: each malformed shape yields exactly one error
    // response or a clean close — never a dead loop, never a crash.
    // 1. Oversized line: one `malformed` response, then service resumes.
    let over = "x".repeat(4096);
    let session = format!("{over}\n{{\"op\":\"ping\"}}\n{{\"op\":\"shutdown\"}}\n");
    let (stdout, ok) = run_session(&["--max-line", "256"], &[], &session);
    assert!(ok, "oversized line must not kill the service");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(
        lines[0].contains("\"status\":\"malformed\""),
        "{}",
        lines[0]
    );
    assert!(lines[0].contains("exceeds 256 bytes"), "{}", lines[0]);
    assert!(lines[1].contains("\"pong\":true"), "{}", lines[1]);
    assert!(lines[2].contains("\"bye\":true"), "{}", lines[2]);

    // 2. Half-written final line (EOF before the newline): answered,
    // then clean exit.
    let (stdout, ok) = run_session(&[], &[], "{\"op\":\"ping\"}\n{\"op\":\"ping\"}");
    assert!(ok);
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 2, "half-written tail answered: {stdout}");
    assert!(lines[1].contains("\"pong\":true"), "{}", lines[1]);

    // 3. EOF mid-escape (the line dies inside a `\` sequence): one
    // malformed response, clean close.
    let (stdout, ok) = run_session(&[], &[], "{\"id\":\"x\\");
    assert!(ok, "EOF mid-escape is a clean close");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), 1, "{stdout}");
    assert!(
        lines[0].contains("\"status\":\"malformed\""),
        "{}",
        lines[0]
    );
    validate_jsonl(&stdout).expect("error response is valid JSON");
}

#[test]
fn crserve_state_dir_recovers_across_restarts() {
    let dir = std::env::temp_dir().join(format!("crserve-e2e-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = dir.to_str().expect("utf-8 temp path").to_owned();
    let text = scenario_text(5, 10);

    // First life: solve cold, exit cleanly on EOF (snapshot on exit).
    let session = route_line("s", &text) + "\n";
    let (stdout, ok) = run_session(&["--state", &state], &[], &session);
    assert!(ok);
    let first = stdout.lines().next().expect("one response").to_owned();
    assert!(first.contains("\"cache\":\"cold\""), "{first}");
    assert!(dir.join("cache.snap").exists(), "snapshot written on exit");

    // Second life: the same request is a verified recovered hit, and
    // the response bytes are identical apart from the label.
    let (stdout, ok) = run_session(&["--state", &state], &[], &session);
    assert!(ok);
    let second = stdout.lines().next().expect("one response").to_owned();
    assert!(second.contains("\"cache\":\"hit\""), "recovered: {second}");
    assert_eq!(normalize(&first), normalize(&second));

    // A corrupted snapshot degrades to a cold solve, never an error.
    let snap = dir.join("cache.snap");
    let mut bytes = std::fs::read(&snap).expect("read snapshot");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&snap, &bytes).expect("corrupt snapshot");
    let (stdout, ok) = run_session(&["--state", &state], &[], &session);
    assert!(ok, "corrupt snapshot must not kill the service");
    let third = stdout.lines().next().expect("one response").to_owned();
    assert!(
        third.contains("\"cache\":\"cold\""),
        "dropped, re-solved: {third}"
    );
    assert_eq!(normalize(&first), normalize(&third));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn permanent_rejections_never_hint_a_retry() {
    let session = [
        route_line("r", &scenario_text(4, 4)),
        "{\"op\":\"shutdown\"}".to_owned(),
    ]
    .join("\n");
    let (stdout, ok) = run_session(&["--max-nets", "1"], &[], &session);
    assert!(ok);
    assert!(stdout.contains("\"status\":\"busy\""), "{stdout}");
    assert!(
        !stdout.contains("retry_after_ms"),
        "permanent rejection must not hint: {stdout}"
    );
}

#[test]
fn busy_responses_hint_and_the_retry_policy_converges() {
    use clockroute_service::RetryPolicy;
    use std::sync::Arc;
    use std::time::Duration;
    // One in-flight slot; a background solve holds it while the
    // foreground retries under the client policy. Whether contention
    // is actually observed is timing-dependent — the assertions are
    // that every busy carries a hint and the retry loop converges.
    let service = Arc::new(Service::new(ServiceConfig {
        max_inflight: 1,
        ..ServiceConfig::default()
    }));
    let big = "die 24mm 24mm\ngrid 48 48\nblock hard 10 10 20 20\n\
               net comb name=a src=0,0 dst=47,47\nnet comb name=b src=0,47 dst=47,0\n\
               net reg name=c src=0,24 dst=47,24 period=4000\n"
        .to_owned();
    // Either side can lose the race for the single slot, so both walk
    // the client policy until admitted.
    fn retry_until_ok(service: &Service, line: &str) -> String {
        let policy = RetryPolicy {
            base_ms: 2,
            cap_ms: 40,
            max_attempts: 200,
            seed: 7,
        };
        let mut attempt = 0u32;
        loop {
            let got = service.handle_line(line);
            if !got.contains("\"status\":\"busy\"") {
                return got;
            }
            assert!(
                got.contains("\"retry_after_ms\":"),
                "busy without hint: {got}"
            );
            let delay = policy
                .backoff_ms(attempt, Some(1))
                .expect("retry budget exhausted while the server stayed busy");
            attempt += 1;
            std::thread::sleep(Duration::from_millis(delay));
        }
    }
    let bg = {
        let service = Arc::clone(&service);
        let big = big.clone();
        std::thread::spawn(move || retry_until_ok(&service, &route_line("bg", &big)))
    };
    let converged = retry_until_ok(&service, &route_line("fg", &scenario_text(4, 4)));
    assert!(converged.contains("\"status\":\"ok\""), "{converged}");
    let bg = bg.join().expect("background solve");
    assert!(bg.contains("\"status\":\"ok\""), "{bg}");
}

#[test]
fn crserve_rejects_unknown_flags_with_exit_two() {
    // Warm starts are always on, with a fixed delta cap: no flag tunes
    // them.
    for args in [
        &["--frobnicate"][..],
        &["--no-warm"],
        &["--warm-max-dirty", "8"],
    ] {
        let status = crserve()
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .expect("spawn crserve");
        assert_eq!(status.code(), Some(2), "{args:?}");
    }
}

#[test]
fn crserve_unwritable_metrics_path_exits_two() {
    let status = crserve()
        .args(["--metrics", "/nonexistent-dir/metrics.json"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn crserve");
    assert_eq!(status.code(), Some(2), "preflight fails before serving");
}

/// Starts `crserve --tcp` on an ephemeral port and returns the child
/// and the address from its banner.
fn spawn_tcp() -> (std::process::Child, String) {
    let mut child = crserve()
        .args(["--tcp", "127.0.0.1:0", "--quiet"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn crserve --tcp");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut banner = String::new();
    stderr.read_line(&mut banner).expect("read banner");
    let addr = banner
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner {banner:?}"))
        .to_owned();
    (child, addr)
}

#[test]
fn crserve_tcp_serves_concurrent_connections() {
    use std::net::TcpStream;
    let (mut child, addr) = spawn_tcp();

    let ask = |line: &str| -> String {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        writeln!(stream, "{line}").expect("send");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut response = String::new();
        reader.read_line(&mut response).expect("receive");
        response.trim_end().to_owned()
    };

    let pong = ask("{\"id\":\"t1\",\"op\":\"ping\"}");
    assert!(pong.contains("\"pong\":true"), "{pong}");
    let routed = ask(&route_line("t2", &scenario_text(5, 5)));
    assert!(routed.contains("\"cache\":\"cold\""), "{routed}");
    validate_json(&routed).expect("valid route response over TCP");
    let bye = ask("{\"id\":\"t3\",\"op\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "{bye}");

    let status = child.wait().expect("crserve exits after shutdown");
    assert!(status.success(), "clean TCP shutdown");
}

#[test]
fn crserve_tcp_answers_sequential_pings_without_a_nagle_stall() {
    use std::net::TcpStream;
    use std::time::Instant;
    let (mut child, addr) = spawn_tcp();
    // A plain client: TCP_NODELAY stays off, as in most client
    // libraries, so a response whose newline trailed in its own write
    // would wait for this side's delayed ACK (~40 ms) every time.
    let mut stream = TcpStream::connect(&addr).expect("connect");
    assert!(!stream.nodelay().expect("read TCP_NODELAY"));
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut rtts_ms: Vec<f64> = (0..20)
        .map(|i| {
            // One write per request, so the client cannot stall itself.
            let request = format!("{{\"id\":\"p{i}\",\"op\":\"ping\"}}\n");
            let started = Instant::now();
            stream.write_all(request.as_bytes()).expect("send ping");
            let mut response = String::new();
            reader.read_line(&mut response).expect("receive pong");
            let rtt = started.elapsed().as_secs_f64() * 1e3;
            assert_eq!(
                response,
                format!("{{\"id\":\"p{i}\",\"status\":\"ok\",\"pong\":true}}\n")
            );
            rtt
        })
        .collect();
    stream
        .write_all(b"{\"op\":\"shutdown\"}\n")
        .expect("send shutdown");
    let mut bye = String::new();
    reader.read_line(&mut bye).expect("receive bye");
    assert!(child.wait().expect("crserve exits").success());

    rtts_ms.sort_by(f64::total_cmp);
    let median = rtts_ms[rtts_ms.len() / 2];
    assert!(
        median < 10.0,
        "median ping RTT {median:.2} ms; all: {rtts_ms:?}"
    );
}
