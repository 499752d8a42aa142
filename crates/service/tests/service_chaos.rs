//! Chaos harness for the crash-safe service (DESIGN.md §13).
//!
//! The single invariant under every fault schedule: **a completed
//! response line is byte-identical to a cold solve** of the same
//! scenario. Faults may cost a connection, a cache entry, or a
//! process — they may never change response bytes or kill the serve
//! loop. The suite drives three layers:
//!
//! * in-process `Service::serve` under injected read/write/persist
//!   faults (thread-local failpoints, `serve::*` sites);
//! * the real `crserve` binary killed with SIGKILL mid-burst and
//!   restarted on the same `--state` directory;
//! * SIGTERM as a graceful drain: exit 0, snapshot written, warm
//!   cache on the next start.

use clockroute_core::failpoint::{self, FailAction};
use clockroute_core::json::json_string;
use clockroute_service::{Service, ServiceConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A 16×16 scenario parameterized by one hard block's position; every
/// variant is solvable (terminals sit on columns the block never
/// reaches).
fn scenario_text(bx: u32, by: u32) -> String {
    format!(
        "die 8mm 8mm\ngrid 16 16\nblock hard {bx} {by} {} {}\n\
         net comb name=a src=0,0 dst=15,15\nnet reg name=b src=0,8 dst=15,8 period=2000\n",
        bx + 2,
        by + 2
    )
}

fn route_line(id: &str, text: &str) -> String {
    format!(
        "{{\"id\":{},\"op\":\"route\",\"scenario\":{}}}",
        json_string(id),
        json_string(text)
    )
}

fn normalize(response: &str) -> String {
    response
        .replace("\"cache\":\"hit\"", "\"cache\":\"cold\"")
        .replace("\"cache\":\"warm\"", "\"cache\":\"cold\"")
        .replace("\"cache\":\"coalesced\"", "\"cache\":\"cold\"")
}

/// The reference bytes every other path must reproduce: a fresh
/// service, empty cache, no faults.
fn cold_reference(id: &str, text: &str) -> String {
    let service = Service::new(ServiceConfig::default());
    service.handle_line(&route_line(id, text))
}

fn tmp_state(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clockroute-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// In-process fault schedules.
// ---------------------------------------------------------------------

/// Runs one stdio-style session under the given failpoint spec and
/// checks the invariant: every newline-terminated output line equals,
/// byte-for-byte, the corresponding response of the *same session*
/// replayed with no faults (so cold/hit/warm labels are part of the
/// expectation); at most one trailing partial line exists and it is a
/// prefix of its expected response (a torn write ends the connection,
/// it never emits wrong bytes). Faults can only shorten the session:
/// processed requests are always a prefix of the input.
fn run_faulted_session(tag: &str, spec: &str, requests: &[String]) {
    let reference = Service::new(ServiceConfig::default());
    let expected: Vec<String> = requests.iter().map(|r| reference.handle_line(r)).collect();

    // Persistence on, so `serve::persist` / `serve::fsync` faults have
    // appends to hit; armed after construction so recovery is clean.
    let dir = tmp_state(tag);
    let service = Service::new(ServiceConfig {
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    failpoint::disarm_all();
    failpoint::arm_from_spec(spec).expect("valid spec");
    let input = requests.join("\n") + "\n";
    let mut out = Vec::new();
    // Read or write faults surface as io::Error from serve — the
    // connection dies, the service object stays usable.
    let _ = service.serve(input.as_bytes(), &mut out);
    failpoint::disarm_all();

    let text = String::from_utf8(out).expect("utf-8 responses");
    let complete = text.ends_with('\n');
    let lines: Vec<&str> = text.split('\n').filter(|l| !l.is_empty()).collect();
    assert!(lines.len() <= expected.len(), "extra responses: {text:?}");
    for (i, line) in lines.iter().enumerate() {
        let want = &expected[i];
        if i + 1 == lines.len() && !complete {
            assert!(
                want.starts_with(line),
                "torn final line is not a prefix of the expected response:\n \
                 got  {line}\n want {want}"
            );
        } else {
            assert_eq!(
                line, want,
                "completed response #{i} diverged under spec {spec}"
            );
        }
    }

    // The service survived: a fresh serve session still answers.
    let mut out = Vec::new();
    service
        .serve("{\"op\":\"ping\"}\n".as_bytes(), &mut out)
        .expect("post-fault session");
    let out = String::from_utf8(out).expect("utf-8 response");
    assert!(out.contains("\"pong\":true"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn read_write_and_persist_faults_never_corrupt_completed_responses() {
    let texts: Vec<String> = (1..=4).map(|i| scenario_text(i * 3, 5)).collect();
    let requests: Vec<String> = texts
        .iter()
        .enumerate()
        .map(|(i, t)| route_line(&format!("r{i}"), t))
        .collect();
    for (i, spec) in [
        "serve::read=short@2",
        "serve::read=ioerr@3",
        "serve::write=short@2",
        "serve::write=ioerr@3",
        "serve::read=short@1+",
        "serve::persist=ioerr@1+",
        "serve::fsync=ioerr@1+",
        "serve::read=short@2,serve::write=short@3",
    ]
    .iter()
    .enumerate()
    {
        run_faulted_session(&format!("faults-{i}"), spec, &requests);
    }
}

#[test]
fn persist_faults_are_counted_and_cost_durability_not_answers() {
    let dir = tmp_state("persist-faults");
    failpoint::disarm_all();
    let service = Service::new(ServiceConfig {
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    // Every append fails from here on.
    failpoint::arm_sticky("serve::persist", FailAction::IoError, 1);
    let text = scenario_text(4, 4);
    let got = service.handle_line(&route_line("x", &text));
    failpoint::disarm_all();
    assert_eq!(got, cold_reference("x", &text), "answer unaffected");
    assert!(
        service.metrics().counter_value("service.persist.errors") >= 1,
        "failed append counted"
    );
    // The rolled-back log is still consistent: a restart recovers an
    // empty (not corrupt) cache and serving works.
    let reborn = Service::new(ServiceConfig {
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    assert_eq!(reborn.metrics().counter_value("service.persist.dropped"), 0);
    let again = reborn.handle_line(&route_line("x", &text));
    assert!(again.contains("\"cache\":\"cold\""), "{again}");
    assert_eq!(again, cold_reference("x", &text));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovered_cache_hits_still_beat_cold() {
    let dir = tmp_state("hit-latency");
    let config = ServiceConfig {
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let text = scenario_text(7, 7);
    let first = Service::new(config.clone());
    let started = Instant::now();
    first.handle_line(&route_line("x", &text));
    let cold = started.elapsed();
    drop(first);

    let reborn = Service::new(config);
    assert_eq!(
        reborn.metrics().counter_value("service.persist.recovered"),
        1
    );
    let started = Instant::now();
    let hit = reborn.handle_line(&route_line("x", &text));
    let warm = started.elapsed();
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    assert!(
        warm < cold,
        "recovered hit ({warm:?}) must beat the cold solve ({cold:?})"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Process-level chaos: SIGKILL mid-burst, SIGTERM drain.
// ---------------------------------------------------------------------

fn crserve() -> Command {
    Command::new(env!("CARGO_BIN_EXE_crserve"))
}

/// Spawns `crserve --tcp 127.0.0.1:0 --state <dir>` and returns the
/// child plus the bound address parsed from the stderr banner.
fn spawn_tcp(state: &Path) -> (Child, String) {
    let mut child = crserve()
        .args(["--tcp", "127.0.0.1:0", "--quiet"])
        .args(["--state", state.to_str().expect("utf-8 temp path")])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn crserve --tcp --state");
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

fn ask(addr: &str, line: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect");
    writeln!(stream, "{line}").expect("send");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("receive");
    response.trim_end().to_owned()
}

#[test]
fn sigkill_mid_burst_loses_no_answered_entry() {
    let dir = tmp_state("sigkill");
    let (mut child, addr) = spawn_tcp(&dir);
    let texts: Vec<String> = (1..=5).map(|i| scenario_text(i * 2, 9)).collect();
    let mut answered = Vec::new();
    for (i, text) in texts.iter().enumerate() {
        let id = format!("k{i}");
        let got = ask(&addr, &route_line(&id, text));
        // Every response in the burst obeys the invariant already.
        assert_eq!(normalize(&got), normalize(&cold_reference(&id, text)));
        answered.push((id, text.clone(), got));
    }
    // SIGKILL: no drain, no snapshot — only the per-insert appends
    // (each fsynced before its response was written) survive.
    child.kill().expect("SIGKILL crserve");
    let _ = child.wait();

    let (mut reborn, addr) = spawn_tcp(&dir);
    for (id, text, before) in &answered {
        let got = ask(&addr, &route_line(id, text));
        assert!(
            got.contains("\"cache\":\"hit\""),
            "answered entry lost across SIGKILL: {got}"
        );
        assert_eq!(
            normalize(&got),
            normalize(before),
            "bytes changed across crash"
        );
    }
    let stats = ask(&addr, "{\"op\":\"stats\"}");
    assert!(stats.contains("\"service.persist.recovered\":5"), "{stats}");
    let bye = ask(&addr, "{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "{bye}");
    assert!(reborn.wait().expect("exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drains_gracefully_and_preserves_the_cache() {
    let dir = tmp_state("sigterm");
    let (mut child, addr) = spawn_tcp(&dir);
    let text = scenario_text(6, 6);
    let cold = ask(&addr, &route_line("t", &text));
    assert!(cold.contains("\"cache\":\"cold\""), "{cold}");

    // SIGTERM → stop accepting, drain, snapshot, exit 0.
    let pid = child.id().to_string();
    let status = Command::new("kill")
        .args(["-TERM", &pid])
        .status()
        .expect("send SIGTERM");
    assert!(status.success(), "kill -TERM failed");
    let exit = wait_with_deadline(&mut child, Duration::from_secs(20));
    assert_eq!(exit.code(), Some(0), "graceful drain exits 0");
    assert!(dir.join("cache.snap").exists(), "snapshot written on drain");

    let (mut reborn, addr) = spawn_tcp(&dir);
    let hit = ask(&addr, &route_line("t", &text));
    assert!(
        hit.contains("\"cache\":\"hit\""),
        "cache survived drain: {hit}"
    );
    assert_eq!(normalize(&hit), normalize(&cold));
    let bye = ask(&addr, "{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "{bye}");
    assert!(reborn.wait().expect("exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sigterm_drain_mid_concurrent_burst_loses_no_answered_response() {
    let dir = tmp_state("drain-burst");
    let (mut child, addr) = spawn_tcp(&dir);
    // One synchronous request first, so the burst meets a live accept
    // loop rather than racing the listener setup.
    let text0 = scenario_text(1, 3);
    let first = ask(&addr, &route_line("x", &text0));
    assert_eq!(normalize(&first), normalize(&cold_reference("x", &text0)));

    // Mixed burst: 8 clients over 4 distinct scenarios (each scenario
    // asked twice, so the drain also crosses coalesced/hit paths).
    const CLIENTS: usize = 8;
    let texts: Vec<String> = (0..4).map(|i| scenario_text(2 + i * 3, 7)).collect();
    let expected: Vec<String> = texts.iter().map(|t| cold_reference("x", t)).collect();

    let outcomes: Vec<Option<usize>> = std::thread::scope(|scope| {
        let (addr, texts, expected) = (addr.as_str(), &texts, &expected);
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                scope.spawn(move || {
                    let idx = c % texts.len();
                    let Ok(stream) = TcpStream::connect(addr) else {
                        return None; // listener already closed by the drain
                    };
                    let mut writer = stream.try_clone().expect("clone stream");
                    let mut reader = BufReader::new(stream);
                    // Admission may answer busy under the burst; honour the
                    // retry hint like a real client until drained away.
                    for _ in 0..20 {
                        if writeln!(writer, "{}", route_line("x", &texts[idx])).is_err() {
                            return None; // connection cut before the request landed
                        }
                        let mut response = String::new();
                        match reader.read_line(&mut response) {
                            Ok(n) if n > 0 => {
                                if response.contains("\"status\":\"busy\"") {
                                    std::thread::sleep(Duration::from_millis(25));
                                    continue;
                                }
                                // The drain may cut a connection, never
                                // corrupt it: a complete line must be
                                // byte-identical to the cold solve, a torn
                                // line must be a prefix.
                                let want = normalize(&expected[idx]);
                                if response.ends_with('\n') {
                                    assert_eq!(normalize(response.trim_end()), want);
                                    return Some(idx);
                                }
                                assert!(
                                    want.starts_with(&normalize(&response)),
                                    "torn line is not a prefix: {response:?}"
                                );
                                return None;
                            }
                            _ => return None, // clean EOF: sacrificed, not answered
                        }
                    }
                    None // drained away while busy: never answered
                })
            })
            .collect();
        // Let part of the burst land, then drain mid-flight.
        std::thread::sleep(Duration::from_millis(30));
        let status = Command::new("kill")
            .args(["-TERM", &child.id().to_string()])
            .status()
            .expect("send SIGTERM");
        assert!(status.success(), "kill -TERM failed");
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let exit = wait_with_deadline(&mut child, Duration::from_secs(30));
    assert_eq!(exit.code(), Some(0), "drain under concurrent burst exits 0");

    // Answered ⟹ durable, even when the answer raced the drain: every
    // scenario a client saw a complete response for must be a verified
    // hit after restart, byte-identical to what was served.
    let (mut reborn, addr) = spawn_tcp(&dir);
    let hit0 = ask(&addr, &route_line("x", &text0));
    assert!(hit0.contains("\"cache\":\"hit\""), "{hit0}");
    assert_eq!(normalize(&hit0), normalize(&first));
    for idx in outcomes.iter().flatten() {
        let got = ask(&addr, &route_line("x", &texts[*idx]));
        assert!(
            got.contains("\"cache\":\"hit\""),
            "answered response lost across drain: {got}"
        );
        assert_eq!(normalize(&got), normalize(&expected[*idx]));
    }
    let bye = ask(&addr, "{\"op\":\"shutdown\"}");
    assert!(bye.contains("\"bye\":true"), "{bye}");
    assert!(reborn.wait().expect("exit").success());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Polls for exit so a hung drain fails the test instead of the whole
/// suite's timeout.
fn wait_with_deadline(child: &mut Child, deadline: Duration) -> std::process::ExitStatus {
    let started = Instant::now();
    loop {
        if let Some(status) = child.try_wait().expect("try_wait") {
            return status;
        }
        if started.elapsed() > deadline {
            let _ = child.kill();
            panic!("crserve did not drain within {deadline:?}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn truncated_snapshot_from_a_crash_is_recovered_not_served() {
    // Simulate the torn tail a SIGKILL can leave: chop bytes off the
    // end of a real snapshot and restart on it. The torn record must
    // be dropped, every earlier record recovered, and answers stay
    // byte-identical.
    let dir = tmp_state("torn-tail");
    let config = ServiceConfig {
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let first = Service::new(config.clone());
    let (a, b) = (scenario_text(3, 9), scenario_text(11, 9));
    first.handle_line(&route_line("a", &a));
    first.handle_line(&route_line("b", &b));
    drop(first);

    let snap = dir.join("cache.snap");
    let bytes = std::fs::read(&snap).expect("snapshot exists");
    std::fs::write(&snap, &bytes[..bytes.len() - 7]).expect("truncate");

    let reborn = Service::new(config);
    let m = reborn.metrics();
    assert_eq!(
        m.counter_value("service.persist.recovered"),
        1,
        "first record survives"
    );
    assert_eq!(
        m.counter_value("service.persist.dropped"),
        1,
        "torn tail dropped"
    );
    let again = reborn.handle_line(&route_line("a", &a));
    assert!(again.contains("\"cache\":\"hit\""), "{again}");
    assert_eq!(normalize(&again), normalize(&cold_reference("a", &a)));
    // The torn entry re-solves (warm-started off the recovered sibling
    // — same base) — correct answer, it just is not a hit.
    let again = reborn.handle_line(&route_line("b", &b));
    assert!(!again.contains("\"cache\":\"hit\""), "{again}");
    assert_eq!(normalize(&again), normalize(&cold_reference("b", &b)));
    let _ = std::fs::remove_dir_all(&dir);
}
