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

#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

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
fn recovered_cache_hits_skip_the_planner() {
    let dir = tmp_state("recovered-hit");
    let config = ServiceConfig {
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let text = scenario_text(7, 7);
    let first = Service::new(config.clone());
    let cold = first.handle_line(&route_line("x", &text));
    assert!(cold.contains("\"cache\":\"cold\""), "{cold}");
    drop(first);

    // Recovery carries the entry but no text memo: the first request
    // parses and hits, the identical second one is answered from the
    // memo that hit recorded. Neither plans.
    let reborn = Service::new(config);
    assert_eq!(
        reborn.metrics().counter_value("service.persist.recovered"),
        1
    );
    let hit = reborn.handle_line(&route_line("x", &text));
    assert!(hit.contains("\"cache\":\"hit\""), "{hit}");
    assert_eq!(hit.replace("\"cache\":\"hit\"", "\"cache\":\"cold\""), cold);
    let memo_hit = reborn.handle_line(&route_line("x", &text));
    assert_eq!(memo_hit, hit);
    assert_eq!(reborn.metrics().counter_value("service.hits"), 2);
    assert_eq!(reborn.metrics().counter_value("plan.nets.routed"), 0);
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

// ---------------------------------------------------------------------
// Startup compaction: skipped for a log that replays whole, run for
// every log that replay changed (DESIGN.md §13).
// ---------------------------------------------------------------------

/// What a rewrite would change about the snapshot file: its bytes, its
/// modification time and (on unix) its inode, which the rename of a
/// rewrite replaces.
fn file_state(dir: &Path) -> (Vec<u8>, std::time::SystemTime, u64) {
    let snap = dir.join("cache.snap");
    let meta = std::fs::metadata(&snap).expect("snapshot metadata");
    #[cfg(unix)]
    let inode = std::os::unix::fs::MetadataExt::ino(&meta);
    #[cfg(not(unix))]
    let inode = 0;
    let bytes = std::fs::read(&snap).expect("snapshot bytes");
    assert_eq!(bytes.len() as u64, meta.len());
    let modified = meta.modified().expect("snapshot mtime");
    (bytes, modified, inode)
}

/// The byte ranges of a snapshot's framed records (`len:u32le payload
/// fnv64:u64le`), after the 8-byte magic.
fn frames(bytes: &[u8]) -> Vec<std::ops::Range<usize>> {
    let mut out = Vec::new();
    let mut pos = 8;
    while pos < bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        out.push(pos..pos + 12 + len);
        pos += 12 + len;
    }
    out
}

/// A state directory whose log holds three entries, appended by a
/// service that was then dropped without a snapshot: a compact log.
fn three_entry_state(tag: &str) -> (PathBuf, ServiceConfig) {
    let dir = tmp_state(tag);
    let config = ServiceConfig {
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let first = Service::new(config.clone());
    for (i, bx) in [2, 6, 10].into_iter().enumerate() {
        let got = first.handle_line(&route_line(&format!("s{i}"), &scenario_text(bx, 3)));
        assert!(got.contains("\"status\":\"ok\""), "{got}");
    }
    drop(first);
    (dir, config)
}

/// Restarts on `dir` and returns the persist counters
/// `(recovered, dropped, errors)`.
fn restart(config: &ServiceConfig) -> (u64, u64, u64) {
    let service = Service::new(config.clone());
    let m = service.metrics();
    (
        m.counter_value("service.persist.recovered"),
        m.counter_value("service.persist.dropped"),
        m.counter_value("service.persist.errors"),
    )
}

/// Waits out the file-time granularity, so a rewrite after this
/// returns would show in the modification time.
fn let_the_clock_move() {
    std::thread::sleep(Duration::from_millis(20));
}

#[test]
fn clean_restart_leaves_a_compact_log_untouched() {
    let (dir, config) = three_entry_state("compact-restart");
    let before = file_state(&dir);
    let_the_clock_move();
    assert_eq!(restart(&config), (3, 0, 0));
    assert_eq!(file_state(&dir), before, "a compact log was rewritten");
    assert!(!dir.join("cache.snap.tmp").exists());

    // The untouched log keeps taking appends.
    let service = Service::new(config.clone());
    let got = service.handle_line(&route_line("s3", &scenario_text(12, 9)));
    assert!(got.contains("\"status\":\"ok\""), "{got}");
    drop(service);
    assert_eq!(restart(&config), (4, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn startup_compacts_every_log_that_replay_changed() {
    type Case = (
        &'static str,
        fn(&[u8], &[std::ops::Range<usize>]) -> Vec<u8>,
        usize,
        (u64, u64),
        &'static [usize],
    );
    // (name, corruption, cache cap, (recovered, dropped), the records,
    // by index into the pristine log, that the compacted file holds).
    let cases: [Case; 4] = [
        (
            "torn-tail",
            |b, f| [b, &b[f[0].start..f[0].start + 9]].concat(),
            64,
            (3, 1),
            &[0, 1, 2],
        ),
        (
            "flipped-middle",
            |b, f| {
                let mut b = b.to_vec();
                b[f[1].start + 20] ^= 0x40;
                b
            },
            64,
            (2, 1),
            &[0, 2],
        ),
        // A later record under the same key replaces the earlier one
        // and becomes the most recently used entry.
        (
            "duplicate-key",
            |b, f| [b, &b[f[0].clone()]].concat(),
            64,
            (4, 0),
            &[1, 2, 0],
        ),
        ("over-the-cap", |b, _| b.to_vec(), 2, (3, 0), &[1, 2]),
    ];
    for (name, corrupt, cache_cap, counts, kept) in cases {
        let (dir, mut config) = three_entry_state(&format!("compacts-{name}"));
        config.cache_cap = cache_cap;
        config.shards = 1;
        let pristine = std::fs::read(dir.join("cache.snap")).expect("snapshot");
        let f = frames(&pristine);
        std::fs::write(dir.join("cache.snap"), corrupt(&pristine, &f)).expect("corrupt");
        let corrupted = file_state(&dir);
        let_the_clock_move();

        assert_eq!(restart(&config), (counts.0, counts.1, 0), "{name}");
        let compacted = file_state(&dir);
        assert_ne!(compacted, corrupted, "{name}: no compaction");
        let want: Vec<u8> = std::iter::once(&pristine[..8])
            .chain(kept.iter().map(|&k| &pristine[f[k].clone()]))
            .flatten()
            .copied()
            .collect();
        assert_eq!(compacted.0, want, "{name}: compacted bytes");
        assert!(!dir.join("cache.snap.tmp").exists(), "{name}");

        // The compaction is compact: the next restart leaves it be.
        let_the_clock_move();
        assert_eq!(restart(&config), (kept.len() as u64, 0, 0), "{name}");
        assert_eq!(file_state(&dir), compacted, "{name}: rewritten again");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn persist_faults_fire_only_where_startup_writes() {
    // A torn log needs its compaction: the armed rewrite fails, is
    // counted, and leaves the torn file as it was.
    let (dir, config) = three_entry_state("armed-torn");
    let snap = dir.join("cache.snap");
    let mut bytes = std::fs::read(&snap).expect("snapshot");
    bytes.extend_from_slice(&[7, 0, 0]);
    std::fs::write(&snap, &bytes).expect("tear");
    let torn = file_state(&dir);
    failpoint::disarm_all();
    failpoint::arm_sticky("serve::persist", FailAction::IoError, 1);
    let counts = restart(&config);
    failpoint::disarm_all();
    assert_eq!(counts, (3, 1, 1));
    assert_eq!(file_state(&dir), torn, "a failed rewrite touched the log");
    let _ = std::fs::remove_dir_all(&dir);

    // A compact log is not rewritten, so the rewrite's fault site is
    // never reached; it is synced in place, through the fsync site.
    for (site, errors) in [("serve::persist", 0), ("serve::fsync", 1)] {
        let (dir, config) = three_entry_state(&format!("armed-{site}"));
        let before = file_state(&dir);
        failpoint::arm_sticky(site, FailAction::IoError, 1);
        let counts = restart(&config);
        failpoint::disarm_all();
        assert_eq!(counts, (3, 0, errors), "{site}");
        assert_eq!(file_state(&dir), before, "{site}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
