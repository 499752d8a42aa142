//! Concurrency tests for the sharded single-flight service: N client
//! threads firing seeded mixes of identical and distinct scenarios at
//! one `Service`, with every response asserted byte-identical to a
//! serial cold solve — for every shard count — plus regression pins
//! for the three concurrency-accounting bugs this PR fixes (permit
//! lifetime across the durability window, duplicate-miss double work,
//! duplicate-key snapshot records).

#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use clockroute_core::canon::mix64;
use clockroute_core::lockcheck::{self, LockRank, OrderedMutex};
use clockroute_service::{persist, Service, ServiceConfig};
use std::sync::Barrier;

/// Same 16×16 family as the e2e suite: one movable 3×3 hard block.
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

fn normalize(response: &str) -> String {
    response
        .replace("\"cache\":\"hit\"", "\"cache\":\"cold\"")
        .replace("\"cache\":\"warm\"", "\"cache\":\"cold\"")
        .replace("\"cache\":\"coalesced\"", "\"cache\":\"cold\"")
}

fn cold_reference(text: &str) -> String {
    Service::new(ServiceConfig::default()).handle_line(&route_line("x", text))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("crserve-conc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The tentpole property: 8 threads × 6 requests over a seeded mix of
/// 4 distinct scenarios, against 1-, 2- and 8-shard layouts. Every
/// response must be byte-identical (modulo the cache label) to a cold
/// solve on a fresh service, the path counters must partition the
/// request count exactly, and — the duplicate-miss regression — each
/// distinct scenario must be *solved* at most once: concurrent misses
/// on one fingerprint coalesce instead of each running the planner.
#[test]
fn concurrent_clients_match_serial_replay_for_every_shard_count() {
    const THREADS: u64 = 8;
    const PER_THREAD: u64 = 6;
    let distinct: Vec<String> = [2u32, 5, 8, 11]
        .iter()
        .map(|&bx| scenario_text(bx, 6))
        .collect();
    let references: Vec<String> = distinct.iter().map(|t| cold_reference(t)).collect();

    for shards in [1usize, 2, 8] {
        let service = Service::new(ServiceConfig {
            shards,
            max_inflight: THREADS as usize,
            ..ServiceConfig::default()
        });
        let barrier = Barrier::new(THREADS as usize);
        let (service, barrier, distinct, references) = (&service, &barrier, &distinct, &references);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|t| {
                    scope.spawn(move || {
                        barrier.wait();
                        for r in 0..PER_THREAD {
                            // Seeded mix: duplicates across threads are
                            // the norm (4 scenarios, 48 requests).
                            let idx = (mix64(0xFEED ^ (t * 131) ^ (r * 17)) % distinct.len() as u64)
                                as usize;
                            let got = service.handle_line(&route_line("x", &distinct[idx]));
                            assert_eq!(
                                normalize(&got),
                                normalize(&references[idx]),
                                "shards {shards}, thread {t}, request {r}: bytes diverged"
                            );
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().expect("client thread");
            }
        });

        let m = service.metrics();
        let total = THREADS * PER_THREAD;
        let hits = m.counter_value("service.hits");
        let coalesced = m.counter_value("service.coalesced");
        let misses = m.counter_value("service.misses");
        assert_eq!(
            m.counter_value("service.requests"),
            total,
            "shards {shards}"
        );
        assert_eq!(m.counter_value("service.rejects"), 0, "shards {shards}");
        assert_eq!(
            hits + coalesced + misses,
            total,
            "shards {shards}: every request takes exactly one path"
        );
        // The double-work regression: without single-flight, two
        // concurrent misses on one fingerprint both solve, inflating
        // the miss count past the number of distinct scenarios.
        assert_eq!(
            misses,
            distinct.len() as u64,
            "shards {shards}: each distinct scenario must be solved exactly once"
        );
    }
}

/// Deterministic coalescing at the service level: the leader solves a
/// deliberately slow (48×48) scenario, so on any scheduler the seven
/// followers arrive while the solve is in flight and block on the
/// single-flight slot. Their answers must carry the `coalesced` label
/// accounting-wise (counter) while staying byte-identical to the
/// leader's, and the solve must have happened exactly once.
#[test]
fn duplicate_burst_is_answered_by_one_solve() {
    const THREADS: usize = 8;
    let big = "die 24mm 24mm\ngrid 48 48\nblock hard 10 10 20 20\n\
               net comb name=a src=0,0 dst=47,47\nnet comb name=b src=0,47 dst=47,0\n\
               net reg name=c src=0,24 dst=47,24 period=4000\n";
    let reference = cold_reference(big);
    let service = Service::new(ServiceConfig {
        shards: 4,
        max_inflight: THREADS,
        ..ServiceConfig::default()
    });
    let barrier = Barrier::new(THREADS);
    let (service, barrier, reference) = (&service, &barrier, &reference);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(move || {
                    barrier.wait();
                    let got = service.handle_line(&route_line("x", big));
                    assert_eq!(normalize(&got), normalize(reference));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("client thread");
        }
    });
    let m = service.metrics();
    let hits = m.counter_value("service.hits");
    let coalesced = m.counter_value("service.coalesced");
    assert_eq!(m.counter_value("service.misses"), 1, "exactly one solve");
    assert_eq!(hits + coalesced, THREADS as u64 - 1);
    assert!(
        coalesced >= 1,
        "a 48×48 solve spans many scheduler quanta; at least one of \
         {THREADS} simultaneous duplicates must coalesce (got hits={hits})"
    );
}

/// Satellite regression (permit lifetime): the admission permit must
/// stay held through the cache insert and the fsynced append, so
/// inflight accounting covers the durability window. The service
/// records `service.persist.inflight` (gauge, max) at the moment the
/// append completes — with one serial request it must read 1; before
/// the fix the permit was dropped pre-insert and it read 0.
#[test]
fn inflight_accounting_covers_the_durability_window() {
    let dir = temp_dir("durability");
    let service = Service::new(ServiceConfig {
        max_inflight: 1,
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let got = service.handle_line(&route_line("d", &scenario_text(4, 4)));
    assert!(got.contains("\"cache\":\"cold\""), "{got}");
    assert_eq!(
        service.metrics().gauge_value("service.persist.inflight"),
        1,
        "the permit must still be held while the record is appended"
    );
    // And the permit is released after the response: a second request
    // through the 1-slot gate must not be rejected.
    let again = service.handle_line(&route_line("d2", &scenario_text(9, 9)));
    assert!(!again.contains("\"status\":\"busy\""), "{again}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Panic payload of a joined thread as text ("" when not a string).
fn panic_text(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

/// Lockcheck regression (rank inversion): acquiring a `Pending`-ranked
/// lock while holding a `Cache`-ranked one is the cache-before-pending
/// inversion that single-flight forbids — the rank checker must kill
/// the thread deterministically (first offending acquire, not "maybe a
/// deadlock under the right interleaving"), naming both locks.
#[test]
fn lock_order_inversion_is_detected_deterministically() {
    if !lockcheck::ENABLED {
        return; // release builds compile the checks out
    }
    let err = std::thread::spawn(|| {
        let cache = OrderedMutex::new(LockRank::Cache, "test.inversion.cache", 0u32);
        let pending = OrderedMutex::new(LockRank::Pending, "test.inversion.pending", 0u32);
        let _c = cache.lock();
        let _p = pending.lock();
    })
    .join()
    .expect_err("the inversion must panic the acquiring thread");
    let msg = panic_text(err);
    assert!(msg.contains("rank inversion"), "{msg}");
    assert!(
        msg.contains("test.inversion.pending(Pending)")
            && msg.contains("test.inversion.cache(Cache)"),
        "the report must name both locks and ranks: {msg}"
    );
}

/// Lockcheck regression (two shards at once): every shard cache shares
/// `LockRank::Cache`, so holding two shard locks — the classic
/// resize/rebalance deadlock shape — is a same-rank double acquire and
/// must be rejected even though no inversion has happened yet.
#[test]
fn two_shard_double_acquire_is_detected() {
    if !lockcheck::ENABLED {
        return;
    }
    let err = std::thread::spawn(|| {
        let shard0 = OrderedMutex::new(LockRank::Cache, "test.double.shard0", 0u32);
        let shard1 = OrderedMutex::new(LockRank::Cache, "test.double.shard1", 0u32);
        let _a = shard0.lock();
        let _b = shard1.lock();
    })
    .join()
    .expect_err("the double acquire must panic the acquiring thread");
    let msg = panic_text(err);
    assert!(msg.contains("same-rank double acquire"), "{msg}");
    assert!(
        msg.contains("test.double.shard1(Cache)") && msg.contains("test.double.shard0(Cache)"),
        "{msg}"
    );
}

/// Lockcheck regression (shipped paths are clean): drive every shard
/// path — miss, hit, coalesced burst, stats, snapshot persist — on a
/// debug build, where any rank violation panics the offending thread
/// and fails the test. Then pin the one legal nesting in the recorded
/// acquisition graph: the single-flight re-check takes `shard.cache`
/// *inside* `shard.pending`, never the reverse.
#[test]
fn shipped_single_flight_paths_are_lockcheck_clean() {
    if !lockcheck::ENABLED {
        return;
    }
    const THREADS: usize = 8;
    let dir = temp_dir("lockcheck-clean");
    let service = Service::new(ServiceConfig {
        shards: 4,
        max_inflight: THREADS,
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    });
    let text = scenario_text(6, 6);
    let barrier = Barrier::new(THREADS);
    let (service, barrier, text) = (&service, &barrier, &text);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(move || {
                    barrier.wait();
                    // Duplicate burst: one leader, everyone else hits or
                    // coalesces on the pending slot.
                    service.handle_line(&route_line("x", text));
                })
            })
            .collect();
        for h in handles {
            h.join().expect("a lockcheck violation would panic here");
        }
    });
    service.handle_line("{\"id\":\"s\",\"op\":\"stats\"}");
    let report = lockcheck::report();
    assert!(
        report.contains("shard.pending(Pending) -> shard.cache(Cache)"),
        "the single-flight re-check nests cache inside pending: {report}"
    );
    assert!(
        !report.contains("shard.cache(Cache) -> shard.pending(Pending)"),
        "the reverse nesting must never be recorded: {report}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Satellite regression (duplicate-key records): replay is last-wins
/// and never double-counts. A log with records [A, A, B] and capacity
/// 2 recovers all three records, ends with exactly two live entries,
/// evicts nothing (the duplicate replaces in place rather than
/// counting against capacity), answers both scenarios as verified
/// hits, and compacts the log so the next start sees two records.
#[test]
fn duplicate_key_records_replay_last_wins() {
    let text_a = scenario_text(3, 5);
    let text_b = scenario_text(10, 5);

    // Produce one genuine record per scenario by running real solves
    // against scratch state dirs (records are checksummed and
    // structurally verified on load — they cannot be fabricated).
    let record_of = |tag: &str, text: &str| -> Vec<u8> {
        let dir = temp_dir(tag);
        let service = Service::new(ServiceConfig {
            state: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        service.handle_line(&route_line("w", text));
        drop(service);
        let bytes = std::fs::read(persist::snapshot_file(&dir)).expect("snapshot written");
        let _ = std::fs::remove_dir_all(&dir);
        bytes
    };
    let bytes_a = record_of("dup-a", &text_a);
    let bytes_b = record_of("dup-b", &text_b);
    const MAGIC: &[u8] = b"CRSNAP1\n";
    assert!(bytes_a.starts_with(MAGIC) && bytes_b.starts_with(MAGIC));

    // Compose magic + A + A + B — what a crashed pre-single-flight
    // server could have left behind after racing duplicate misses.
    let dir = temp_dir("dup-replay");
    std::fs::create_dir_all(&dir).expect("state dir");
    let mut composed = bytes_a.clone();
    composed.extend_from_slice(&bytes_a[MAGIC.len()..]);
    composed.extend_from_slice(&bytes_b[MAGIC.len()..]);
    std::fs::write(persist::snapshot_file(&dir), &composed).expect("compose log");

    let config = ServiceConfig {
        cache_cap: 2,
        shards: 1,
        state: Some(dir.clone()),
        ..ServiceConfig::default()
    };
    let service = Service::new(config.clone());
    let m = service.metrics();
    assert_eq!(
        m.counter_value("service.persist.recovered"),
        3,
        "all records verify"
    );
    assert_eq!(m.counter_value("service.persist.dropped"), 0);
    assert_eq!(
        m.counter_value("service.evictions"),
        0,
        "dup replaces, never evicts"
    );
    let stats = service.handle_line("{\"id\":\"s\",\"op\":\"stats\"}");
    assert!(
        stats.contains("\"service.cache.len\":2"),
        "last-wins len: {stats}"
    );
    for text in [&text_a, &text_b] {
        let got = service.handle_line(&route_line("x", text));
        assert!(got.contains("\"cache\":\"hit\""), "recovered hit: {got}");
        assert_eq!(normalize(&got), normalize(&cold_reference(text)));
    }
    drop(service);

    // Recovery compacted the log: the dup is gone on the next start.
    let reborn = Service::new(config);
    assert_eq!(
        reborn.metrics().counter_value("service.persist.recovered"),
        2,
        "compaction writes one record per live entry"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
