//! Core-search benchmark: per-search wall-clock and effort counters,
//! appended as JSONL rows to `BENCH_core.json` at the workspace root.
//!
//! Each run times, on every requested grid, the fast-path search, two
//! register-bound RBP searches, a two-domain GALS search and a latch
//! search with time borrowing. The periods derive from the measured
//! fast-path optimum, so they scale with the grid: RBP runs at 13 % and
//! 6 % of it, GALS at a 13 % sender period and a receiver period 4/3 of
//! that, and the latch search at 13 % with a borrowing window of a fifth
//! of the period. Rows carry the full counter set so the file reads as a
//! trajectory. Every row names its substrate in `engine`; new rows say
//! `arena`, and the `legacy` rows are history from before the searches
//! shared one substrate.
//!
//! Usage:
//!   cargo run --release -p clockroute-bench --bin corebench [-- --grids 60,100,200]
//!   cargo run --release -p clockroute-bench --bin corebench -- --check
//!
//! `--check` is the CI gate wired into `scripts/check.sh`: it re-runs
//! every search on small grids (60 and 100) and fails unless every
//! deterministic counter (`pops`, `pushed`, `pruned`, `stale`,
//! `goal_pruned`, `max_queue`, `arena_bytes`) equals the most recent
//! matching `BENCH_core.json` row exactly. Wall-clock is not gated.
//! Bootstrap runs (no baseline row yet) pass. Check mode never appends.

use clockroute_core::json::{self, Value};
use clockroute_core::{FastPathSpec, GalsSpec, LatchSpec, RbpSpec, RouteError, SearchStats};
use clockroute_elmore::{GateLibrary, Technology};
use clockroute_geom::units::{Length, Time};
use clockroute_geom::Point;
use clockroute_grid::GridGraph;
use std::collections::BTreeMap;
use std::io::Write;

const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");

/// Fractions of the fast-path optimal delay used as RBP periods: tight
/// enough to force several pipeline waves on every grid size — the
/// register-bound regime the paper's RBP experiments target.
const RBP_PERIOD_FRACTIONS: [f64; 2] = [0.13, 0.06];

/// GALS receiver period as a multiple of the sender period (the paper's
/// 300/400 ps pair).
const GALS_RECEIVER_RATIO: f64 = 4.0 / 3.0;

/// Latch borrowing window as a fraction of the period (the paper's
/// 60 ps at 300 ps).
const LATCH_BORROW_FRACTION: f64 = 0.2;

/// Substrate label of every row this binary writes.
const ENGINE: &str = "arena";

struct Instance {
    graph: GridGraph,
    tech: Technology,
    lib: GateLibrary,
    src: Point,
    dst: Point,
}

/// The paper's 25 mm die at an `n × n` grid granularity, with terminals
/// pulled in from opposite corners so routes cross most of the die.
fn instance(n: u32) -> Instance {
    let pitch = 25_000.0 / f64::from(n - 1) * 0.8;
    Instance {
        graph: GridGraph::open(n, n, Length::from_um(pitch)),
        tech: Technology::paper_070nm(),
        lib: GateLibrary::paper_library(),
        src: Point::new(n / 10, n / 10),
        dst: Point::new(n - 1 - n / 10, n - 1 - n / 10),
    }
}

struct Row {
    grid: u32,
    search: &'static str,
    period: Option<f64>,
    stats: SearchStats,
    seconds: f64,
}

impl Row {
    fn to_json(&self) -> String {
        let period = match self.period {
            Some(p) => format!("{p:.3}"),
            None => "null".to_string(),
        };
        format!(
            "{{\"bench\":\"core\",\"engine\":\"{ENGINE}\",\"grid\":{},\"search\":\"{}\",\"period\":{},\"pops\":{},\"pushed\":{},\"pruned\":{},\"stale\":{},\"goal_pruned\":{},\"max_queue\":{},\"arena_bytes\":{},\"seconds\":{:.6}}}",
            self.grid,
            self.search,
            period,
            self.stats.configs,
            self.stats.pushed,
            self.stats.pruned,
            self.stats.stale_skipped,
            self.stats.goal_pruned,
            self.stats.max_queue,
            self.stats.arena_bytes(),
            self.seconds,
        )
    }
}

/// Runs one search, timing it; the instances are routable, so an error
/// is a regression and aborts the run.
fn timed<S>(what: &str, solve: impl FnOnce() -> Result<S, RouteError>) -> (S, f64) {
    // crlint-allow: CR003 bench harness measures wall-clock by design; timings are reported, never byte-compared
    let start = std::time::Instant::now();
    let sol = solve().unwrap_or_else(|e| panic!("{what}: {e}"));
    (sol, start.elapsed().as_secs_f64())
}

/// Runs the full search suite on one grid. The fast-path optimum
/// anchors every period.
fn run_grid(grid: u32, rows: &mut Vec<Row>) {
    let inst = instance(grid);
    let (graph, tech, lib) = (&inst.graph, &inst.tech, &inst.lib);
    let mut push = |search, period, stats: &SearchStats, seconds| {
        rows.push(Row {
            grid,
            search,
            period,
            stats: *stats,
            seconds,
        });
    };
    let (fast, seconds) = timed("fast-path route on an open grid", || {
        FastPathSpec::new(graph, tech, lib)
            .source(inst.src)
            .sink(inst.dst)
            .solve()
    });
    push("fastpath", None, fast.stats(), seconds);
    let delay = fast.delay().ps();
    for (i, frac) in RBP_PERIOD_FRACTIONS.iter().enumerate() {
        let period = delay * frac;
        let (sol, seconds) = timed("rbp route at a fraction of the fast-path optimum", || {
            RbpSpec::new(graph, tech, lib)
                .source(inst.src)
                .sink(inst.dst)
                .period(Time::from_ps(period))
                .solve()
        });
        let search = if i == 0 { "rbp_loose" } else { "rbp_tight" };
        push(search, Some(period), sol.stats(), seconds);
    }
    let period = delay * RBP_PERIOD_FRACTIONS[0];
    let (sol, seconds) = timed("gals route at the loose rbp period", || {
        GalsSpec::new(graph, tech, lib)
            .source(inst.src)
            .sink(inst.dst)
            .periods(
                Time::from_ps(period),
                Time::from_ps(period * GALS_RECEIVER_RATIO),
            )
            .solve()
    });
    push("gals", Some(period), sol.stats(), seconds);
    let (sol, seconds) = timed("latch route at the loose rbp period", || {
        LatchSpec::new(graph, tech, lib)
            .source(inst.src)
            .sink(inst.dst)
            .period(Time::from_ps(period))
            .borrow_window(Time::from_ps(period * LATCH_BORROW_FRACTION))
            .solve()
    });
    push("latch", Some(period), sol.stats(), seconds);
}

fn append_rows(rows: &[Row]) {
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(BENCH_PATH)
        .and_then(|mut f| {
            for row in rows {
                writeln!(f, "{}", row.to_json())?;
            }
            Ok(())
        });
    if let Err(e) = appended {
        eprintln!("warning: cannot append to BENCH_core.json: {e}");
    }
}

/// The counters `--check` gates, as (row key, value) pairs. All are
/// deterministic for a given commit, so any change is a real change.
fn gated_counters(stats: &SearchStats) -> [(&'static str, u64); 7] {
    [
        ("pops", stats.configs),
        ("pushed", stats.pushed),
        ("pruned", stats.pruned),
        ("stale", stats.stale_skipped),
        ("goal_pruned", stats.goal_pruned),
        ("max_queue", stats.max_queue as u64),
        ("arena_bytes", stats.arena_bytes()),
    ]
}

/// A parsed `BENCH_core.json` row.
type Baseline = BTreeMap<String, Value>;

/// Parses every `BENCH_core.json` row, failing on the first that is
/// not a JSON object.
fn parse_rows(contents: &str) -> Result<Vec<Baseline>, String> {
    contents
        .lines()
        .enumerate()
        .map(|(i, line)| match json::parse(line) {
            Ok(Value::Obj(row)) => Ok(row),
            Ok(_) => Err(format!("line {}: not a JSON object", i + 1)),
            Err(e) => Err(format!("line {}: {e}", i + 1)),
        })
        .collect()
}

/// Most recent recorded row of this substrate for (grid, search), if
/// any.
fn baseline_row<'a>(rows: &'a [Baseline], grid: u32, search: &str) -> Option<&'a Baseline> {
    let is = |row: &Baseline, key: &str, want: &str| matches!(row.get(key), Some(Value::Str(s)) if s == want);
    rows.iter().rfind(|row| {
        is(row, "engine", ENGINE)
            && is(row, "search", search)
            && row.get("grid") == Some(&Value::Num(f64::from(grid)))
    })
}

/// CI gate: every deterministic counter on small grids must equal
/// the last recorded row exactly. Returns process exit code.
fn check() -> i32 {
    let contents = std::fs::read_to_string(BENCH_PATH).unwrap_or_default();
    let baselines = match parse_rows(&contents) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("corebench --check: BENCH_core.json {e}");
            return 1;
        }
    };
    let mut rows = Vec::new();
    for grid in [60, 100] {
        run_grid(grid, &mut rows);
    }
    let mut failures = 0;
    for row in &rows {
        let label = format!("check grid={} {}", row.grid, row.search);
        let Some(base) = baseline_row(&baselines, row.grid, row.search) else {
            println!(
                "{label}: pops={} (no baseline, bootstrap pass)",
                row.stats.configs
            );
            continue;
        };
        let changed: Vec<String> = gated_counters(&row.stats)
            .iter()
            .filter(|&&(key, got)| base.get(key) != Some(&Value::Num(got as f64)))
            .map(|&(key, got)| match base.get(key) {
                Some(Value::Num(want)) => format!("{key}={got} (baseline {want})"),
                _ => format!("{key}={got} (no baseline value)"),
            })
            .collect();
        if changed.is_empty() {
            let pops = row.stats.configs;
            println!("{label}: every counter matches (pops={pops})");
        } else {
            failures += 1;
            println!("{label}: CHANGED {}", changed.join(", "));
        }
    }
    if failures > 0 {
        eprintln!("corebench --check: {failures} search(es) changed a counter");
        return 1;
    }
    println!("corebench --check: every counter matches its baseline");
    0
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--check") {
        std::process::exit(check());
    }
    let grids: Vec<u32> = args
        .iter()
        .position(|a| a == "--grids")
        .and_then(|i| args.get(i + 1))
        .map(|s| s.split(',').filter_map(|g| g.parse().ok()).collect())
        .unwrap_or_else(|| vec![60, 100, 200]);

    let mut rows = Vec::new();
    for &grid in &grids {
        run_grid(grid, &mut rows);
    }
    println!(
        "{:>5} {:<9} {:>10} {:>10} {:>11} {:>9} {:>10}",
        "grid", "search", "period", "pops", "goal_pruned", "maxQ", "seconds"
    );
    for row in &rows {
        println!(
            "{:>5} {:<9} {:>10} {:>10} {:>11} {:>9} {:>10.4}",
            row.grid,
            row.search,
            row.period.map_or("-".to_string(), |p| format!("{p:.0}")),
            row.stats.configs,
            row.stats.goal_pruned,
            row.stats.max_queue,
            row.seconds,
        );
    }
    append_rows(&rows);
    println!("appended {} rows to BENCH_core.json", rows.len());
}
