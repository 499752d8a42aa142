//! Core-substrate benchmark: per-search wall-clock and effort counters
//! for the legacy and arena engines, appended as JSONL rows to
//! `BENCH_core.json` at the workspace root.
//!
//! Each run times the fast-path search and two register-bound RBP
//! searches (periods derived from the measured fast-path optimum, so
//! they scale with the grid) on every requested grid, for both engines.
//! Rows carry the full counter set so future PRs can diff substrate
//! performance as a trajectory; the first rows ever appended came from
//! the pre-rewrite substrate.
//!
//! Usage:
//!   cargo run --release -p clockroute-bench --bin corebench [-- --grids 60,100,200]
//!   cargo run --release -p clockroute-bench --bin corebench -- --check
//!
//! `--check` is the CI gate wired into `scripts/check.sh`: it re-runs
//! the arena engine on small grids (60 and 100) and fails unless every
//! deterministic counter (`pops`, `pushed`, `pruned`, `stale`,
//! `goal_pruned`, `max_queue`, `arena_bytes`) equals the most recent
//! matching `BENCH_core.json` row exactly. Wall-clock is not gated.
//! Bootstrap runs (no baseline row yet) pass. Check mode never appends.

use clockroute_core::json::{self, Value};
use clockroute_core::{EngineKind, FastPathSpec, RbpSpec, SearchStats};
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
    engine: &'static str,
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
            "{{\"bench\":\"core\",\"engine\":\"{}\",\"grid\":{},\"search\":\"{}\",\"period\":{},\"pops\":{},\"pushed\":{},\"pruned\":{},\"stale\":{},\"goal_pruned\":{},\"max_queue\":{},\"arena_bytes\":{},\"seconds\":{:.6}}}",
            self.engine,
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

fn run_fastpath(inst: &Instance, engine: EngineKind) -> (SearchStats, f64, f64) {
    // crlint-allow: CR003 bench harness measures wall-clock by design; timings are reported, never byte-compared
    let start = std::time::Instant::now();
    let sol = FastPathSpec::new(&inst.graph, &inst.tech, &inst.lib)
        .source(inst.src)
        .sink(inst.dst)
        .engine(engine)
        .solve()
        .expect("fast-path route on an open grid");
    let seconds = start.elapsed().as_secs_f64();
    (*sol.stats(), seconds, sol.delay().ps())
}

fn run_rbp(inst: &Instance, engine: EngineKind, period: f64) -> (SearchStats, f64) {
    // crlint-allow: CR003 bench harness measures wall-clock by design; timings are reported, never byte-compared
    let start = std::time::Instant::now();
    let sol = RbpSpec::new(&inst.graph, &inst.tech, &inst.lib)
        .source(inst.src)
        .sink(inst.dst)
        .period(Time::from_ps(period))
        .engine(engine)
        .solve()
        .expect("rbp route at a fraction of the fast-path optimum");
    let seconds = start.elapsed().as_secs_f64();
    (*sol.stats(), seconds)
}

/// Runs the full search suite on one grid for one engine. The fast-path
/// optimum (engine-independent) anchors the RBP periods.
fn run_grid(grid: u32, engine: EngineKind, name: &'static str, rows: &mut Vec<Row>) {
    let inst = instance(grid);
    let (stats, seconds, delay) = run_fastpath(&inst, engine);
    rows.push(Row {
        engine: name,
        grid,
        search: "fastpath",
        period: None,
        stats,
        seconds,
    });
    for (i, frac) in RBP_PERIOD_FRACTIONS.iter().enumerate() {
        let period = delay * frac;
        let (stats, seconds) = run_rbp(&inst, engine, period);
        rows.push(Row {
            engine: name,
            grid,
            search: if i == 0 { "rbp_loose" } else { "rbp_tight" },
            period: Some(period),
            stats,
            seconds,
        });
    }
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

/// Most recent recorded row for (engine, grid, search), if any.
fn baseline_row<'a>(
    rows: &'a [Baseline],
    engine: &str,
    grid: u32,
    search: &str,
) -> Option<&'a Baseline> {
    let is = |row: &Baseline, key: &str, want: &str| {
        matches!(row.get(key), Some(Value::Str(s)) if s == want)
    };
    rows.iter()
        .filter(|row| {
            is(row, "engine", engine)
                && is(row, "search", search)
                && row.get("grid") == Some(&Value::Num(f64::from(grid)))
        })
        .next_back()
}

/// CI gate: every deterministic arena counter on small grids must equal
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
        run_grid(grid, EngineKind::Arena, "arena", &mut rows);
    }
    let mut failures = 0;
    for row in &rows {
        let label = format!("check {} grid={} {}", row.engine, row.grid, row.search);
        let Some(base) = baseline_row(&baselines, row.engine, row.grid, row.search) else {
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
        for (engine, name) in [
            (EngineKind::Legacy, "legacy"),
            (EngineKind::Arena, "arena"),
        ] {
            run_grid(grid, engine, name, &mut rows);
        }
    }
    println!(
        "{:<8} {:>5} {:<9} {:>10} {:>10} {:>11} {:>9} {:>10}",
        "engine", "grid", "search", "period", "pops", "goal_pruned", "maxQ", "seconds"
    );
    for row in &rows {
        println!(
            "{:<8} {:>5} {:<9} {:>10} {:>10} {:>11} {:>9} {:>10.4}",
            row.engine,
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
