//! Flow-mode quality benchmark: sequential vs congestion-aware flow
//! planning on the shipped congested scenarios, appended as JSONL rows
//! to `BENCH_core.json` at the workspace root.
//!
//! Each scenario is planned twice — once with the order-driven
//! sequential planner (which is blind to `capacity` directives) and
//! once with `--flow` — and both plans are scored against the
//! scenario's capacities: total/max edge overflow, summed latency of
//! the routed nets, total wirelength, and wall-clock.
//!
//! Usage:
//!   cargo run --release -p clockroute-bench --bin flowbench
//!   cargo run --release -p clockroute-bench --bin flowbench -- --check
//!
//! `--check` is the CI gate wired into `scripts/check.sh`: on every
//! shipped congested scenario the flow plan must route every net and
//! ship *strictly less* overflow than the sequential plan (the shipped
//! scenarios are designed so sequential overflows and flow reaches
//! zero). Check mode never appends.

use clockroute_cli::scenario;
use clockroute_elmore::GateLibrary;
use clockroute_flow::{FlowConfig, PlannerFlowExt};
use clockroute_grid::{EdgeCapacities, GridGraph};
use clockroute_plan::{Plan, Planner};
use std::collections::BTreeMap;
use std::io::Write;

const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_core.json");

/// The shipped congested scenarios (workspace-root relative).
const SCENARIOS: [&str; 3] = ["flow_spread", "flow_bridges", "flow_mesh"];

struct Row {
    scenario: &'static str,
    mode: &'static str,
    routed: usize,
    nets: usize,
    overflow: u64,
    max_overflow: u32,
    latency_ps: f64,
    wire_mm: f64,
    seconds: f64,
}

impl Row {
    fn to_json(&self) -> String {
        format!(
            "{{\"bench\":\"flow.quality\",\"scenario\":\"{}\",\"mode\":\"{}\",\"routed\":{},\"nets\":{},\"overflow\":{},\"max_overflow\":{},\"latency_ps\":{:.1},\"wire_mm\":{:.1},\"seconds\":{:.6}}}",
            self.scenario,
            self.mode,
            self.routed,
            self.nets,
            self.overflow,
            self.max_overflow,
            self.latency_ps,
            self.wire_mm,
            self.seconds,
        )
    }
}

/// Scores a finished plan against the scenario's capacities: per-edge
/// usage over the capacitated edges, reduced to (total, max) overflow.
fn overflow_of(plan: &Plan, graph: &GridGraph, caps: &EdgeCapacities) -> (u64, u32) {
    let mut usage: BTreeMap<(u32, u32, u32, u32), u32> = BTreeMap::new();
    for result in plan.routed() {
        let Some(path) = result.path.as_ref() else {
            continue;
        };
        for w in path.points().windows(2) {
            if caps.cap(w[0], w[1]).is_some() {
                let key = clockroute_grid::edge_key(w[0], w[1]);
                *usage.entry(key).or_insert(0) += 1;
            }
        }
    }
    let mut total = 0u64;
    let mut max = 0u32;
    for (a, b, cap) in caps.capacitated_edges(graph) {
        let used = usage
            .get(&clockroute_grid::edge_key(a, b))
            .copied()
            .unwrap_or(0);
        let over = used.saturating_sub(cap);
        total += u64::from(over);
        max = max.max(over);
    }
    (total, max)
}

fn score(
    name: &'static str,
    mode: &'static str,
    plan: &Plan,
    graph: &GridGraph,
    caps: &EdgeCapacities,
    seconds: f64,
) -> Row {
    let (overflow, max_overflow) = overflow_of(plan, graph, caps);
    Row {
        scenario: name,
        mode,
        routed: plan.routed().count(),
        nets: plan.results().len(),
        overflow,
        max_overflow,
        latency_ps: plan
            .routed()
            .filter_map(|r| r.latency)
            .map(|t| t.ps())
            .sum(),
        wire_mm: plan
            .routed()
            .filter_map(|r| r.path.as_ref())
            .map(|p| p.wirelength(graph).mm())
            .sum(),
        seconds,
    }
}

/// Plans one scenario both ways and returns its two rows.
fn run_scenario(name: &'static str) -> Result<[Row; 2], String> {
    let path = format!("{}/../../scenarios/{name}.cr", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    let s = scenario::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let (gw, gh) = s.grid;
    let graph = GridGraph::from_floorplan(&s.floorplan, gw, gh);
    let lib = GateLibrary::paper_library();
    let planner = || {
        Planner::new(graph.clone(), s.tech, lib.clone())
            .reserve_routes(s.reserve)
            .jobs(1)
    };

    let start = clockroute_bench::now();
    let sequential = planner().plan(&s.nets);
    let seq_seconds = start.elapsed().as_secs_f64();

    let start = clockroute_bench::now();
    let flow = planner().flow(&s.nets, &s.capacities, FlowConfig::default());
    let flow_seconds = start.elapsed().as_secs_f64();

    Ok([
        score(
            name,
            "sequential",
            &sequential,
            &graph,
            &s.capacities,
            seq_seconds,
        ),
        score(
            name,
            "flow",
            flow.plan(),
            &graph,
            &s.capacities,
            flow_seconds,
        ),
    ])
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

/// CI gate: on every shipped congested scenario, flow must route all
/// nets and beat the sequential plan's overflow outright. Returns the
/// process exit code.
fn check(rows: &[Row]) -> i32 {
    let mut failures = 0;
    for pair in rows.chunks(2) {
        let [seq, flow] = pair else { continue };
        let ok = flow.routed == flow.nets && seq.overflow > 0 && flow.overflow < seq.overflow;
        if !ok {
            failures += 1;
        }
        println!(
            "check {}: sequential overflow {} vs flow overflow {} (routed {}/{}) {}",
            seq.scenario,
            seq.overflow,
            flow.overflow,
            flow.routed,
            flow.nets,
            if ok { "ok" } else { "FAILED" }
        );
    }
    if failures > 0 {
        eprintln!("flowbench --check: {failures} scenario(s) where flow did not beat sequential");
        return 1;
    }
    println!("flowbench --check: flow beats sequential overflow on every congested scenario");
    0
}

fn main() {
    let check_mode = std::env::args().skip(1).any(|a| a == "--check");
    let mut rows = Vec::new();
    for name in SCENARIOS {
        match run_scenario(name) {
            Ok(pair) => rows.extend(pair),
            Err(e) => {
                eprintln!("error: {e}");
                std::process::exit(2);
            }
        }
    }
    println!(
        "{:<14} {:<11} {:>6} {:>9} {:>8} {:>12} {:>9} {:>8}",
        "scenario", "mode", "routed", "overflow", "max", "latency_ps", "wire_mm", "seconds"
    );
    for row in &rows {
        println!(
            "{:<14} {:<11} {:>3}/{:<2} {:>9} {:>8} {:>12.1} {:>9.1} {:>8.4}",
            row.scenario,
            row.mode,
            row.routed,
            row.nets,
            row.overflow,
            row.max_overflow,
            row.latency_ps,
            row.wire_mm,
            row.seconds,
        );
    }
    if check_mode {
        std::process::exit(check(&rows));
    }
    append_rows(&rows);
}
