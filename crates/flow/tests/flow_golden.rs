//! Golden flow plans: the bytes of congested flow output, pinned.
//!
//! `flow_differential` checks the uncongested delegation and the
//! metamorphic properties, neither of which sees a congested route
//! move. This suite renders, for every case, the per-net report lines
//! (`clockroute_cli::report::plan_report`, what `crplan --quiet`
//! prints), each routed net's geometry, and the congestion section
//! (`FlowSummary::render`), and compares the whole text with
//! `tests/golden/flow_plans.txt`. The cases:
//!
//! * the three shipped `scenarios/flow_*.cr`;
//! * seeded walled-bottleneck instances from [`walled`]: a two-column
//!   wall of hard blocks crossed through single-row gaps of capacity 1,
//!   with comb, reg and gals nets on both sides;
//! * some of those instances under
//!   `SearchBudget::with_max_candidates(k)`, with `k` chosen so the flow
//!   budget trips inside the initial routing pass and inside rip-up
//!   (each case asserts which, from the oracle's call count).
//!
//! Every case runs at 1, 2 and 4 jobs, and each job count's text must
//! equal the one golden file: flow output does not depend on the
//! worker count, budget trips included. The capped cases must also
//! trip with the same summary and the same oracle counters at every
//! job count.
//!
//! On a mismatch the suite writes what it rendered to
//! `flow_plans.actual.txt` under Cargo's per-target temp directory and
//! names the first differing line; copying that file over the golden
//! one is how the table is regenerated after an intended change.

use clockroute_cli::{report, scenario};
use clockroute_core::{failpoint, MetricsRecorder, SearchBudget};
use clockroute_elmore::GateLibrary;
use clockroute_flow::{FlowConfig, FlowMode, FlowPlan, PlannerFlowExt};
use clockroute_grid::GridGraph;
use clockroute_plan::{Degradation, Planner, SharedTelemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/flow_plans.txt");

/// First seed of the generated instances; instance `i` uses
/// `BASE_SEED + i`.
const BASE_SEED: u64 = 0x60_1D_F1_0E;

/// Generated walled-bottleneck instances.
const INSTANCES: u64 = 20;

/// A walled-bottleneck scenario in the `.cr` format: a vertical wall
/// of hard blocks two columns wide, crossable only through two or
/// three single-row gaps whose edges carry one net each, and more
/// crossing nets than gaps. Small enough for the debug profile.
fn walled(seed: u64) -> String {
    let mut rng = StdRng::seed_from_u64(seed);
    let grid = rng.gen_range(11u32..=15);
    let wall = grid / 2 - 1 + rng.gen_range(0u32..=1);
    let gap_count = rng.gen_range(2u32..=3);
    let band = grid / gap_count;
    let gaps: Vec<u32> = (0..gap_count)
        .map(|k| k * band + rng.gen_range(1..band - 1))
        .collect();
    let mut text = format!(
        "die {0}mm {0}mm\ngrid {1} {1}\ntech paper\nreserve off\ncapacity default {2}\n",
        grid / 2,
        grid,
        rng.gen_range(1u32..=2)
    );
    let mut y = 0;
    for &g in &gaps {
        if g > y {
            let _ = writeln!(text, "block hard {wall} {y} {} {}", wall + 1, g - 1);
        }
        y = g + 1;
    }
    let _ = writeln!(text, "block hard {wall} {y} {} {}", wall + 1, grid - 1);
    for &g in &gaps {
        let _ = writeln!(text, "capacity rect {} {g} {} {g} 1", wall - 1, wall + 2);
    }
    let nets = rng.gen_range(6usize..=10);
    for n in 0..nets {
        let left = (rng.gen_range(0..wall - 1), rng.gen_range(0..grid));
        let right = (rng.gen_range(wall + 3..grid), rng.gen_range(0..grid));
        let (src, dst) = if n % 2 == 0 {
            (left, right)
        } else {
            (right, left)
        };
        let (kind, params) = match rng.gen_range(0u32..10) {
            0..=4 => ("comb", String::new()),
            5..=7 => ("reg", format!(" period={}", rng.gen_range(300u32..600))),
            _ => (
                "gals",
                format!(
                    " ts={} tt={}",
                    rng.gen_range(300u32..500),
                    rng.gen_range(300u32..500)
                ),
            ),
        };
        let _ = writeln!(
            text,
            "net {kind} name=n{n} src={},{} dst={},{}{params}",
            src.0, src.1, dst.0, dst.1
        );
    }
    text
}

/// Worker counts every case runs at.
const JOBS: [usize; 3] = [1, 2, 4];

/// Plans `text` in flow mode under `budget` on `jobs` workers, as
/// `crplan --flow` does, with the metrics it recorded.
fn flow_metered(text: &str, budget: SearchBudget, jobs: usize) -> (FlowPlan, MetricsRecorder) {
    let sc = scenario::parse(text).expect("golden scenario parses");
    let (gw, gh) = sc.grid;
    let graph = GridGraph::from_floorplan(&sc.floorplan, gw, gh);
    let recorder = Arc::new(MetricsRecorder::new());
    let fp = Planner::new(graph, sc.tech, GateLibrary::paper_library())
        .reserve_routes(sc.reserve)
        .budget(budget)
        .jobs(jobs)
        .telemetry(SharedTelemetry::new(recorder.clone()))
        .flow(&sc.nets, &sc.capacities, FlowConfig::default());
    let recorder = Arc::try_unwrap(recorder).expect("the planner released its sink");
    (fp, recorder)
}

/// [`flow_metered`] without the metrics.
fn flow(text: &str, budget: SearchBudget, jobs: usize) -> FlowPlan {
    flow_metered(text, budget, jobs).0
}

/// The priced oracle's exact work counts.
fn oracle_counters(m: &MetricsRecorder) -> [u64; 3] {
    [
        "flow.oracle.calls",
        "flow.oracle.pops",
        "flow.oracle.expands",
    ]
    .map(|c| m.counter_value(c))
}

/// One case's section of the golden text.
fn render(out: &mut String, label: &str, fp: &FlowPlan) {
    let _ = writeln!(out, "== {label}");
    out.push_str(&report::plan_report(fp.plan()));
    for r in fp.plan().results() {
        if let Some(path) = &r.path {
            let _ = writeln!(out, "  {}: {}", r.name, path.grid_path());
        }
    }
    out.push_str(&fp.summary().render());
}

fn shipped(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(name);
    std::fs::read_to_string(&path).expect("shipped scenario readable")
}

/// Budgeted cases: `(instance, k, in_initial)` runs instance
/// `BASE_SEED + instance` under `with_max_candidates(k)`; the flow
/// budget trips inside the initial routing pass when `in_initial`,
/// inside rip-up otherwise. Each instance trips once in each.
const CAPPED: [(u64, u64, bool); 10] = [
    (1, 600, true),
    (1, 2_500, false),
    (5, 500, true),
    (5, 2_000, false),
    (9, 1_000, true),
    (9, 3_500, false),
    (13, 800, true),
    (13, 2_500, false),
    (17, 1_200, true),
    (17, 4_000, false),
];

#[test]
fn congested_flow_output_matches_golden_file() {
    for jobs in JOBS {
        check_golden(jobs, &render_all(jobs));
    }
}

/// The golden text, rendered on `jobs` workers.
fn render_all(jobs: usize) -> String {
    let mut out = String::new();
    for name in ["flow_spread.cr", "flow_bridges.cr", "flow_mesh.cr"] {
        let fp = flow(&shipped(name), SearchBudget::unlimited(), jobs);
        assert_eq!(fp.summary().mode, FlowMode::Priced, "{name}");
        render(&mut out, name, &fp);
    }
    for i in 0..INSTANCES {
        let seed = BASE_SEED + i;
        let fp = flow(&walled(seed), SearchBudget::unlimited(), jobs);
        assert_eq!(fp.summary().mode, FlowMode::Priced, "seed {seed}");
        render(&mut out, &format!("walled seed {seed}"), &fp);
    }
    for (i, k, in_initial) in CAPPED {
        let seed = BASE_SEED + i;
        let text = walled(seed);
        let nets = scenario::parse(&text).expect("parses").nets.len() as u64;
        let (fp, metrics) = flow_metered(
            &text,
            SearchBudget::unlimited().with_max_candidates(k),
            jobs,
        );
        let s = fp.summary();
        assert!(s.budget_exhausted, "seed {seed} k {k} did not trip");
        // The initial pass calls the oracle once per net; a call past
        // that is a rip-up's.
        let calls = metrics.counter_value("flow.oracle.calls");
        assert_eq!(
            calls <= nets,
            in_initial,
            "seed {seed} k {k}: {calls} calls, {nets} nets"
        );
        render(
            &mut out,
            &format!("walled seed {seed} max_candidates {k}"),
            &fp,
        );
    }
    out
}

/// Under a capped budget initial routing and rip-up run inline on one
/// meter, before any worker starts, so a capped run trips where one job
/// trips: same summary, same oracle work, same metrics.
#[test]
fn capped_runs_trip_identically_at_every_job_count() {
    for (i, k, _) in CAPPED {
        let seed = BASE_SEED + i;
        let budget = SearchBudget::unlimited().with_max_candidates(k);
        let (one, one_metrics) = flow_metered(&walled(seed), budget, 1);
        for jobs in &JOBS[1..] {
            let (fp, metrics) = flow_metered(&walled(seed), budget, *jobs);
            let ctx = format!("seed {seed} k {k} jobs {jobs}");
            assert_eq!(fp.summary(), one.summary(), "{ctx}");
            assert_eq!(
                oracle_counters(&metrics),
                oracle_counters(&one_metrics),
                "{ctx}"
            );
            assert_eq!(metrics.to_json(), one_metrics.to_json(), "{ctx}");
        }
    }
}

/// Initial routing fans out to the workers only when no budget can
/// trip. Under a candidate cap it stays sequential on the one flow
/// meter, so a trip inside it lands on the pop the cap refuses, pop
/// `k + 1`, at every job count.
#[test]
fn capped_initial_routing_trips_at_the_same_pop_at_every_job_count() {
    for (i, k, in_initial) in CAPPED {
        if !in_initial {
            continue;
        }
        let seed = BASE_SEED + i;
        let budget = SearchBudget::unlimited().with_max_candidates(k);
        for jobs in JOBS {
            let (fp, metrics) = flow_metered(&walled(seed), budget, jobs);
            let ctx = format!("seed {seed} k {k} jobs {jobs}");
            assert!(fp.summary().budget_exhausted, "{ctx}");
            assert_eq!(metrics.counter_value("flow.oracle.pops"), k + 1, "{ctx}");
        }
    }
}

/// With an unlimited budget the initial pass runs on the workers, one
/// oracle each; the summed oracle work equals one job's.
#[test]
fn unlimited_runs_do_the_same_oracle_work_at_every_job_count() {
    let mut texts: Vec<String> = ["flow_spread.cr", "flow_bridges.cr", "flow_mesh.cr"]
        .into_iter()
        .map(shipped)
        .collect();
    texts.extend((0..INSTANCES).map(|i| walled(BASE_SEED + i)));
    for (n, text) in texts.iter().enumerate() {
        let one = oracle_counters(&flow_metered(text, SearchBudget::unlimited(), 1).1);
        for jobs in &JOBS[1..] {
            let (_, metrics) = flow_metered(text, SearchBudget::unlimited(), *jobs);
            assert_eq!(oracle_counters(&metrics), one, "case {n} jobs {jobs}");
        }
    }
}

/// Above one job, helpers legalize nets while rip-up runs, and rip-up
/// moves some of them again: their speculations are voided, and the
/// telemetry those recorded is dropped with them. On every unlimited
/// walled instance the whole metrics export — every counter and gauge,
/// not only the oracle's — equals one job's.
#[test]
fn unlimited_walled_metrics_are_identical_at_every_job_count() {
    for i in 0..INSTANCES {
        let seed = BASE_SEED + i;
        let text = walled(seed);
        let one = flow_metered(&text, SearchBudget::unlimited(), 1)
            .1
            .to_json();
        for jobs in &JOBS[1..] {
            let (_, metrics) = flow_metered(&text, SearchBudget::unlimited(), *jobs);
            assert_eq!(metrics.to_json(), one, "seed {seed} jobs {jobs}");
        }
    }
}

/// With `plan::net=panic@1+` armed every legalization attempt panics
/// inside the planner's panic boundary. Above one job the failpoints
/// are re-installed for each net on whichever thread legalizes it,
/// speculation and the calling thread's share included, so 2 and 4 jobs
/// ship the plan and the metrics one job ships.
#[test]
fn sticky_net_panics_match_one_job() {
    let texts = [
        shipped("flow_spread.cr"),
        walled(BASE_SEED),
        walled(BASE_SEED + 3),
    ];
    failpoint::disarm_all();
    failpoint::arm_from_spec("plan::net=panic@1+").expect("failpoint spec parses");
    for (n, text) in texts.iter().enumerate() {
        let (one, one_metrics) = flow_metered(text, SearchBudget::unlimited(), 1);
        assert!(
            one.plan()
                .results()
                .iter()
                .all(|r| r.error.is_some() || r.degradation != Degradation::None),
            "case {n}: a full timing search answered"
        );
        for jobs in &JOBS[1..] {
            let (fp, metrics) = flow_metered(text, SearchBudget::unlimited(), *jobs);
            assert_eq!(fp, one, "case {n} jobs {jobs}");
            assert_eq!(
                metrics.to_json(),
                one_metrics.to_json(),
                "case {n} jobs {jobs}"
            );
        }
    }
    failpoint::disarm_all();
}

fn check_golden(jobs: usize, out: &str) {
    if out != GOLDEN {
        let actual =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("flow_plans.actual.txt");
        std::fs::write(&actual, out).expect("write actual flow plans");
        let first = out
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "flow output at {jobs} jobs diverged from tests/golden/flow_plans.txt at line {}:\n  got  {:?}\n  want {:?}\nfull output: {}",
            first + 1,
            out.lines().nth(first),
            GOLDEN.lines().nth(first),
            actual.display()
        );
    }
}
