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
//! * the same instances under `SearchBudget::with_max_candidates(k)`,
//!   with `k` chosen so the flow budget trips inside a price round and
//!   inside rip-up (each case asserts which).
//!
//! On a mismatch the suite writes what it rendered to
//! `flow_plans.actual.txt` under Cargo's per-target temp directory and
//! names the first differing line; copying that file over the golden
//! one is how the table is regenerated after an intended change.

use clockroute_cli::{report, scenario};
use clockroute_core::SearchBudget;
use clockroute_elmore::GateLibrary;
use clockroute_flow::{FlowConfig, FlowMode, FlowPlan, PlannerFlowExt};
use clockroute_grid::GridGraph;
use clockroute_plan::Planner;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

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

/// Plans `text` in flow mode under `budget`, as `crplan --flow` does.
fn flow(text: &str, budget: SearchBudget) -> FlowPlan {
    let sc = scenario::parse(text).expect("golden scenario parses");
    let (gw, gh) = sc.grid;
    let graph = GridGraph::from_floorplan(&sc.floorplan, gw, gh);
    Planner::new(graph, sc.tech, GateLibrary::paper_library())
        .reserve_routes(sc.reserve)
        .budget(budget)
        .flow(&sc.nets, &sc.capacities, FlowConfig::default())
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

/// Budgeted cases: `(instance, k, in_rounds)` runs instance `BASE_SEED
/// + instance` under `with_max_candidates(k)`; the flow budget trips
/// inside a price round when `in_rounds`, inside rip-up otherwise.
const CAPPED: [(u64, u64, bool); 10] = [
    (1, 9_000, true),
    (1, 19_000, false),
    (5, 3_500, true),
    (5, 15_000, false),
    (9, 500, true),
    (9, 20_000, false),
    (13, 19_000, false),
    (14, 12_500, true),
    (17, 11_500, true),
    (17, 25_000, false),
];

#[test]
fn congested_flow_output_matches_golden_file() {
    let mut out = String::new();
    for name in ["flow_spread.cr", "flow_bridges.cr", "flow_mesh.cr"] {
        let fp = flow(&shipped(name), SearchBudget::unlimited());
        assert_eq!(fp.summary().mode, FlowMode::Priced, "{name}");
        render(&mut out, name, &fp);
    }
    for i in 0..INSTANCES {
        let seed = BASE_SEED + i;
        let fp = flow(&walled(seed), SearchBudget::unlimited());
        assert_eq!(fp.summary().mode, FlowMode::Priced, "seed {seed}");
        render(&mut out, &format!("walled seed {seed}"), &fp);
    }
    for (i, k, in_rounds) in CAPPED {
        let seed = BASE_SEED + i;
        let full_rounds = flow(&walled(seed), SearchBudget::unlimited())
            .summary()
            .rounds;
        let fp = flow(
            &walled(seed),
            SearchBudget::unlimited().with_max_candidates(k),
        );
        let s = fp.summary();
        assert!(s.budget_exhausted, "seed {seed} k {k} did not trip");
        if in_rounds {
            assert!(s.rounds < full_rounds, "seed {seed} k {k}: {s:?}");
        } else {
            assert_eq!(s.rounds, full_rounds, "seed {seed} k {k}: {s:?}");
        }
        render(
            &mut out,
            &format!("walled seed {seed} max_candidates {k}"),
            &fp,
        );
    }

    if out != GOLDEN {
        let actual =
            std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("flow_plans.actual.txt");
        std::fs::write(&actual, &out).expect("write actual flow plans");
        let first = out
            .lines()
            .zip(GOLDEN.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| out.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "flow output diverged from tests/golden/flow_plans.txt at line {}:\n  got  {:?}\n  want {:?}\nfull output: {}",
            first + 1,
            out.lines().nth(first),
            GOLDEN.lines().nth(first),
            actual.display()
        );
    }
}
