//! Differential and metamorphic suite for the flow-mode planner.
//!
//! * **Differential** — on uncongested scenarios (no finite capacity
//!   anywhere) flow mode must be *byte-identical* to the sequential
//!   planner across 100+ seeded random instances: delegation is
//!   structural, not approximate.
//! * **Metamorphic** — relaxing any single edge capacity never
//!   increases the total overflow flow ships, and permuting the net
//!   declaration order never changes any route.
//!
//! Seeds are deterministic (`BASE_SEED + index`), so a failure
//! reproduces by re-running the suite; the panic message carries the
//! instance seed.

use clockroute_elmore::{GateLibrary, Technology};
use clockroute_flow::{FlowConfig, FlowMode, FlowPlan, PlannerFlowExt};
use clockroute_geom::units::Length;
use clockroute_geom::Point;
use clockroute_grid::{EdgeCapacities, GridGraph};
use clockroute_plan::{NetSpec, Planner};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// First seed of the suite; instance `i` uses `BASE_SEED + i`.
const BASE_SEED: u64 = 0xF10F_CAFE;

/// Instance count for the uncongested differential sweep (the issue
/// floor is 100).
const UNCONGESTED_INSTANCES: u64 = 100;

struct Instance {
    graph: GridGraph,
    nets: Vec<NetSpec>,
}

/// A random open-grid scenario with combinational nets. Terminal pairs
/// may collide across nets — that is the interesting congested case.
fn generate(seed: u64) -> Instance {
    let mut rng = StdRng::seed_from_u64(seed);
    let width = rng.gen_range(4u32..=8);
    let height = rng.gen_range(3u32..=6);
    let pitch = Length::from_um(rng.gen_range(200.0f64..1200.0));
    let graph = GridGraph::open(width, height, pitch);
    let net_count = rng.gen_range(2usize..=5);
    let mut nets = Vec::new();
    for i in 0..net_count {
        let pick = |rng: &mut StdRng| Point::new(rng.gen_range(0..width), rng.gen_range(0..height));
        let source = pick(&mut rng);
        let sink = loop {
            let p = pick(&mut rng);
            if p != source {
                break p;
            }
        };
        nets.push(NetSpec::combinational(&format!("n{i}"), source, sink));
    }
    Instance { graph, nets }
}

fn planner(graph: GridGraph) -> Planner {
    Planner::new(
        graph,
        Technology::paper_070nm(),
        GateLibrary::paper_library(),
    )
}

/// Per-net report lines keyed by name: the comparison surface for
/// plans whose net order may differ.
fn by_name(fp: &FlowPlan) -> BTreeMap<String, String> {
    fp.plan()
        .results()
        .iter()
        .map(|r| (r.name.clone(), r.to_string()))
        .collect()
}

#[test]
fn uncongested_flow_is_byte_identical_to_sequential_across_seeds() {
    for i in 0..UNCONGESTED_INSTANCES {
        let seed = BASE_SEED + i;
        let inst = generate(seed);
        let sequential = planner(inst.graph.clone()).plan(&inst.nets);
        // The flow seed and iteration count vary too: neither may leak
        // into a delegated plan.
        let cfg = FlowConfig {
            seed,
            iters: 1 + (i % 7) as u32,
        };
        let flow = planner(inst.graph).flow(&inst.nets, &EdgeCapacities::new(), cfg);
        assert_eq!(flow.summary().mode, FlowMode::Delegated, "seed {seed}");
        assert_eq!(
            flow.plan(),
            &sequential,
            "seed {seed}: delegated flow plan diverged from sequential"
        );
    }
}

/// The canonical contention instance: three identical-terminal nets on
/// a unit-capacity channel wide enough to spread them.
fn contention() -> (GridGraph, Vec<NetSpec>, EdgeCapacities) {
    let graph = GridGraph::open(7, 5, Length::from_um(500.0));
    let nets = (0..3)
        .map(|i| NetSpec::combinational(&format!("n{i}"), Point::new(0, 2), Point::new(6, 2)))
        .collect();
    let mut caps = EdgeCapacities::new();
    caps.set_default(1);
    (graph, nets, caps)
}

/// An over-subscribed instance with *unavoidable* overflow: a
/// single-row channel cannot spread three identical nets.
fn oversubscribed() -> (GridGraph, Vec<NetSpec>, EdgeCapacities) {
    let graph = GridGraph::open(7, 1, Length::from_um(500.0));
    let nets = (0..3)
        .map(|i| NetSpec::combinational(&format!("n{i}"), Point::new(0, 0), Point::new(6, 0)))
        .collect();
    let mut caps = EdgeCapacities::new();
    caps.set_default(1);
    (graph, nets, caps)
}

#[test]
fn raising_one_capacity_never_increases_overflow() {
    for (tag, (graph, nets, caps)) in [("spread", contention()), ("jam", oversubscribed())] {
        let base = planner(graph.clone()).flow(&nets, &caps, FlowConfig::default());
        let base_overflow = base.summary().total_overflow;
        for (a, b, cap) in caps.capacitated_edges(&graph) {
            let mut relaxed = caps.clone();
            relaxed.set_edge(a, b, cap + 1);
            let run = planner(graph.clone()).flow(&nets, &relaxed, FlowConfig::default());
            assert!(
                run.summary().total_overflow <= base_overflow,
                "{tag}: raising cap of {a}-{b} to {} raised overflow {} -> {}",
                cap + 1,
                base_overflow,
                run.summary().total_overflow,
            );
        }
    }
}

#[test]
fn net_order_permutation_never_changes_a_flow_route() {
    for i in 0..20u64 {
        let seed = BASE_SEED ^ (0x9E37 + i);
        let inst = generate(seed);
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let cfg = FlowConfig {
            seed,
            ..FlowConfig::default()
        };
        let reference = planner(inst.graph.clone()).flow(&inst.nets, &caps, cfg);

        // Deterministic Fisher–Yates permutation of the declaration order.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(3)); // distinct stream
        let mut permuted = inst.nets.clone();
        for j in (1..permuted.len()).rev() {
            permuted.swap(j, rng.gen_range(0..=j));
        }
        let shuffled = planner(inst.graph).flow(&permuted, &caps, cfg);
        assert_eq!(
            by_name(&reference),
            by_name(&shuffled),
            "seed {seed}: permuting net order changed a route"
        );
        assert_eq!(
            reference.summary().total_overflow,
            shuffled.summary().total_overflow,
            "seed {seed}"
        );
    }
}

#[test]
fn capacitated_flow_is_reproducible_across_random_scenarios() {
    for i in 0..20u64 {
        let seed = BASE_SEED ^ (0xB5E5 + i);
        let inst = generate(seed);
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let cfg = FlowConfig {
            seed,
            ..FlowConfig::default()
        };
        let a = planner(inst.graph.clone()).flow(&inst.nets, &caps, cfg);
        let b = planner(inst.graph).flow(&inst.nets, &caps, cfg);
        assert_eq!(a, b, "seed {seed}: flow run not reproducible");
    }
}
