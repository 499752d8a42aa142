//! Congestion-aware global routing: the multicommodity-flow batch mode.
//!
//! The sequential [`Planner`] routes nets in declaration order and
//! resolves contention by detouring later nets around earlier commits,
//! so batch quality is an artifact of net order. This crate adds a
//! *batch* mode in the shape of Albrecht–Kahng–Măndoiu–Zelikovsky's
//! multicommodity-flow formulation (PAPERS.md):
//!
//! 1. **Fractional phase** — synchronous price rounds. Every round,
//!    each net independently asks the priced geometry oracle
//!    ([`price`]) for its cheapest path under the *current* per-edge
//!    congestion prices (physical length × multiplier); after all nets
//!    have answered, prices on overloaded edges are raised
//!    multiplicatively. Jacobi-style synchronous updates make the
//!    round outcome independent of net declaration order.
//! 2. **Integralization** — deterministic seeded randomized rounding:
//!    each net draws one geometry from its per-round candidate
//!    distribution with a PRNG seeded from `seed ⊕ hash(name)` (so
//!    draws are order-free), then overflow offenders are ripped up
//!    worst-first (ties by net name) and rerouted under saturation
//!    prices until feasible, stuck, or budget-exhausted.
//! 3. **Legalization** — each net's chosen geometry becomes a
//!    one-net corridor (every off-path edge blocked) handed to the
//!    exact per-net searches via an inner [`Planner`], so timing,
//!    buffering and synchronizer insertion stay bit-exact with the
//!    sequential engine's cost model. A net that cannot be legalized
//!    in its corridor retries on the full grid, reusing the
//!    degradation ladder end to end.
//!
//! **Determinism contract.** Same scenario + seed + iteration count ⇒
//! byte-identical plan, regardless of `--jobs`: all state is keyed by
//! `BTreeMap` over canonical edge keys or net names, the oracle breaks
//! ties by node id, and rounding draws are per-net functions of the
//! seed and name. When no edge anywhere has a finite capacity
//! ([`EdgeCapacities::is_unconstrained`]), `flow` delegates wholesale
//! to [`Planner::plan`], so every pre-existing scenario is
//! byte-identical by construction.

mod price;
pub mod report;

pub use report::{FlowMode, FlowSummary, RoundStats};

use clockroute_core::canon::{mix64, CanonHasher};
use clockroute_core::telemetry::Value;
use clockroute_core::{BudgetMeter, SearchStage, TelemetryHandle};
use clockroute_geom::Point;
use clockroute_grid::{edge_key, EdgeCapacities, EdgeKey, GridGraph};
use clockroute_plan::{NetResult, NetSpec, Plan, Planner, SharedTelemetry};
use std::collections::{BTreeMap, BTreeSet};

/// Knobs of the flow pipeline. The defaults are deliberately small:
/// the fractional phase converges in a handful of rounds on the
/// scenario sizes the planner targets.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// Fractional price rounds (clamped to ≥ 1).
    pub iters: u32,
    /// Rounding seed; same seed ⇒ same plan.
    pub seed: u64,
    /// Multiplicative price-update step: an overloaded edge's price is
    /// scaled by `1 + epsilon · usage/cap` each round.
    pub epsilon: f64,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig {
            iters: 12,
            seed: 0,
            epsilon: 0.25,
        }
    }
}

/// A plan produced by flow mode, with its congestion summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowPlan {
    plan: Plan,
    summary: FlowSummary,
}

impl FlowPlan {
    /// The routed plan (same shape as [`Planner::plan`]'s output).
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// The congestion/overflow summary.
    pub fn summary(&self) -> &FlowSummary {
        &self.summary
    }

    /// Decomposes into plan and summary.
    pub fn into_parts(self) -> (Plan, FlowSummary) {
        (self.plan, self.summary)
    }
}

/// Extension trait surfacing flow mode on [`Planner`] without a
/// dependency cycle (the planner crate stays oblivious to flow).
pub trait PlannerFlowExt {
    /// Routes `nets` as a congestion-aware batch against `caps`.
    ///
    /// With no finite capacity anywhere this is exactly
    /// [`Planner::plan`] (byte-identical, same reservation and job
    /// settings). Otherwise the three-phase flow pipeline runs; inner
    /// legalization planners route one net each, at one job, with
    /// reservation off — the capacity model replaces route reservation
    /// as the contention mechanism.
    fn flow(self, nets: &[NetSpec], caps: &EdgeCapacities, config: FlowConfig) -> FlowPlan;
}

impl PlannerFlowExt for Planner {
    fn flow(self, nets: &[NetSpec], caps: &EdgeCapacities, config: FlowConfig) -> FlowPlan {
        if caps.is_unconstrained() {
            let telemetry = self.telemetry_sink().cloned();
            let plan = self.plan(nets);
            th(&telemetry).counter("flow.delegated", 1);
            return FlowPlan {
                plan,
                summary: FlowSummary::delegated(config.seed),
            };
        }
        flow_priced(self, nets, caps, config)
    }
}

/// Price multiplier ceiling — keeps repeated multiplicative updates
/// finite without ever changing which edge is cheapest in practice.
const PRICE_CEILING: f64 = 1e9;
/// Additive weight penalty per unit of saturation during rip-up: any
/// unsaturated detour is cheaper than one more unit on a full edge.
const SATURATION_PENALTY: f64 = 1e6;

/// A borrowed telemetry handle over an optional shared sink.
fn th(t: &Option<SharedTelemetry>) -> TelemetryHandle<'_> {
    match t {
        Some(s) => s.handle(),
        None => TelemetryHandle::none(),
    }
}

/// Canonical geometry key: the path's points as a comparable value.
type PathKey = Vec<Point>;

fn net_draw_state(seed: u64, name: &str) -> u64 {
    let mut h = CanonHasher::new();
    h.write_str(name);
    mix64(seed ^ h.finish())
}

/// Adds (`delta = 1`) or removes (`delta = -1`) a path's usage on the
/// capacitated edges.
fn apply_usage(
    usage: &mut BTreeMap<EdgeKey, u32>,
    cap_edges: &BTreeMap<EdgeKey, u32>,
    points: &[Point],
    delta: i64,
) {
    for w in points.windows(2) {
        let k = edge_key(w[0], w[1]);
        if cap_edges.contains_key(&k) {
            let e = usage.entry(k).or_insert(0);
            *e = (i64::from(*e) + delta).max(0) as u32;
        }
    }
}

/// `(total, max)` overflow of `usage` against `cap_edges`.
fn overflow_of(usage: &BTreeMap<EdgeKey, u32>, cap_edges: &BTreeMap<EdgeKey, u32>) -> (u64, u32) {
    let mut total = 0u64;
    let mut max = 0u32;
    for (k, &u) in usage {
        if let Some(&c) = cap_edges.get(k) {
            if u > c {
                total += u64::from(u - c);
                max = max.max(u - c);
            }
        }
    }
    (total, max)
}

/// The grid restricted to one net's chosen geometry: every edge not on
/// the path is blocked, so the exact searches legalize timing along
/// exactly this corridor.
fn corridor_graph(base: &GridGraph, points: &[Point]) -> GridGraph {
    let mut g = base.clone();
    let on_path: BTreeSet<EdgeKey> = points.windows(2).map(|w| edge_key(w[0], w[1])).collect();
    for y in 0..g.height() {
        for x in 0..g.width() {
            let p = Point::new(x, y);
            for q in [Point::new(x + 1, y), Point::new(x, y + 1)] {
                if q.x >= g.width() || q.y >= g.height() {
                    continue;
                }
                if !on_path.contains(&edge_key(p, q)) {
                    g.blockage_mut().block_edge(p, q);
                }
            }
        }
    }
    g
}

/// One inner per-net legalization planner: one job (the default),
/// reservation off, same budget and ladder as the outer planner,
/// telemetry shared.
fn inner_planner(
    outer: &Planner,
    graph: GridGraph,
    telemetry: &Option<SharedTelemetry>,
) -> Planner {
    let mut p = Planner::new(graph, *outer.technology(), outer.library().clone())
        .reserve_routes(false)
        .budget(outer.search_budget())
        .degrade(outer.degrades());
    if let Some(t) = telemetry {
        p = p.telemetry(t.clone());
    }
    p
}

fn flow_priced(
    planner: Planner,
    nets: &[NetSpec],
    caps: &EdgeCapacities,
    config: FlowConfig,
) -> FlowPlan {
    let graph = planner.graph().clone();
    let telemetry = planner.telemetry_sink().cloned();
    let iters = config.iters.max(1);
    let cap_edges: BTreeMap<EdgeKey, u32> = caps
        .capacitated_edges(&graph)
        .into_iter()
        .map(|(a, b, c)| (edge_key(a, b), c))
        .collect();
    let mut meter = BudgetMeter::new(planner.search_budget(), SearchStage::Flow);
    let mut budget_exhausted = false;

    // Phase 1 — fractional price rounds (synchronous: every net in a
    // round sees the same prices, so the round's outcome is a pure
    // function of the previous round, not of net declaration order).
    let mut prices: BTreeMap<EdgeKey, f64> = BTreeMap::new();
    let mut candidates: BTreeMap<&str, BTreeMap<PathKey, u32>> = BTreeMap::new();
    let mut round_stats = Vec::new();
    let mut price_updates = 0u64;
    let mut rounds = 0u32;
    'rounds: for round in 0..iters {
        let weight = |a: Point, b: Point| -> f64 {
            prices.get(&edge_key(a, b)).copied().unwrap_or(1.0)
        };
        let mut round_paths: Vec<(&str, Vec<Point>)> = Vec::new();
        for net in nets {
            match price::priced_path(&graph, net.source, net.sink, &weight, &mut meter) {
                Ok(Some(points)) => round_paths.push((&net.name, points)),
                Ok(None) => {} // unreachable terminals: full planner decides later
                Err(_) => {
                    budget_exhausted = true;
                    break 'rounds;
                }
            }
        }
        rounds += 1;
        let mut usage: BTreeMap<EdgeKey, u32> = BTreeMap::new();
        for (_, points) in &round_paths {
            apply_usage(&mut usage, &cap_edges, points, 1);
        }
        let (total, max) = overflow_of(&usage, &cap_edges);
        round_stats.push(RoundStats {
            round,
            total_overflow: total,
            max_overflow: max,
        });
        th(&telemetry).event(
            "flow.round",
            &[
                ("round", Value::U64(u64::from(round))),
                ("total_overflow", Value::U64(total)),
                ("max_overflow", Value::U64(u64::from(max))),
            ],
        );
        for (name, points) in round_paths {
            *candidates
                .entry(name)
                .or_default()
                .entry(points)
                .or_insert(0) += 1;
        }
        if total == 0 {
            // No overloaded edge ⇒ no price changes ⇒ every later round
            // repeats this one: a fixed point.
            break;
        }
        for (k, &u) in &usage {
            if let Some(&c) = cap_edges.get(k) {
                if u > c {
                    let p = prices.entry(*k).or_insert(1.0);
                    *p = (*p * (1.0 + config.epsilon * f64::from(u) / f64::from(c.max(1))))
                        .min(PRICE_CEILING);
                    price_updates += 1;
                }
            }
        }
    }
    let best_fractional_overflow = round_stats.iter().map(|r| r.total_overflow).min();

    // Phase 2a — seeded randomized rounding: each net draws one
    // geometry from its candidate distribution, weighted by how many
    // rounds chose it. The draw is a pure function of (seed, name), so
    // declaration order cannot change anyone's route.
    let mut chosen: BTreeMap<&str, Vec<Point>> = BTreeMap::new();
    for net in nets {
        let Some(dist) = candidates.get(net.name.as_str()) else {
            continue;
        };
        let total: u64 = dist.values().map(|&c| u64::from(c)).sum();
        if total == 0 {
            continue;
        }
        let draw = net_draw_state(config.seed, &net.name) % total;
        let mut acc = 0u64;
        for (points, &count) in dist {
            acc += u64::from(count);
            if draw < acc {
                chosen.insert(&net.name, points.clone());
                break;
            }
        }
    }

    // Phase 2b — priced rip-up-and-reroute of overflow offenders,
    // worst overflow contribution first, ties by net name ascending.
    let mut usage: BTreeMap<EdgeKey, u32> = BTreeMap::new();
    for points in chosen.values() {
        apply_usage(&mut usage, &cap_edges, points, 1);
    }
    let mut tried: BTreeMap<&str, BTreeSet<PathKey>> = BTreeMap::new();
    let mut ripups = 0u64;
    let ripup_cap = 16 * (nets.len() as u64 + 4);
    while !budget_exhausted && ripups < ripup_cap {
        let (total, _) = overflow_of(&usage, &cap_edges);
        if total == 0 {
            break;
        }
        // Worst offender: the net whose path crosses the most overflow.
        // Iterating the name-keyed map with a strict `>` keeps the
        // lexicographically smallest name on ties.
        let mut offender: Option<(&str, u64)> = None;
        for (&name, points) in &chosen {
            let mut contribution = 0u64;
            for w in points.windows(2) {
                let k = edge_key(w[0], w[1]);
                if let (Some(&c), Some(&u)) = (cap_edges.get(&k), usage.get(&k)) {
                    if u > c {
                        contribution += u64::from(u - c);
                    }
                }
            }
            if contribution > 0 && offender.is_none_or(|(_, best)| contribution > best) {
                offender = Some((name, contribution));
            }
        }
        let Some((name, _)) = offender else { break };
        let Some(old_points) = chosen.get(name).cloned() else {
            break;
        };
        apply_usage(&mut usage, &cap_edges, &old_points, -1);
        let weight = |a: Point, b: Point| -> f64 {
            let k = edge_key(a, b);
            let base = prices.get(&k).copied().unwrap_or(1.0);
            match (cap_edges.get(&k), usage.get(&k)) {
                (Some(&c), Some(&u)) if u >= c => {
                    base + SATURATION_PENALTY * f64::from(u - c + 1)
                }
                (Some(&0), None) => base + SATURATION_PENALTY,
                _ => base,
            }
        };
        let Some(net) = nets.iter().find(|n| n.name == name) else {
            break;
        };
        match price::priced_path(&graph, net.source, net.sink, &weight, &mut meter) {
            Ok(Some(new_points)) => {
                let seen = tried.entry(name).or_default();
                seen.insert(old_points.clone());
                if seen.contains(&new_points) {
                    // Cycling between known geometries: restore and stop.
                    apply_usage(&mut usage, &cap_edges, &old_points, 1);
                    chosen.insert(name, old_points);
                    break;
                }
                apply_usage(&mut usage, &cap_edges, &new_points, 1);
                chosen.insert(name, new_points);
                ripups += 1;
            }
            Ok(None) => {
                apply_usage(&mut usage, &cap_edges, &old_points, 1);
                break;
            }
            Err(_) => {
                apply_usage(&mut usage, &cap_edges, &old_points, 1);
                budget_exhausted = true;
            }
        }
    }

    // Phase 3 — per-net corridor legalization through the exact
    // searches. Sequential in declaration order; each net's result is
    // independent of every other net (reservation off), so emission
    // order is the only thing declaration order still controls.
    let mut results: Vec<NetResult> = Vec::with_capacity(nets.len());
    for net in nets {
        let single = std::slice::from_ref(net);
        let corridor_result = chosen.get(net.name.as_str()).and_then(|points| {
            let inner = inner_planner(&planner, corridor_graph(&graph, points), &telemetry);
            let plan = inner.plan(single);
            plan.results().first().cloned().filter(|r| r.is_routed())
        });
        let result = match corridor_result {
            Some(r) => r,
            None => {
                // No geometry, or the corridor was too tight for the
                // timing searches: fall back to the full grid and the
                // complete degradation ladder.
                let inner = inner_planner(&planner, graph.clone(), &telemetry);
                let plan = inner.plan(single);
                match plan.results().first().cloned() {
                    Some(r) => r,
                    None => NetResult {
                        name: net.name.clone(),
                        path: None,
                        latency: None,
                        cycles: None,
                        wirelength: None,
                        error: None,
                        degradation: Default::default(),
                    },
                }
            }
        };
        results.push(result);
    }

    // Final congestion is measured on the routes that actually shipped.
    let mut final_usage: BTreeMap<EdgeKey, u32> = BTreeMap::new();
    for r in &results {
        if let Some(path) = &r.path {
            apply_usage(&mut final_usage, &cap_edges, path.points(), 1);
        }
    }
    let (total_overflow, max_overflow) = overflow_of(&final_usage, &cap_edges);
    let overloaded: BTreeMap<EdgeKey, (u32, u32)> = final_usage
        .iter()
        .filter_map(|(k, &u)| {
            cap_edges
                .get(k)
                .filter(|&&c| u > c)
                .map(|&c| (*k, (u, c)))
        })
        .collect();

    let t = th(&telemetry);
    t.counter("flow.rounds", u64::from(rounds));
    t.counter("flow.price.updates", price_updates);
    t.counter("flow.ripups", ripups);
    if budget_exhausted {
        t.counter("flow.budget.exhausted", 1);
    }
    t.gauge_set("flow.overflow.total", total_overflow);
    t.gauge_set("flow.overflow.max", u64::from(max_overflow));

    FlowPlan {
        plan: Plan::from_results(results),
        summary: FlowSummary {
            mode: FlowMode::Priced,
            rounds,
            price_updates,
            ripups,
            seed: config.seed,
            budget_exhausted,
            best_fractional_overflow,
            round_stats,
            total_overflow,
            max_overflow,
            overloaded,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_core::SearchBudget;
    use clockroute_elmore::{GateLibrary, Technology};
    use clockroute_geom::units::Length;
    use std::time::Duration;

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    fn planner(graph: GridGraph) -> Planner {
        Planner::new(graph, Technology::paper_070nm(), GateLibrary::paper_library())
    }

    fn contention_nets() -> Vec<NetSpec> {
        // Three identical-terminal nets: sequential stacking puts them
        // all on the same row; capacity 1 forces flow to spread them.
        (0..3)
            .map(|i| NetSpec::combinational(&format!("n{i}"), p(0, 2), p(6, 2)))
            .collect()
    }

    #[test]
    fn unconstrained_flow_equals_sequential_plan() {
        let g = GridGraph::open(8, 8, Length::from_um(125.0));
        let nets = vec![
            NetSpec::combinational("a", p(0, 0), p(7, 7)),
            NetSpec::combinational("b", p(0, 7), p(7, 0)),
        ];
        let sequential = planner(g.clone()).plan(&nets);
        let flow = planner(g).flow(&nets, &EdgeCapacities::new(), FlowConfig::default());
        assert_eq!(flow.plan(), &sequential);
        assert_eq!(flow.summary().mode, FlowMode::Delegated);
    }

    #[test]
    fn capacity_one_spreads_identical_nets() {
        let g = GridGraph::open(7, 5, Length::from_um(125.0));
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let nets = contention_nets();
        let flow = planner(g).flow(&nets, &caps, FlowConfig::default());
        assert_eq!(flow.summary().mode, FlowMode::Priced);
        assert_eq!(
            flow.summary().total_overflow,
            0,
            "flow left overflow: {:?}",
            flow.summary()
        );
        assert!(flow.plan().results().iter().all(|r| r.is_routed()));
        // Three nets over shared terminals cannot share any edge, so
        // their middle columns must use three distinct rows.
        let rows: BTreeSet<u32> = flow
            .plan()
            .results()
            .iter()
            .filter_map(|r| r.path.as_ref())
            .flat_map(|path| path.points().iter().filter(|q| q.x == 3).map(|q| q.y))
            .collect();
        assert_eq!(rows.len(), 3, "nets share a middle row: {rows:?}");
    }

    #[test]
    fn same_seed_reproduces_byte_identical_plans() {
        let g = GridGraph::open(7, 5, Length::from_um(125.0));
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let nets = contention_nets();
        let cfg = FlowConfig {
            seed: 42,
            ..FlowConfig::default()
        };
        let a = planner(g.clone()).flow(&nets, &caps, cfg);
        let b = planner(g).flow(&nets, &caps, cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn net_permutation_does_not_change_any_route() {
        let g = GridGraph::open(7, 5, Length::from_um(125.0));
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let nets = contention_nets();
        let mut permuted = nets.clone();
        permuted.reverse();
        let a = planner(g.clone()).flow(&nets, &caps, FlowConfig::default());
        let b = planner(g).flow(&permuted, &caps, FlowConfig::default());
        let by_name = |fp: &FlowPlan| -> BTreeMap<String, String> {
            fp.plan()
                .results()
                .iter()
                .map(|r| (r.name.clone(), r.to_string()))
                .collect()
        };
        assert_eq!(by_name(&a), by_name(&b));
        assert_eq!(a.summary().total_overflow, b.summary().total_overflow);
    }

    #[test]
    fn zero_deadline_degrades_to_ladder_instead_of_hanging() {
        let g = GridGraph::open(7, 5, Length::from_um(125.0));
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let nets = contention_nets();
        let flow = planner(g)
            .budget(SearchBudget::unlimited().with_deadline(Duration::ZERO))
            .flow(&nets, &caps, FlowConfig::default());
        assert!(flow.summary().budget_exhausted);
        // Every net still ships a route via the unbudgeted fallback rung.
        assert!(flow.plan().results().iter().all(|r| r.is_routed()));
    }

    #[test]
    fn jobs_setting_cannot_change_the_flow_plan() {
        let g = GridGraph::open(7, 5, Length::from_um(125.0));
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let nets = contention_nets();
        let a = planner(g.clone()).jobs(1).flow(&nets, &caps, FlowConfig::default());
        let b = planner(g).jobs(8).flow(&nets, &caps, FlowConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn corridor_graph_blocks_everything_off_path() {
        let g = GridGraph::open(4, 3, Length::from_um(125.0));
        let path = [p(0, 0), p(1, 0), p(1, 1)];
        let c = corridor_graph(&g, &path);
        assert!(!c.blockage().is_edge_blocked(p(0, 0), p(1, 0)));
        assert!(!c.blockage().is_edge_blocked(p(1, 0), p(1, 1)));
        assert!(c.blockage().is_edge_blocked(p(1, 0), p(2, 0)));
        assert!(c.blockage().is_edge_blocked(p(0, 0), p(0, 1)));
    }

    #[test]
    fn rounding_draw_is_order_free_and_seed_sensitive() {
        assert_eq!(net_draw_state(7, "a"), net_draw_state(7, "a"));
        assert_ne!(net_draw_state(7, "a"), net_draw_state(8, "a"));
        assert_ne!(net_draw_state(7, "a"), net_draw_state(7, "b"));
    }
}
