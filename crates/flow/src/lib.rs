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
//!    sequential engine's cost model. The inner planner walks the outer
//!    planner's degradation ladder inside the corridor, so a net too
//!    tight for the timing searches ships its corridor's coarse-grid or
//!    unbuffered route. Only a net without a geometry, or one that
//!    fails every rung in its corridor, is planned on the full grid.
//!
//! Phases 1 and 3 are per-net independent work, and run on the
//! planner's [`Planner::jobs`] workers; rip-up stays on the calling
//! thread, because each reroute reads the usage the previous one left.
//!
//! **Determinism contract.** Same scenario + seed + iteration count ⇒
//! byte-identical plan, summary and metrics, regardless of `--jobs`:
//! per-edge state lives in arrays over the grid's dense edge slots
//! ([`GridGraph::edge_slot`]), per-net state in `BTreeMap`s keyed by
//! net name, the oracle breaks ties by node id, and rounding draws are
//! per-net functions of the seed and name. On the workers, each oracle
//! call's path and pop/relaxation counts are a function of the prices
//! and its terminals alone, and results merge in net order; a round
//! whose work trips the flow budget on any worker, or would trip it in
//! total, is discarded and re-run inline on the shared meter, so it
//! trips exactly where one job does. Each net's legalization records
//! its telemetry into its own shard, replayed in net order. Only
//! wall-clock budgets ([`clockroute_core::SearchBudget::with_deadline`])
//! can differ run to run, as anywhere else. When no edge anywhere has a
//! finite capacity ([`EdgeCapacities::is_unconstrained`]), `flow`
//! delegates wholesale to [`Planner::plan`], so every pre-existing
//! scenario is byte-identical by construction.

mod price;
pub mod report;

pub use report::{FlowMode, FlowSummary, RoundStats};

use clockroute_core::canon::{mix64, CanonHasher};
use clockroute_core::failpoint::{self, ArmedSet};
use clockroute_core::telemetry::Value;
use clockroute_core::{BudgetMeter, RouteError, SearchStage, TelemetryHandle, TelemetryShard};
use clockroute_geom::Point;
use clockroute_grid::{edge_key, EdgeCapacities, EdgeKey, GridGraph};
use clockroute_plan::{workers, NetResult, NetSpec, Plan, Planner, SharedTelemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// Knobs of the flow pipeline.
///
/// The fractional phase stops early only at zero overflow, and on
/// inputs whose demand exceeds a bottleneck's capacity it never gets
/// there: every scenario of the `flow_congested` benchmark (26 nets
/// across a walled 32² grid) runs all 12 default rounds, and rip-up
/// does the integral work.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowConfig {
    /// Fractional price rounds (clamped to ≥ 1).
    pub iters: u32,
    /// Rounding seed; same seed ⇒ same plan.
    pub seed: u64,
}

impl Default for FlowConfig {
    fn default() -> FlowConfig {
        FlowConfig { iters: 12, seed: 0 }
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
    /// settings). Otherwise the three-phase flow pipeline runs, its
    /// price rounds and legalization on the planner's [`Planner::jobs`]
    /// workers; inner legalization planners route one net each, inline
    /// on the worker that took the net, with reservation off — the
    /// capacity model replaces route reservation as the contention
    /// mechanism. The result does not depend on the job count.
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

/// Multiplicative price-update step: an overloaded edge's price is
/// scaled by `1 + EPSILON · usage/cap` each round.
const EPSILON: f64 = 0.25;
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

/// Wall-clock start of a trace-only phase span.
fn span_start() -> Instant {
    // crlint-allow: CR003 span start; the duration only reaches telemetry, never compared bytes
    Instant::now()
}

/// Closes the trace-only span `name` opened at `started`.
fn span_end(telemetry: &Option<SharedTelemetry>, name: &str, started: Instant) {
    th(telemetry).span_ns(name, started.elapsed().as_nanos() as u64);
}

/// Canonical geometry key: the path's points as a comparable value.
type PathKey = Vec<Point>;

fn net_draw_state(seed: u64, name: &str) -> u64 {
    let mut h = CanonHasher::new();
    h.write_str(name);
    mix64(seed ^ h.finish())
}

/// The edge slots a path crosses, in path order. Consecutive points
/// that are not a grid edge cross none.
fn path_slots<'a>(graph: &'a GridGraph, points: &'a [Point]) -> impl Iterator<Item = usize> + 'a {
    points
        .windows(2)
        .filter_map(|w| graph.edge_slot(w[0], w[1]))
}

/// Adds one unit of usage on every edge of a path.
fn add_usage(usage: &mut [u32], graph: &GridGraph, points: &[Point]) {
    for s in path_slots(graph, points) {
        usage[s] += 1;
    }
}

/// Removes one unit of usage from every edge of a path. Removing a
/// path that was never added (a double rip-up) is a bookkeeping bug:
/// it fails in debug builds and clamps at zero in release builds.
fn remove_usage(usage: &mut [u32], graph: &GridGraph, points: &[Point]) {
    for s in path_slots(graph, points) {
        debug_assert!(
            usage[s] > 0,
            "removing a path that was never added: edge {:?} is unused",
            graph.slot_edge(s)
        );
        usage[s] = usage[s].saturating_sub(1);
    }
}

/// `(total, max)` overflow of `usage` against the capacities `cap`
/// (`None` = unbounded), both indexed by edge slot.
fn overflow_of(usage: &[u32], cap: &[Option<u32>]) -> (u64, u32) {
    let mut total = 0u64;
    let mut max = 0u32;
    for (&u, &c) in usage.iter().zip(cap) {
        if let Some(c) = c {
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
    let mut on_path = vec![false; base.edge_slots()];
    for s in path_slots(base, points) {
        on_path[s] = true;
    }
    let mut g = base.clone();
    for (s, &keep) in on_path.iter().enumerate() {
        if keep {
            continue;
        }
        if let Some((p, q)) = base.slot_edge(s) {
            g.blockage_mut().block_edge(p, q);
        }
    }
    g
}

/// One inner per-net legalization planner: one job (the default),
/// reservation off, same budget and ladder as the outer planner,
/// recording into `telemetry` (the net's shard).
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

/// One synchronous price round: every net's cheapest path under
/// `prices`, in net order, leaving out nets with no route.
///
/// With `inherited` failpoints (more than one job) the nets' oracle
/// calls run on the workers, each worker on a fork of `oracle` and of
/// `meter`. A call's path and work counts are a function of the
/// prices and its terminals alone, so the round commits — its pops and
/// relaxations charged to `meter` and counted on `oracle` — unless a
/// worker tripped or charging the round would trip `meter`. Then the
/// round is discarded and re-run inline on `meter`, exactly as with
/// one job, so the trip point and everything after it are one job's.
fn price_round<'n>(
    oracle: &mut price::PricedOracle<'_>,
    meter: &mut BudgetMeter,
    nets: &'n [NetSpec],
    prices: &[f64],
    jobs: usize,
    inherited: Option<&ArmedSet>,
) -> Result<Vec<(&'n str, Vec<Point>)>, RouteError> {
    if inherited.is_some() {
        let (shared, base) = (&*oracle, &*meter);
        let calls = workers::map_indexed(
            jobs,
            nets.len(),
            inherited,
            || (shared.fork(), base.fork()),
            |(fork, fork_meter), i| {
                let (pops, expands) = (fork.pops, fork.expands);
                let path = fork.path(nets[i].source, nets[i].sink, |s| prices[s], fork_meter);
                (path, fork.pops - pops, fork.expands - expands)
            },
        );
        let pops = calls.iter().map(|c| c.1).sum();
        let expands = calls.iter().map(|c| c.2).sum();
        if calls.iter().all(|c| c.0.is_ok()) && meter.absorb(pops, expands).is_ok() {
            oracle.calls += calls.len() as u64;
            oracle.pops += pops;
            oracle.expands += expands;
            return Ok(nets
                .iter()
                .zip(calls)
                .filter_map(|(net, (path, ..))| Some((net.name.as_str(), path.ok().flatten()?)))
                .collect());
        }
    }
    let mut round_paths = Vec::new();
    for net in nets {
        // `None`: unreachable terminals; the full planner decides later.
        if let Some(points) = oracle.path(net.source, net.sink, |s| prices[s], meter)? {
            round_paths.push((net.name.as_str(), points));
        }
    }
    Ok(round_paths)
}

/// Legalizes one net: the outer planner's degradation ladder inside
/// the corridor of its chosen geometry `points`, so a corridor too
/// tight for the timing searches yields that ladder's coarse-grid or
/// unbuffered route there. Only without a geometry, or when every rung
/// fails in the corridor, is the net planned on the full grid.
fn legalize(
    outer: &Planner,
    graph: &GridGraph,
    net: &NetSpec,
    points: Option<&Vec<Point>>,
    telemetry: &Option<SharedTelemetry>,
) -> NetResult {
    let single = std::slice::from_ref(net);
    let corridor_result = points.and_then(|points| {
        let inner = inner_planner(outer, corridor_graph(graph, points), telemetry);
        let plan = inner.plan(single);
        plan.results().first().cloned().filter(|r| r.is_routed())
    });
    corridor_result.unwrap_or_else(|| {
        let inner = inner_planner(outer, graph.clone(), telemetry);
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
    })
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
    // Per-edge state, dense over `GridGraph::edge_slot` and allocated
    // once per run: capacity (`None` = unbounded), congestion price
    // multiplier, and usage (per round, then of the integral plan).
    let slots = graph.edge_slots();
    let mut cap: Vec<Option<u32>> = vec![None; slots];
    for (a, b, c) in caps.capacitated_edges(&graph) {
        if let Some(s) = graph.edge_slot(a, b) {
            cap[s] = Some(c);
        }
    }
    let mut prices = vec![1.0f64; slots];
    let mut usage = vec![0u32; slots];
    let mut oracle = price::PricedOracle::new(&graph);
    let mut meter = BudgetMeter::new(planner.search_budget(), SearchStage::Flow);
    let mut budget_exhausted = false;
    // The per-net phases run on the planner's workers. Failpoints are
    // captured once and re-installed per unit of work, as the commit
    // scheduler does; one job runs everything inline.
    let jobs = planner.job_count();
    let inherited = (jobs > 1 && nets.len() > 1).then(failpoint::capture);

    // Phase 1 — fractional price rounds (synchronous: every net in a
    // round sees the same prices, so the round's outcome is a pure
    // function of the previous round, not of net declaration order).
    let started = span_start();
    let mut candidates: BTreeMap<&str, BTreeMap<PathKey, u32>> = BTreeMap::new();
    let mut round_stats = Vec::new();
    let mut price_updates = 0u64;
    let mut rounds = 0u32;
    for round in 0..iters {
        let Ok(round_paths) = price_round(
            &mut oracle,
            &mut meter,
            nets,
            &prices,
            jobs,
            inherited.as_ref(),
        ) else {
            budget_exhausted = true;
            break;
        };
        rounds += 1;
        usage.fill(0);
        for (_, points) in &round_paths {
            add_usage(&mut usage, &graph, points);
        }
        let (total, max) = overflow_of(&usage, &cap);
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
        for ((p, &u), &c) in prices.iter_mut().zip(&usage).zip(&cap) {
            if let Some(c) = c {
                if u > c {
                    *p = (*p * (1.0 + EPSILON * f64::from(u) / f64::from(c.max(1))))
                        .min(PRICE_CEILING);
                    price_updates += 1;
                }
            }
        }
    }
    let best_fractional_overflow = round_stats.iter().map(|r| r.total_overflow).min();
    span_end(&telemetry, "flow.fractional_ns", started);

    // Phase 2a — seeded randomized rounding: each net draws one
    // geometry from its candidate distribution, weighted by how many
    // rounds chose it. The draw is a pure function of (seed, name), so
    // declaration order cannot change anyone's route.
    let started = span_start();
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
    usage.fill(0);
    for points in chosen.values() {
        add_usage(&mut usage, &graph, points);
    }
    // A ripped-up name reroutes the first net declared under it.
    let mut by_name: BTreeMap<&str, &NetSpec> = BTreeMap::new();
    for net in nets {
        by_name.entry(&net.name).or_insert(net);
    }
    let mut tried: BTreeMap<&str, BTreeSet<PathKey>> = BTreeMap::new();
    let mut ripups = 0u64;
    let ripup_cap = 16 * (nets.len() as u64 + 4);
    while !budget_exhausted && ripups < ripup_cap {
        let (total, _) = overflow_of(&usage, &cap);
        if total == 0 {
            break;
        }
        // Worst offender: the net whose path crosses the most overflow.
        // Iterating the name-keyed map with a strict `>` keeps the
        // lexicographically smallest name on ties.
        let mut offender: Option<(&str, u64)> = None;
        for (&name, points) in &chosen {
            let contribution: u64 = path_slots(&graph, points)
                .map(|s| match cap[s] {
                    Some(c) if usage[s] > c => u64::from(usage[s] - c),
                    _ => 0,
                })
                .sum();
            if contribution > 0 && offender.is_none_or(|(_, best)| contribution > best) {
                offender = Some((name, contribution));
            }
        }
        let Some((name, _)) = offender else { break };
        let Some(old_points) = chosen.get(name).cloned() else {
            break;
        };
        remove_usage(&mut usage, &graph, &old_points);
        let Some(net) = by_name.get(name) else {
            break;
        };
        // Saturation prices: an edge at or over capacity costs one
        // penalty per unit of usage past capacity − 1.
        let weight = |s: usize| -> f64 {
            match cap[s] {
                Some(c) if usage[s] >= c => {
                    prices[s] + SATURATION_PENALTY * f64::from(usage[s] - c + 1)
                }
                _ => prices[s],
            }
        };
        match oracle.path(net.source, net.sink, weight, &mut meter) {
            Ok(Some(new_points)) => {
                let seen = tried.entry(name).or_default();
                seen.insert(old_points.clone());
                if seen.contains(&new_points) {
                    // Cycling between known geometries: restore and stop.
                    add_usage(&mut usage, &graph, &old_points);
                    chosen.insert(name, old_points);
                    break;
                }
                add_usage(&mut usage, &graph, &new_points);
                chosen.insert(name, new_points);
                ripups += 1;
            }
            Ok(None) => {
                add_usage(&mut usage, &graph, &old_points);
                break;
            }
            Err(_) => {
                add_usage(&mut usage, &graph, &old_points);
                budget_exhausted = true;
            }
        }
    }

    span_end(&telemetry, "flow.ripup_ns", started);

    // Phase 3 — per-net corridor legalization through the exact
    // searches, on the workers. Each net's result is independent of
    // every other net (reservation off), and each net's inner planner
    // records into its own shard, replayed here in net order, so
    // declaration order controls emission order and nothing else.
    let started = span_start();
    let legalized = workers::map_indexed(
        jobs,
        nets.len(),
        inherited.as_ref(),
        || (),
        |_, i| {
            let net = &nets[i];
            let shard = telemetry.as_ref().map(|_| Arc::new(TelemetryShard::new()));
            let sink = shard.as_ref().map(|s| SharedTelemetry::new(s.clone()));
            let result = legalize(&planner, &graph, net, chosen.get(net.name.as_str()), &sink);
            (result, shard)
        },
    );
    let mut results: Vec<NetResult> = Vec::with_capacity(nets.len());
    for (result, shard) in legalized {
        if let (Some(t), Some(shard)) = (&telemetry, shard) {
            t.replay(&shard);
        }
        results.push(result);
    }
    span_end(&telemetry, "flow.legalize_ns", started);

    // Final congestion is measured on the routes that actually shipped.
    usage.fill(0);
    for r in &results {
        if let Some(path) = &r.path {
            add_usage(&mut usage, &graph, path.points());
        }
    }
    let (total_overflow, max_overflow) = overflow_of(&usage, &cap);
    let overloaded: BTreeMap<EdgeKey, (u32, u32)> = usage
        .iter()
        .zip(&cap)
        .enumerate()
        .filter_map(|(s, (&u, &c))| {
            let c = c.filter(|&c| u > c)?;
            let (a, b) = graph.slot_edge(s)?;
            Some((edge_key(a, b), (u, c)))
        })
        .collect();

    let t = th(&telemetry);
    t.counter("flow.rounds", u64::from(rounds));
    t.counter("flow.price.updates", price_updates);
    t.counter("flow.ripups", ripups);
    t.counter("flow.oracle.calls", oracle.calls);
    t.counter("flow.oracle.pops", oracle.pops);
    t.counter("flow.oracle.expands", oracle.expands);
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
    use clockroute_plan::Degradation;
    use std::time::Duration;

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    fn planner(graph: GridGraph) -> Planner {
        Planner::new(
            graph,
            Technology::paper_070nm(),
            GateLibrary::paper_library(),
        )
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
        let a = planner(g.clone())
            .jobs(1)
            .flow(&nets, &caps, FlowConfig::default());
        let b = planner(g).jobs(8).flow(&nets, &caps, FlowConfig::default());
        assert_eq!(a, b);
    }

    #[test]
    fn a_failing_corridor_ships_its_own_unbuffered_route() {
        // A deliberate detour on an open grid: the full-grid shortest
        // path is the straight bottom row, the corridor goes over the
        // top. With every timing search failing, the inner ladder's
        // unbuffered rung answers inside the corridor, and that
        // degraded route is accepted: the full grid is never tried.
        let g = GridGraph::open(5, 3, Length::from_um(125.0));
        let net = NetSpec::combinational("n", p(0, 0), p(4, 0));
        let detour = vec![
            p(0, 0),
            p(0, 1),
            p(0, 2),
            p(1, 2),
            p(2, 2),
            p(3, 2),
            p(4, 2),
            p(4, 1),
            p(4, 0),
        ];
        failpoint::disarm_all();
        failpoint::arm_sticky("plan::net", failpoint::FailAction::NoRoute, 1);
        let r = legalize(&planner(g.clone()), &g, &net, Some(&detour), &None);
        failpoint::disarm_all();
        assert_eq!(r.degradation, Degradation::Unbuffered);
        let shipped = r.path.as_ref().map(|path| path.points().to_vec());
        assert_eq!(shipped, Some(detour));
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
    fn usage_round_trips_and_skips_non_edges() {
        let g = GridGraph::open(3, 2, Length::from_um(125.0));
        let mut usage = vec![0; g.edge_slots()];
        // (1, 0)→(1, 0) and (1, 0)→(2, 1) are not grid edges.
        let path = [p(0, 0), p(1, 0), p(1, 0), p(2, 1)];
        add_usage(&mut usage, &g, &path);
        assert_eq!(usage.iter().sum::<u32>(), 1);
        remove_usage(&mut usage, &g, &path);
        assert!(usage.iter().all(|&u| u == 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never added")]
    fn removing_a_path_twice_fails_in_debug_builds() {
        let g = GridGraph::open(3, 1, Length::from_um(125.0));
        let mut usage = vec![0; g.edge_slots()];
        let path = [p(0, 0), p(1, 0), p(2, 0)];
        add_usage(&mut usage, &g, &path);
        remove_usage(&mut usage, &g, &path);
        remove_usage(&mut usage, &g, &path);
    }

    #[test]
    fn rounding_draw_is_order_free_and_seed_sensitive() {
        assert_eq!(net_draw_state(7, "a"), net_draw_state(7, "a"));
        assert_ne!(net_draw_state(7, "a"), net_draw_state(8, "a"));
        assert_ne!(net_draw_state(7, "a"), net_draw_state(7, "b"));
    }
}
