//! Congestion-aware global routing: the capacitated batch mode.
//!
//! The sequential [`Planner`] routes nets in declaration order and
//! resolves contention by detouring later nets around earlier commits,
//! so batch quality is an artifact of net order. This crate routes the
//! batch against per-edge capacities instead, in three phases:
//!
//! 1. **Initial routing** — each net's unpriced shortest path from the
//!    geometry oracle ([`price`]), one call per net name. A net's path
//!    depends on its terminals alone.
//! 2. **Rip-up-and-reroute** — while overflow remains, the worst
//!    offender (the net crossing the most overflow, ties to the
//!    smallest name) is ripped up and rerouted under saturation
//!    weights, `1 + SATURATION_PENALTY · (usage − cap + 1)` on an edge
//!    at or over capacity and 1 elsewhere. A net that proposes a
//!    geometry it already had keeps it and is frozen, and the loop goes
//!    on with the others (the PathFinder idea, McMurchie–Ebeling 1995)
//!    until no unfrozen net crosses overflow, a rip-up cap is reached
//!    or the budget trips.
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
//! A run makes one fan-out ([`workers::beside`]): `jobs − 1` helper
//! threads beside the calling thread, which runs the three phases.
//! Phase 1 is shared with the helpers, one oracle each, when the budget
//! is unlimited; under a budget that can trip it runs inline in name
//! order on the flow [`BudgetMeter`], so the trip lands on the same pop
//! at every job count. Phase 2 runs on the calling thread, charging that
//! meter; each reroute reads the usage the previous one left. After
//! every rip-up scan it posts each net's geometry and a hint (frozen,
//! clear of overflow, or offending) on a [`board`], and the helpers
//! legalize nets off it meanwhile, lowest hint first. A net that rip-up
//! moves again goes back on the board and its speculation is voided.
//! Phase 3 is what is left when rip-up ends: the nets no surviving
//! speculation covers, legalized by the caller and the helpers together.
//!
//! **Determinism contract.** Same scenario ⇒ byte-identical plan,
//! summary and metrics, regardless of `--jobs` and of net declaration
//! order: per-edge state lives in arrays over the grid's dense edge
//! slots ([`GridGraph::edge_slot`]), per-net state in `BTreeMap`s keyed
//! by net name and visited in name order, and the oracle breaks ties by
//! node id. A net's legalization is a function of the net, its final
//! geometry and the planner's settings alone, so a speculation whose
//! geometry rip-up kept is the result legalizing afterwards would give.
//! Each legalization records its telemetry into its own shard; the kept
//! ones are replayed in net order and a voided one's shard is dropped
//! with it. Only wall-clock budgets
//! ([`clockroute_core::SearchBudget::with_deadline`]) can differ run to
//! run, as anywhere else. When no edge anywhere has a finite capacity
//! ([`EdgeCapacities::is_unconstrained`]), `flow` delegates wholesale
//! to [`Planner::plan`], so every pre-existing scenario is
//! byte-identical by construction.

#![deny(clippy::expect_used)]
#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

mod board;
mod price;
pub mod report;

pub use report::{FlowMode, FlowSummary};

use board::{Board, Hint, Ticket};
use price::{Adjacency, OracleWork, PricedOracle};

use clockroute_core::telemetry::Value;
use clockroute_core::{failpoint, LockRank, OrderedCondvar, OrderedMutex};
use clockroute_core::{BudgetMeter, RouteError, SearchStage, TelemetryHandle, TelemetryShard};
use clockroute_geom::Point;
use clockroute_grid::{edge_key, EdgeCapacities, EdgeKey, GridGraph};
use clockroute_plan::workers::{self, Crew};
use clockroute_plan::{NetResult, NetSpec, Plan, Planner, SharedTelemetry};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// The flow pipeline's configuration, which has no knob left.
///
/// It stays in the [`PlannerFlowExt::flow`] signature because callers
/// outside this workspace's control build it: the benchmark harness
/// (`perfbench/src/{check,workload}.rs`, frozen with the benchmark
/// definition) calls `FlowConfig::default()`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowConfig {}

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
    /// settings). Otherwise the three-phase flow pipeline runs, with
    /// `jobs − 1` helper threads ([`Planner::jobs`]) legalizing beside
    /// rip-up; inner legalization planners route one net each, inline on
    /// the thread that took the net, with reservation off — the
    /// capacity model replaces route reservation as the contention
    /// mechanism. The result does not depend on the job count.
    fn flow(self, nets: &[NetSpec], caps: &EdgeCapacities, config: FlowConfig) -> FlowPlan;
}

impl PlannerFlowExt for Planner {
    fn flow(self, nets: &[NetSpec], caps: &EdgeCapacities, _config: FlowConfig) -> FlowPlan {
        if caps.is_unconstrained() {
            let telemetry = self.telemetry_sink().cloned();
            let plan = self.plan(nets);
            th(&telemetry).counter("flow.delegated", 1);
            return FlowPlan {
                plan,
                summary: FlowSummary::delegated(),
            };
        }
        flow_priced(self, nets, caps)
    }
}

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
#[expect(
    clippy::disallowed_methods,
    reason = "span start; the duration only reaches telemetry, never compared bytes"
)]
fn span_start() -> Instant {
    Instant::now()
}

/// Closes the trace-only span `name` opened at `started`.
fn span_end(telemetry: &Option<SharedTelemetry>, name: &str, started: Instant) {
    th(telemetry).span_ns(name, started.elapsed().as_nanos() as u64);
}

/// Canonical geometry key: the path's points as a comparable value.
type PathKey = Vec<Point>;

/// The edge slots a path crosses, in path order. Consecutive points
/// that are not a grid edge cross none.
fn path_slots<'a>(graph: &'a GridGraph, points: &'a [Point]) -> impl Iterator<Item = usize> + 'a {
    points
        .windows(2)
        .filter_map(|w| graph.edge_slot(w[0], w[1]))
}

/// A net's chosen geometry with the edge slots it crosses, derived once
/// when the geometry is chosen: rip-up reads the slots on every
/// iteration.
#[derive(Debug)]
struct Route {
    points: Vec<Point>,
    slots: Vec<usize>,
}

impl Route {
    fn new(graph: &GridGraph, points: Vec<Point>) -> Route {
        let slots = path_slots(graph, &points).collect();
        Route { points, slots }
    }
}

/// Adds one unit of usage on every edge slot of a path.
fn add_usage(usage: &mut [u32], slots: impl IntoIterator<Item = usize>) {
    for s in slots {
        usage[s] += 1;
    }
}

/// Removes one unit of usage from every edge slot of a path. Removing a
/// path that was never added (a double rip-up) is a bookkeeping bug: it
/// fails in debug builds and clamps at zero in release builds.
fn remove_usage(usage: &mut [u32], slots: impl IntoIterator<Item = usize>) {
    for s in slots {
        debug_assert!(
            usage[s] > 0,
            "removing a path that was never added: edge slot {s} is unused"
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
    base.corridor(path_slots(base, points))
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

/// A net's initial geometry: a path, no route, or a budget trip.
type Initial = Result<Option<Vec<Point>>, RouteError>;

/// Phase 1's call for one net: its unpriced shortest path, with the
/// oracle work it took.
fn initial_path(
    oracle: &mut PricedOracle<'_>,
    meter: &mut BudgetMeter,
    net: &NetSpec,
) -> (Initial, OracleWork) {
    let before = oracle.work;
    let path = oracle.path(net.source, net.sink, |_| 1.0, meter);
    (path, oracle.work.since(before))
}

/// Routes phase-1 items off the shared `cursor` into `cells` until none
/// is left.
fn route_initial(
    oracle: &mut PricedOracle<'_>,
    meter: &mut BudgetMeter,
    named: &[(&str, &NetSpec)],
    cursor: &AtomicUsize,
    cells: &[OnceLock<(Initial, OracleWork)>],
) {
    loop {
        let k = cursor.fetch_add(1, Ordering::Relaxed);
        let Some(cell) = cells.get(k) else { break };
        // Whoever finishes first fills the cell; both computed the same.
        let _ = cell.set(initial_path(oracle, meter, named[k].1));
    }
}

/// A net's geometry on the board: `None` for a net without one.
type Geometry = Option<Arc<Route>>;

/// A net's legalized route with the telemetry shard it recorded into.
type Legalized = (NetResult, Option<Arc<TelemetryShard>>);

/// [`legalize`] into a fresh shard of its own.
fn legalize_net(
    outer: &Planner,
    graph: &GridGraph,
    net: &NetSpec,
    geometry: Option<&Route>,
    telemetry: &Option<SharedTelemetry>,
) -> Legalized {
    let shard = telemetry.as_ref().map(|_| Arc::new(TelemetryShard::new()));
    let sink = shard.as_ref().map(|s| SharedTelemetry::new(s.clone()));
    let result = legalize(outer, graph, net, geometry.map(|r| &r.points), &sink);
    (result, shard)
}

/// Closes the board when the caller's side of the run ends, unwinding
/// included, so no helper waits for a net that will never come.
struct CloseBoard<'a> {
    board: &'a OrderedMutex<Board<Geometry, Legalized>>,
    wake: &'a OrderedCondvar,
}

impl Drop for CloseBoard<'_> {
    fn drop(&mut self) {
        self.board.lock().close();
        self.wake.notify_all();
    }
}

/// The next net to legalize, waiting on `wake` while the board has none
/// to take; `None` once it is over.
fn next_ticket(
    board: &OrderedMutex<Board<Geometry, Legalized>>,
    wake: &OrderedCondvar,
) -> Option<Ticket<Geometry>> {
    let mut b = board.lock();
    loop {
        if b.is_over() {
            return None;
        }
        if let Some(ticket) = b.take() {
            return Some(ticket);
        }
        b.waiting += 1;
        b = wake.wait(b);
        b.waiting -= 1;
    }
}

/// A helper's loop: takes nets off the board and legalizes them, with
/// the board unlocked, until it is over.
fn legalize_from_board(
    board: &OrderedMutex<Board<Geometry, Legalized>>,
    wake: &OrderedCondvar,
    crew: &Crew<'_>,
    legalize: impl Fn(usize, Option<&Route>) -> Legalized,
) {
    while let Some(ticket) = next_ticket(board, wake) {
        let done = crew.item(|| legalize(ticket.net, ticket.geometry.as_deref()));
        board.lock().finish(ticket, done);
    }
}

/// What the calling thread's side of a run hands back: the chosen
/// geometries, the rip-up summary, the oracle work and the start of the
/// legalization span.
struct Routed<'n> {
    chosen: BTreeMap<&'n str, Arc<Route>>,
    ripups: u64,
    budget_exhausted: bool,
    work: OracleWork,
    legalize_started: Instant,
}

fn flow_priced(planner: Planner, nets: &[NetSpec], caps: &EdgeCapacities) -> FlowPlan {
    let graph = planner.graph().clone();
    let telemetry = planner.telemetry_sink().cloned();
    // Per-edge state, dense over `GridGraph::edge_slot` and allocated
    // once per run: capacity (`None` = unbounded) and usage (of the
    // chosen geometries, then of the shipped routes).
    let cap = caps.slot_caps(&graph);
    let mut usage = vec![0u32; graph.edge_slots()];
    let adjacency = Adjacency::new(&graph);
    let budget = planner.search_budget();
    // A name routes, and is ripped up as, the first net declared under it.
    let mut by_name: BTreeMap<&str, &NetSpec> = BTreeMap::new();
    // The nets declared under each name, which share its geometry.
    let mut name_nets: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    for (i, net) in nets.iter().enumerate() {
        by_name.entry(&net.name).or_insert(net);
        name_nets.entry(&net.name).or_default().push(i);
    }
    let named: Vec<(&str, &NetSpec)> = by_name.iter().map(|(&name, &net)| (name, net)).collect();

    // One fan-out per run: `jobs − 1` helpers beside the calling thread,
    // which runs the three phases. Failpoints are captured once and
    // re-installed per legalized net, as the commit scheduler does; one
    // job runs everything inline.
    let jobs = planner.job_count();
    let helpers = if nets.len() > 1 {
        jobs.min(nets.len()) - 1
    } else {
        0
    };
    let inherited = (helpers > 0).then(failpoint::capture);
    // Phase 1 goes to the helpers too when no budget can trip.
    let cells: Vec<OnceLock<(Initial, OracleWork)>> = if helpers > 0 && budget.is_unlimited() {
        named.iter().map(|_| OnceLock::new()).collect()
    } else {
        Vec::new()
    };
    let cursor = AtomicUsize::new(0);
    let board = OrderedMutex::new(LockRank::FlowBoard, "flow.board", Board::new());
    let wake = OrderedCondvar::new();
    let legalize_one = |i: usize, geometry: Option<&Route>| {
        legalize_net(&planner, &graph, &nets[i], geometry, &telemetry)
    };

    let helper = |crew: &Crew<'_>| {
        if !cells.is_empty() {
            let mut oracle = PricedOracle::new(&adjacency);
            let mut meter = BudgetMeter::new(budget, SearchStage::Flow);
            route_initial(&mut oracle, &mut meter, &named, &cursor, &cells);
        }
        legalize_from_board(&board, &wake, crew, legalize_one);
    };

    let caller = |crew: &Crew<'_>| -> Routed<'_> {
        let _close = CloseBoard {
            board: &board,
            wake: &wake,
        };
        let mut meter = BudgetMeter::new(budget, SearchStage::Flow);
        let mut budget_exhausted = false;

        // Phase 1 — every net's unpriced shortest path. Each path is a
        // function of the net's terminals alone, so when no budget can
        // trip the caller and the helpers take the nets off a shared
        // cursor, one oracle each; the caller then routes any net still
        // in flight on a helper itself rather than wait for it. A budget
        // that can trip must trip at the pop one job trips at, which
        // depends on every call before it: then one oracle and the flow
        // meter route the nets in name order and stop at the first trip.
        let started = span_start();
        let mut oracle = PricedOracle::new(&adjacency);
        let initial: Vec<(Initial, OracleWork)> = if cells.is_empty() {
            let mut done = Vec::with_capacity(named.len());
            for &(_, net) in &named {
                let item = initial_path(&mut oracle, &mut meter, net);
                let tripped = item.0.is_err();
                done.push(item);
                if tripped {
                    break;
                }
            }
            done
        } else {
            let mut own = BudgetMeter::new(budget, SearchStage::Flow);
            route_initial(&mut oracle, &mut own, &named, &cursor, &cells);
            cells
                .iter()
                .zip(&named)
                .map(|(cell, &(_, net))| {
                    cell.get_or_init(|| initial_path(&mut oracle, &mut own, net))
                        .clone()
                })
                .collect()
        };
        // Usage and the oracle counts add up in name order.
        let mut work = OracleWork::default();
        let mut chosen: BTreeMap<&str, Arc<Route>> = BTreeMap::new();
        for (&(name, _), (path, spent)) in named.iter().zip(initial) {
            work += spent;
            match path {
                Ok(Some(points)) => {
                    let route = Route::new(&graph, points);
                    add_usage(&mut usage, route.slots.iter().copied());
                    chosen.insert(name, Arc::new(route));
                }
                // Unreachable terminals: the full planner decides later.
                Ok(None) => {}
                Err(_) => {
                    budget_exhausted = true;
                    break;
                }
            }
        }
        span_end(&telemetry, "flow.oracle_ns", started);

        // Phase 2 — rip-up-and-reroute of overflow offenders, worst
        // overflow contribution first, ties by net name ascending. A net
        // that proposes a geometry it already had is restored and
        // frozen; the others carry on. It charges the flow meter phase 1
        // left. After every scan the board gets each net's geometry and
        // hint, so the helpers legalize while rip-up runs.
        let started = span_start();
        let before = oracle.work;
        let mut tried: BTreeMap<&str, BTreeSet<PathKey>> = BTreeMap::new();
        let mut frozen: BTreeSet<&str> = BTreeSet::new();
        let mut ripups = 0u64;
        let ripup_cap = 16 * (nets.len() as u64 + 4);
        // Each net's hint, by net index; a net without a geometry is final.
        let mut hints = vec![Hint::Frozen; nets.len()];
        let mut posted = false;
        let mut moved: Option<&str> = None;
        loop {
            // Worst offender: the unfrozen net whose path crosses the
            // most overflow. Iterating the name-keyed map with a strict
            // `>` keeps the lexicographically smallest name on ties.
            let going = !budget_exhausted && ripups < ripup_cap;
            let mut offender: Option<(&str, u64)> = None;
            for (&name, route) in &chosen {
                let hint = if frozen.contains(name) {
                    Hint::Frozen
                } else {
                    let contribution: u64 = route
                        .slots
                        .iter()
                        .map(|&s| match cap[s] {
                            Some(c) if usage[s] > c => u64::from(usage[s] - c),
                            _ => 0,
                        })
                        .sum();
                    if going
                        && contribution > 0
                        && offender.is_none_or(|(_, best)| contribution > best)
                    {
                        offender = Some((name, contribution));
                    }
                    if contribution > 0 {
                        Hint::Offending
                    } else {
                        Hint::Clear
                    }
                };
                for &i in name_nets.get(name).into_iter().flatten() {
                    hints[i] = hint;
                }
            }
            {
                let mut b = board.lock();
                if posted {
                    if let Some(name) = moved.take() {
                        let geometry = chosen.get(name).cloned();
                        for &i in name_nets.get(name).into_iter().flatten() {
                            b.update(i, geometry.clone());
                        }
                    }
                    for (i, &hint) in hints.iter().enumerate() {
                        b.hint(i, hint);
                    }
                } else {
                    b.post(
                        nets.iter()
                            .zip(&hints)
                            .map(|(net, &hint)| (chosen.get(net.name.as_str()).cloned(), hint)),
                    );
                    posted = true;
                }
                if offender.is_none() {
                    b.settle();
                }
                if b.waiting > 0 && (offender.is_none() || b.has_idle()) {
                    wake.notify_all();
                }
            }
            let Some((name, _)) = offender else { break };
            let (Some(old), Some(net)) = (chosen.remove(name), by_name.get(name)) else {
                board.lock().settle();
                break;
            };
            remove_usage(&mut usage, old.slots.iter().copied());
            // Saturation weights: an edge at or over capacity costs one
            // penalty per unit of usage past capacity − 1.
            let weight = |s: usize| -> f64 {
                match cap[s] {
                    Some(c) if usage[s] >= c => {
                        1.0 + SATURATION_PENALTY * f64::from(usage[s] - c + 1)
                    }
                    _ => 1.0,
                }
            };
            let rerouted = oracle.path(net.source, net.sink, weight, &mut meter);
            let seen = tried.entry(name).or_default();
            let route = match rerouted {
                Ok(Some(new_points)) if new_points != old.points && !seen.contains(&new_points) => {
                    seen.insert(old.points.clone());
                    ripups += 1;
                    moved = Some(name);
                    Arc::new(Route::new(&graph, new_points))
                }
                // Cycling between known geometries (or, impossibly, no
                // route where one was): keep the old one, stop moving it.
                Ok(_) => {
                    frozen.insert(name);
                    old
                }
                Err(_) => {
                    budget_exhausted = true;
                    old
                }
            };
            add_usage(&mut usage, route.slots.iter().copied());
            chosen.insert(name, route);
        }
        work += oracle.work.since(before);
        span_end(&telemetry, "flow.ripup_ns", started);

        // Phase 3 — the nets no speculation covered, legalized by the
        // caller and the helpers together.
        let legalize_started = span_start();
        loop {
            let Some(ticket) = board.lock().take() else {
                break;
            };
            let done = crew.item(|| legalize_one(ticket.net, ticket.geometry.as_deref()));
            board.lock().finish(ticket, done);
        }
        Routed {
            chosen,
            ripups,
            budget_exhausted,
            work,
            legalize_started,
        }
    };

    let Routed {
        chosen,
        ripups,
        budget_exhausted,
        work,
        legalize_started,
    } = workers::beside(helpers, inherited.as_ref(), helper, caller);

    // Every net's result is a function of its name's final geometry, so
    // a speculation that survived is what legalizing now would give.
    // Shards are replayed in net order, so declaration order controls
    // emission order and nothing else; those of discarded speculations
    // were dropped with them.
    let (kept, reused, voided) = board.into_inner().into_results();
    let mut results: Vec<NetResult> = Vec::with_capacity(nets.len());
    for (i, kept) in kept.into_iter().enumerate() {
        debug_assert!(kept.is_some(), "net {i} left the board unlegalized");
        let (result, shard) = kept
            .unwrap_or_else(|| legalize_one(i, chosen.get(nets[i].name.as_str()).map(|r| &**r)));
        if let (Some(t), Some(shard)) = (&telemetry, shard) {
            t.replay(&shard);
        }
        results.push(result);
    }
    span_end(&telemetry, "flow.legalize_ns", legalize_started);
    // How many legalizations speculation saved or wasted depends on
    // scheduling, so it is a trace event, never a counter or gauge.
    th(&telemetry).event(
        "flow.speculation",
        &[
            ("helpers", Value::U64(helpers as u64)),
            ("nets", Value::U64(nets.len() as u64)),
            ("reused", Value::U64(reused as u64)),
            ("voided", Value::U64(voided as u64)),
        ],
    );

    // Final congestion is measured on the routes that actually shipped.
    usage.fill(0);
    for r in &results {
        if let Some(path) = &r.path {
            add_usage(&mut usage, path_slots(&graph, path.points()));
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
    t.counter("flow.ripups", ripups);
    t.counter("flow.oracle.calls", work.calls);
    t.counter("flow.oracle.pops", work.pops);
    t.counter("flow.oracle.expands", work.expands);
    if budget_exhausted {
        t.counter("flow.budget.exhausted", 1);
    }
    t.gauge_set("flow.overflow.total", total_overflow);
    t.gauge_set("flow.overflow.max", u64::from(max_overflow));

    FlowPlan {
        plan: Plan::from_results(results),
        summary: FlowSummary {
            mode: FlowMode::Priced,
            ripups,
            budget_exhausted,
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
    fn repeat_runs_reproduce_byte_identical_plans() {
        let g = GridGraph::open(7, 5, Length::from_um(125.0));
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let nets = contention_nets();
        let a = planner(g.clone()).flow(&nets, &caps, FlowConfig::default());
        let b = planner(g).flow(&nets, &caps, FlowConfig::default());
        assert_eq!(a, b);
    }

    /// Each net's report line, keyed by name: the comparison surface
    /// for plans whose net order differs.
    fn routes_by_name(fp: &FlowPlan) -> BTreeMap<String, String> {
        fp.plan()
            .results()
            .iter()
            .map(|r| (r.name.clone(), r.to_string()))
            .collect()
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
        assert_eq!(routes_by_name(&a), routes_by_name(&b));
        assert_eq!(a.summary().total_overflow, b.summary().total_overflow);
    }

    /// Every simple path from `from` to `to`.
    fn simple_paths(g: &GridGraph, from: Point, to: Point) -> Vec<Vec<Point>> {
        fn extend(g: &GridGraph, to: Point, path: &mut Vec<Point>, out: &mut Vec<Vec<Point>>) {
            let last = path[path.len() - 1];
            if last == to {
                out.push(path.clone());
                return;
            }
            for v in g.neighbors(g.node(last)) {
                let q = g.point(v);
                if !path.contains(&q) {
                    path.push(q);
                    extend(g, to, path, out);
                    path.pop();
                }
            }
        }
        let mut out = Vec::new();
        extend(g, to, &mut vec![from], &mut out);
        out
    }

    /// The least total overflow over every combination of one path per
    /// entry of `options`, on top of `usage`.
    fn min_overflow(
        g: &GridGraph,
        cap: &[Option<u32>],
        options: &[Vec<Vec<Point>>],
        usage: &mut [u32],
    ) -> u64 {
        let Some((first, rest)) = options.split_first() else {
            return overflow_of(usage, cap).0;
        };
        let mut best = u64::MAX;
        for path in first {
            add_usage(usage, path_slots(g, path));
            best = best.min(min_overflow(g, cap, rest, usage));
            remove_usage(usage, path_slots(g, path));
        }
        best
    }

    #[test]
    fn freezing_a_cycling_net_lets_rip_up_reach_the_optimum() {
        // Two nets leave the top-left corner of a unit-capacity 4×4
        // grid, whose two edges can carry one net each. Both first take
        // the left column. Rip-up moves `n0` over the top and down column
        // 1, where it still shares the bottom-left edge with `n1`; `n0`
        // is the offender again and proposes that same geometry.
        // Stopping the batch there ships one unit of overflow. Freezing
        // `n0` lets `n1` leave the left column, and the batch reaches the
        // optimum.
        let g = GridGraph::open(4, 4, Length::from_um(500.0));
        let mut caps = EdgeCapacities::new();
        caps.set_default(1);
        let nets = vec![
            NetSpec::combinational("n0", p(0, 3), p(0, 0)),
            NetSpec::combinational("n1", p(0, 3), p(3, 0)),
        ];
        let cap: Vec<Option<u32>> = (0..g.edge_slots())
            .map(|s| g.slot_edge(s).and_then(|(a, b)| caps.cap(a, b)))
            .collect();
        let options: Vec<_> = nets
            .iter()
            .map(|n| simple_paths(&g, n.source, n.sink))
            .collect();
        let optimum = min_overflow(&g, &cap, &options, &mut vec![0; g.edge_slots()]);
        assert_eq!(optimum, 0);

        let flow = planner(g.clone()).flow(&nets, &caps, FlowConfig::default());
        assert!(flow.plan().results().iter().all(|r| r.is_routed()));
        assert_eq!(
            flow.summary().total_overflow,
            optimum,
            "{:?}",
            flow.summary()
        );

        let mut reversed = nets.clone();
        reversed.reverse();
        for jobs in [1, 2, 4] {
            for order in [&nets, &reversed] {
                let run = planner(g.clone())
                    .jobs(jobs)
                    .flow(order, &caps, FlowConfig::default());
                assert_eq!(routes_by_name(&run), routes_by_name(&flow), "jobs {jobs}");
                assert_eq!(run.summary(), flow.summary(), "jobs {jobs}");
            }
        }
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
        let route = Route::new(&g, vec![p(0, 0), p(1, 0), p(1, 0), p(2, 1)]);
        assert_eq!(route.slots.len(), 1);
        add_usage(&mut usage, route.slots.iter().copied());
        assert_eq!(usage.iter().sum::<u32>(), 1);
        remove_usage(&mut usage, route.slots.iter().copied());
        assert!(usage.iter().all(|&u| u == 0));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "never added")]
    fn removing_a_path_twice_fails_in_debug_builds() {
        let g = GridGraph::open(3, 1, Length::from_um(125.0));
        let mut usage = vec![0; g.edge_slots()];
        let path = [p(0, 0), p(1, 0), p(2, 0)];
        add_usage(&mut usage, path_slots(&g, &path));
        remove_usage(&mut usage, path_slots(&g, &path));
        remove_usage(&mut usage, path_slots(&g, &path));
    }
}
