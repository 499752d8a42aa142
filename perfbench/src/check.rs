//! In-process references and the output checks that do not trust the
//! code under test: every reference route passes the design-rule
//! checker, and every flow plan's congestion is recounted edge by edge.

use clockroute_cli::{report, scenario};
use clockroute_core::drc::{self, ClockRule, DrcViolation};
use clockroute_elmore::GateLibrary;
use clockroute_flow::{FlowConfig, FlowSummary, PlannerFlowExt};
use clockroute_grid::{edge_key, EdgeCapacities, EdgeKey, GridGraph};
use clockroute_plan::{NetKind, Plan, Planner, SharedTelemetry};
use clockroute_service::protocol;
use std::collections::BTreeMap;

/// The quality totals of one plan (summed again over a workload's fixed
/// scenario set).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub latency_ps: f64,
    pub wire_mm: f64,
    pub nets_degraded: u64,
    pub overflow_edges: u64,
}

impl Quality {
    pub fn add(&mut self, other: Quality) {
        self.latency_ps += other.latency_ps;
        self.wire_mm += other.wire_mm;
        self.nets_degraded += other.nets_degraded;
        self.overflow_edges += other.overflow_edges;
    }
}

/// A checked reference answer for one scenario.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Byte-exact `crplan --quiet` stdout and `route` report.
    pub report: String,
    pub routed: usize,
    pub failed: usize,
    pub degraded: usize,
    pub quality: Quality,
}

impl Reference {
    /// The `route` response this scenario must get, for `id` and the
    /// cache path `label`.
    pub fn response(&self, id: &str, label: &str) -> String {
        protocol::route_ok(
            Some(id),
            label,
            self.routed,
            self.failed,
            self.degraded,
            &self.report,
        )
    }
}

/// The planner a `crserve` solve builds for `s` (unlimited budget, as
/// no `--budget-ms` is set), with an optional telemetry sink.
pub fn planner(s: &scenario::Scenario, jobs: usize, sink: Option<SharedTelemetry>) -> Planner {
    let (gw, gh) = s.grid;
    let graph = GridGraph::from_floorplan(&s.floorplan, gw, gh);
    let p = Planner::new(graph, s.tech, GateLibrary::paper_library())
        .reserve_routes(s.reserve)
        .jobs(jobs);
    match sink {
        Some(sink) => p.telemetry(sink),
        None => p,
    }
}

/// Cold reference for a `crserve` route request (the planner a cold
/// `route` runs; plans are identical for every job count).
pub fn serve_reference(text: &str) -> Result<Reference, String> {
    let s = scenario::parse(text).map_err(|e| format!("scenario: {e}"))?;
    let traced = planner(&s, 1, None).plan_traced(&s.nets);
    reference_of(&s, traced.plan(), None)
}

/// Reference for `crplan --flow --quiet`, plus the flow summary.
pub fn flow_reference(text: &str) -> Result<Reference, String> {
    let s = scenario::parse(text).map_err(|e| format!("scenario: {e}"))?;
    let (plan, summary) = planner(&s, 1, None)
        .flow(&s.nets, &s.capacities, FlowConfig::default())
        .into_parts();
    reference_of(&s, &plan, Some(&summary))
}

fn reference_of(
    s: &scenario::Scenario,
    plan: &Plan,
    summary: Option<&FlowSummary>,
) -> Result<Reference, String> {
    let (gw, gh) = s.grid;
    let graph = GridGraph::from_floorplan(&s.floorplan, gw, gh);
    drc_plan(s, &graph, plan)?;
    let over = recount(&s.capacities, plan);
    if let Some(summary) = summary {
        if over != summary.overloaded {
            return Err(format!(
                "flow summary reports {} overloaded edges, the recount finds {}",
                summary.overloaded.len(),
                over.len()
            ));
        }
    }
    let quality = Quality {
        latency_ps: plan
            .routed()
            .filter_map(|r| r.latency)
            .map(|t| t.ps())
            .sum(),
        wire_mm: plan.total_wirelength().mm(),
        nets_degraded: (plan.failed().count() + plan.degraded().count()) as u64,
        overflow_edges: over.len() as u64,
    };
    Ok(Reference {
        report: report::plan_report(plan),
        routed: plan.routed().count(),
        failed: plan.failed().count(),
        degraded: plan.degraded().count(),
        quality,
    })
}

/// Runs the design-rule checker on every route of `plan`, against the
/// grid before any reservation. Degraded routes carry no timing or
/// synchronizer guarantee, so only their geometry and gate legality
/// are checked.
pub fn drc_plan(s: &scenario::Scenario, graph: &GridGraph, plan: &Plan) -> Result<(), String> {
    let lib = GateLibrary::paper_library();
    if plan.results().len() != s.nets.len() {
        return Err(format!(
            "plan has {} results for {} nets",
            plan.results().len(),
            s.nets.len()
        ));
    }
    for (net, result) in s.nets.iter().zip(plan.results()) {
        if result.name != net.name {
            return Err(format!(
                "result `{}` out of order (expected `{}`)",
                result.name, net.name
            ));
        }
        let Some(path) = &result.path else { continue };
        if path.source() != net.source || path.sink() != net.sink {
            return Err(format!(
                "net {}: route does not join its terminals",
                net.name
            ));
        }
        let rule = match net.kind {
            _ if result.is_degraded() => ClockRule::Unconstrained,
            NetKind::Combinational => ClockRule::Unconstrained,
            NetKind::Registered { period } => ClockRule::SingleDomain(period),
            NetKind::Gals { t_s, t_t } => ClockRule::TwoDomain { t_s, t_t },
        };
        let violations: Vec<DrcViolation> = drc::check(path, graph, &s.tech, &lib, rule)
            .into_iter()
            .filter(|v| !(result.is_degraded() && matches!(v, DrcViolation::WrongFifoCount { .. })))
            .collect();
        if let Some(v) = violations.first() {
            return Err(format!("net {}: DRC: {v}", net.name));
        }
    }
    Ok(())
}

/// Independent per-edge congestion recount: every routed path's edges
/// counted against the scenario's capacities. Returns the edges over
/// capacity as `key -> (usage, cap)`.
pub fn recount(caps: &EdgeCapacities, plan: &Plan) -> BTreeMap<EdgeKey, (u32, u32)> {
    let mut usage: BTreeMap<EdgeKey, (u32, Option<u32>)> = BTreeMap::new();
    for r in plan.routed() {
        let Some(path) = &r.path else { continue };
        for w in path.points().windows(2) {
            let entry = usage
                .entry(edge_key(w[0], w[1]))
                .or_insert((0, caps.cap(w[0], w[1])));
            entry.0 += 1;
        }
    }
    usage
        .into_iter()
        .filter_map(|(k, (used, cap))| match cap {
            Some(cap) if used > cap => Some((k, (used, cap))),
            _ => None,
        })
        .collect()
}
