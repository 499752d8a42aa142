//! Multi-net interconnect planning.
//!
//! The paper positions its algorithms as building blocks for
//! *interconnect planning*: “routing estimates can be achieved during
//! architectural explorations to assess communication overhead once an
//! initial floorplan is constructed” (§I). A real plan involves many
//! global nets that compete for routing tracks and insertion sites. This
//! crate provides that layer:
//!
//! * [`NetSpec`] — one global net: terminals plus its clocking
//!   requirement (combinational, single-domain registered, or two-domain
//!   GALS);
//! * [`Planner`] — plans a batch of nets **sequentially with resource
//!   reservation**: after each net is routed, its edges are removed from
//!   the shared grid and its insertion sites are blocked, so later nets
//!   cannot overlap it (the classic sequential global-routing discipline;
//!   the per-net searches remain optimal w.r.t. the remaining resources);
//! * [`Plan`] / [`NetResult`] — the outcome: per-net routes, latencies,
//!   element counts, and aggregate statistics an RTL/architecture update
//!   would consume.
//!
//! Net ordering matters in sequential planning; the planner routes nets
//! in the order given (callers typically sort by criticality) and reports
//! failures without aborting the batch.
//!
//! # Resilience
//!
//! A hostile net must never take the whole plan down. Each net is routed
//! under an optional [`SearchBudget`] and inside a panic boundary, and on
//! a resource failure the planner walks a **degradation ladder**:
//!
//! 1. the optimal search on the full-resolution grid;
//! 2. the same search on a **2×-coarsened grid** (4× fewer nodes, so
//!    roughly an order of magnitude less work), with the coarse route
//!    expanded back onto the fine grid;
//! 3. a plain **unbuffered shortest path** — always cheap, no timing
//!    guarantee.
//!
//! Which rung produced each result is recorded as a [`Degradation`], so
//! callers can distinguish exact optima from estimates. Rungs 2–3 trade
//! optimality for availability: a coarse route is a valid fine-grid route
//! but may be longer than optimal, and its terminal stages may exceed the
//! period by the delay of the short connector stubs that attach off-lattice
//! terminals; an unbuffered route ignores timing entirely. Latencies on
//! degraded nets are therefore estimates, not guarantees.
//!
//! # Parallel planning and warm starts
//!
//! One **commit scheduler** serves cold plans ([`Planner::plan`],
//! [`Planner::plan_traced`]), parallel plans ([`Planner::jobs`] above 1)
//! and warm starts ([`Planner::plan_warm`]). Whatever the job count, the
//! returned [`Plan`] is bit-identical to routing the nets one at a time
//! in order, which the test suite asserts. Each round:
//!
//! 1. takes a **window** of pending nets: 4 per worker, or 1 with one
//!    job, when nets are routed inline on the calling thread;
//! 2. treats a warm start's prior result whose footprint clears the
//!    changed cells as a speculation already computed, and routes the
//!    rest against the current grid, workers pulling nets off a shared
//!    cursor;
//! 3. scans the outcomes **in net order**. A fresh outcome commits if
//!    the grid region its search examined (tracked as a bounding box,
//!    dilated by one step) is disjoint from every reservation committed
//!    earlier in the round. A prior outcome commits if that region
//!    still clears the changed cells, which grow by the old and new
//!    routes of every re-routed net whose result changed. Either way
//!    the route is what the one-at-a-time pass would have found;
//! 4. stops the scan at the first net that may have seen stale state;
//!    it and everything after it go into the next round's window.
//!
//! The first net of every round commits (nothing precedes it, and a
//! prior outcome was checked when the round opened), so each round
//! retires at least one net and the scheduler terminates after at most
//! `n` rounds. Degraded routes and failures have no footprint — their
//! searches read unbounded grid state — so they are never reused and
//! only commit from the front of a round.
//!
//! Determinism caveat: results that depend on **wall-clock budgets**
//! ([`SearchBudget::with_deadline`](clockroute_core::SearchBudget)) can
//! differ run to run on a loaded machine regardless of `jobs`; parallel
//! planning neither fixes nor worsens that. With workers, failpoints
//! are snapshotted once and re-armed per net; with one job they keep
//! their global hit counts — see [`clockroute_core::failpoint`] for the
//! threading contract.
//!
//! # Example
//!
//! ```
//! use clockroute_plan::{NetSpec, Planner};
//! use clockroute_grid::GridGraph;
//! use clockroute_elmore::{Technology, GateLibrary};
//! use clockroute_geom::{Point, units::{Length, Time}};
//!
//! let graph = GridGraph::open(30, 30, Length::from_um(500.0));
//! let tech = Technology::paper_070nm();
//! let lib = GateLibrary::paper_library();
//! let nets = vec![
//!     NetSpec::registered("a", Point::new(0, 0), Point::new(29, 5), Time::from_ps(400.0)),
//!     NetSpec::registered("b", Point::new(0, 10), Point::new(29, 15), Time::from_ps(400.0)),
//! ];
//! let plan = Planner::new(graph, tech, lib).plan(&nets);
//! assert_eq!(plan.routed().count(), 2);
//! ```

use clockroute_core::{
    failpoint::{self, FailAction},
    lockcheck,
    telemetry::Value,
    FastPathSpec, GalsSpec, RbpSpec, RouteError, RoutedPath, SearchBudget, SearchStage, Telemetry,
    TelemetryHandle, TelemetryShard, TouchedRegion,
};
use clockroute_elmore::{GateId, GateLibrary, Technology};
use clockroute_geom::units::{Length, Time};
use clockroute_geom::{BlockageMap, Point};
use clockroute_grid::{shortest_path, GridGraph};
use serde::{Deserialize, Serialize};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

pub mod workers;

/// Clocking requirement of a net.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NetKind {
    /// Minimum-delay buffered net (fast path), no synchronizers.
    Combinational,
    /// Single-domain registered net at the given period (RBP).
    Registered {
        /// Clock period.
        period: Time,
    },
    /// Two-domain net through an MCFIFO (GALS).
    Gals {
        /// Sender period.
        t_s: Time,
        /// Receiver period.
        t_t: Time,
    },
}

/// One global net to plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetSpec {
    /// Human-readable identifier.
    pub name: String,
    /// Source grid point.
    pub source: Point,
    /// Sink grid point.
    pub sink: Point,
    /// Clocking requirement.
    pub kind: NetKind,
}

impl NetSpec {
    /// A combinational (fast path) net.
    pub fn combinational(name: &str, source: Point, sink: Point) -> NetSpec {
        NetSpec {
            name: name.to_owned(),
            source,
            sink,
            kind: NetKind::Combinational,
        }
    }

    /// A registered single-domain net.
    pub fn registered(name: &str, source: Point, sink: Point, period: Time) -> NetSpec {
        NetSpec {
            name: name.to_owned(),
            source,
            sink,
            kind: NetKind::Registered { period },
        }
    }

    /// A two-domain (GALS) net.
    pub fn gals(name: &str, source: Point, sink: Point, t_s: Time, t_t: Time) -> NetSpec {
        NetSpec {
            name: name.to_owned(),
            source,
            sink,
            kind: NetKind::Gals { t_s, t_t },
        }
    }
}

/// How far down the degradation ladder a net's route came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Degradation {
    /// The optimal search succeeded on the full-resolution grid.
    #[default]
    None,
    /// The optimal search failed; the route comes from a 2×-coarsened
    /// grid, expanded back to fine coordinates. Optimal on the coarse
    /// lattice only; latency is an estimate.
    CoarseGrid,
    /// Both optimal attempts failed; the route is a plain unbuffered
    /// shortest path with no timing guarantee.
    Unbuffered,
}

impl fmt::Display for Degradation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Degradation::None => "none",
            Degradation::CoarseGrid => "coarse grid",
            Degradation::Unbuffered => "unbuffered fallback",
        })
    }
}

/// Result of planning one net.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetResult {
    /// The net's name.
    pub name: String,
    /// The synthesized route (when successful).
    pub path: Option<RoutedPath>,
    /// End-to-end latency: path delay for combinational nets, cycle
    /// latency otherwise.
    pub latency: Option<Time>,
    /// Pipeline depth in cycles (1 for combinational nets).
    pub cycles: Option<usize>,
    /// Total wirelength.
    pub wirelength: Option<Length>,
    /// Failure reason, if the net could not be routed.
    pub error: Option<RouteError>,
    /// Which ladder rung produced the route ([`Degradation::None`] for an
    /// exact optimum; meaningless when the net failed entirely).
    pub degradation: Degradation,
}

impl NetResult {
    /// `true` if the net was routed (possibly degraded).
    pub fn is_routed(&self) -> bool {
        self.path.is_some()
    }

    /// `true` if the net was routed by a fallback rung.
    pub fn is_degraded(&self) -> bool {
        self.is_routed() && self.degradation != Degradation::None
    }
}

impl fmt::Display for NetResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (&self.path, &self.error) {
            (Some(path), _) => {
                write!(
                    f,
                    "{}: {} cycles, latency {:.0}, {} registers, {} buffers, {:.1} mm",
                    self.name,
                    self.cycles.unwrap_or(0),
                    self.latency.unwrap_or(Time::ZERO),
                    path.register_count() + path.fifo_count(),
                    path.buffer_count(),
                    self.wirelength.unwrap_or(Length::ZERO).mm(),
                )?;
                if self.degradation != Degradation::None {
                    write!(f, " [degraded: {}]", self.degradation)?;
                }
                Ok(())
            }
            (None, Some(e)) => write!(f, "{}: FAILED ({e})", self.name),
            (None, None) => write!(f, "{}: not planned", self.name),
        }
    }
}

/// A completed plan.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Plan {
    results: Vec<NetResult>,
}

impl Plan {
    /// Assembles a plan from per-net results, in planning order — for
    /// alternative batch planners (e.g. `clockroute-flow`) that build
    /// their results net-by-net and still want the [`Plan`] reporting
    /// surface.
    pub fn from_results(results: Vec<NetResult>) -> Plan {
        Plan { results }
    }

    /// Per-net results, in planning order.
    pub fn results(&self) -> &[NetResult] {
        &self.results
    }

    /// Iterates over successfully routed nets.
    pub fn routed(&self) -> impl Iterator<Item = &NetResult> {
        self.results.iter().filter(|r| r.is_routed())
    }

    /// Iterates over failed nets.
    pub fn failed(&self) -> impl Iterator<Item = &NetResult> {
        self.results.iter().filter(|r| !r.is_routed())
    }

    /// Iterates over nets that were routed by a fallback ladder rung.
    pub fn degraded(&self) -> impl Iterator<Item = &NetResult> {
        self.results.iter().filter(|r| r.is_degraded())
    }

    /// Total wirelength over all routed nets.
    pub fn total_wirelength(&self) -> Length {
        self.routed().filter_map(|r| r.wirelength).sum()
    }

    /// Total synchronizer count (registers + FIFOs) over routed nets.
    pub fn total_synchronizers(&self) -> usize {
        self.routed()
            .filter_map(|r| r.path.as_ref())
            .map(|p| p.register_count() + p.fifo_count())
            .sum()
    }

    /// Worst pipeline depth among routed nets.
    pub fn max_cycles(&self) -> Option<usize> {
        self.routed().filter_map(|r| r.cycles).max()
    }
}

/// A [`Plan`] plus the per-net search footprints that produced it —
/// everything a warm-start ([`Planner::plan_warm`]) needs to decide
/// which cached results survive a grid change.
///
/// `footprints[i]` is the grid region net `i`'s winning search
/// examined, exactly as the commit scheduler's conflict check uses
/// it: `Some` only for undegraded successes (degraded rungs and
/// failures read unbounded grid state, so they carry `None` and are
/// always re-routed on reuse).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TracedPlan {
    plan: Plan,
    footprints: Vec<Option<TouchedRegion>>,
}

impl TracedPlan {
    /// The plan itself.
    pub fn plan(&self) -> &Plan {
        &self.plan
    }

    /// Discards the footprints.
    pub fn into_plan(self) -> Plan {
        self.plan
    }

    /// Per-net search footprints, parallel to `plan().results()`.
    pub fn footprints(&self) -> &[Option<TouchedRegion>] {
        &self.footprints
    }

    /// Reassembles a traced plan from decoded parts — the inverse of
    /// `plan().results()` + [`footprints`](Self::footprints), for the
    /// service's cache-snapshot loader.
    ///
    /// Enforces the structural invariants every planner-built value
    /// satisfies, so a decoder cannot smuggle in a state the warm-start
    /// path ([`Planner::plan_warm`]) was never designed to see:
    /// footprints must be parallel to results, and a `Some` footprint
    /// is only legal on an undegraded success (degraded rungs and
    /// failures read unbounded grid state and always carry `None`).
    ///
    /// # Errors
    ///
    /// A description of the first violated invariant.
    pub fn from_parts(
        results: Vec<NetResult>,
        footprints: Vec<Option<TouchedRegion>>,
    ) -> Result<TracedPlan, String> {
        if results.len() != footprints.len() {
            return Err(format!(
                "footprints ({}) are not parallel to results ({})",
                footprints.len(),
                results.len()
            ));
        }
        for (r, fp) in results.iter().zip(&footprints) {
            if fp.is_some() && (r.path.is_none() || r.degradation != Degradation::None) {
                return Err(format!(
                    "net `{}` carries a footprint but is not an undegraded success",
                    r.name
                ));
            }
        }
        Ok(TracedPlan {
            plan: Plan { results },
            footprints,
        })
    }

    /// Net `i`'s result as an outcome, when its footprint clears `dirty`.
    fn reusable(&self, i: usize, dirty: &[Point]) -> Option<Outcome> {
        let r = &self.plan.results[i];
        let routed = Routed {
            path: r.path.clone()?,
            latency: r.latency?,
            cycles: r.cycles?,
            touched: self.footprints[i],
        };
        let outcome = Ok((routed, r.degradation));
        clears(&outcome, dirty).then_some(outcome)
    }
}

/// A telemetry sink shared between the planner and its worker threads.
///
/// Wraps the trait object so [`Planner`] stays `Debug + Clone`. The
/// planner writes each net's search counters into a private per-net
/// [`TelemetryShard`] and replays committed shards into this sink
/// in net order, so counter/gauge aggregates are independent of the job
/// count; trace-only spans and events flow through unchanged.
#[derive(Clone)]
pub struct SharedTelemetry(Arc<dyn Telemetry + Send + Sync>);

impl SharedTelemetry {
    /// Wraps a sink for [`Planner::telemetry`].
    pub fn new(sink: Arc<dyn Telemetry + Send + Sync>) -> SharedTelemetry {
        SharedTelemetry(sink)
    }

    fn sink(&self) -> &dyn Telemetry {
        &*self.0
    }

    /// A borrowed [`TelemetryHandle`] over the shared sink — how
    /// out-of-crate planners (e.g. `clockroute-flow`) emit their own
    /// counters and events through the same sink a [`Planner`] uses.
    pub fn handle(&self) -> TelemetryHandle<'_> {
        TelemetryHandle::new(self.sink())
    }

    /// Replays `shard` into the shared sink and empties it — how
    /// out-of-crate planners merge per-net shards in net order, as the
    /// commit scheduler does.
    pub fn replay(&self, shard: &TelemetryShard) {
        // Replay locks the sink; nothing else may be held (see
        // TelemetryShard::replay_into).
        lockcheck::assert_lock_free("SharedTelemetry::replay");
        shard.replay_into(self.sink());
    }
}

impl fmt::Debug for SharedTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SharedTelemetry(..)")
    }
}

/// Multi-net planner with resource reservation; one job by default,
/// with an optional deterministic parallel mode ([`Planner::jobs`]).
#[derive(Debug, Clone)]
pub struct Planner {
    graph: GridGraph,
    tech: Technology,
    lib: GateLibrary,
    reserve_routes: bool,
    budget: SearchBudget,
    degrade: bool,
    jobs: usize,
    telemetry: Option<SharedTelemetry>,
}

/// A successful routing attempt, before result bookkeeping.
#[derive(Debug, Clone)]
struct Routed {
    path: RoutedPath,
    latency: Time,
    cycles: usize,
    /// Grid region the winning search examined, when tracked. `None` on
    /// the degraded rungs (they read unbounded grid state), which forces
    /// the commit scheduler to treat them as always conflicting.
    touched: Option<TouchedRegion>,
}

/// The outcome of one trip down the degradation ladder.
type Outcome = Result<(Routed, Degradation), RouteError>;

impl Planner {
    /// Creates a planner over (a private copy of) the grid.
    pub fn new(graph: GridGraph, tech: Technology, lib: GateLibrary) -> Planner {
        Planner {
            graph,
            tech,
            lib,
            reserve_routes: true,
            budget: SearchBudget::unlimited(),
            degrade: true,
            jobs: 1,
            telemetry: None,
        }
    }

    /// Disables resource reservation (nets may overlap freely) — useful
    /// for pure latency estimation during early exploration.
    pub fn reserve_routes(mut self, reserve: bool) -> Planner {
        self.reserve_routes = reserve;
        self
    }

    /// Sets the per-attempt search budget. Each ladder rung gets a fresh
    /// budget of this size, so a net costs at most two budgeted searches
    /// plus one (cheap, unbudgeted) shortest-path fallback.
    pub fn budget(mut self, b: SearchBudget) -> Planner {
        self.budget = b;
        self
    }

    /// Enables/disables the degradation ladder (default: enabled). With
    /// it disabled, a failed optimal search fails the net outright.
    pub fn degrade(mut self, enabled: bool) -> Planner {
        self.degrade = enabled;
        self
    }

    /// Sets the number of worker threads for speculative parallel
    /// planning and warm starts (default 1: nets are routed inline, one
    /// at a time). Flow mode (`clockroute-flow`) runs its price rounds
    /// and its per-net legalization on the same workers. The plan is
    /// bit-identical for any job count; see the module docs for the
    /// commit protocol. Values below 1 are clamped to 1.
    pub fn jobs(mut self, n: usize) -> Planner {
        self.jobs = n.max(1);
        self
    }

    /// Attaches a telemetry sink. Search and planner **counters/gauges**
    /// reaching the sink are identical for every [`Planner::jobs`] value
    /// (per-net shards replayed in net order at commit); **spans and
    /// events** additionally expose scheduling detail — rounds, conflicts,
    /// wall-times — and are trace-only.
    pub fn telemetry(mut self, sink: SharedTelemetry) -> Planner {
        self.telemetry = Some(sink);
        self
    }

    /// The current grid state (reflecting reservations made so far).
    pub fn graph(&self) -> &GridGraph {
        &self.graph
    }

    /// The planner's technology model.
    pub fn technology(&self) -> &Technology {
        &self.tech
    }

    /// The planner's gate library.
    pub fn library(&self) -> &GateLibrary {
        &self.lib
    }

    /// The number of worker threads ([`Planner::jobs`]).
    pub fn job_count(&self) -> usize {
        self.jobs
    }

    /// The per-attempt search budget ([`Planner::budget`]).
    pub fn search_budget(&self) -> SearchBudget {
        self.budget
    }

    /// Whether the degradation ladder is enabled ([`Planner::degrade`]).
    pub fn degrades(&self) -> bool {
        self.degrade
    }

    /// The attached telemetry sink, if any ([`Planner::telemetry`]).
    pub fn telemetry_sink(&self) -> Option<&SharedTelemetry> {
        self.telemetry.as_ref()
    }

    /// The attached sink as a handle; detached (every call a no-op)
    /// without one.
    fn sink(&self) -> TelemetryHandle<'_> {
        self.telemetry
            .as_ref()
            .map_or(TelemetryHandle::none(), SharedTelemetry::handle)
    }

    /// Plans the nets in order. Failures are recorded, not fatal: a net
    /// that exhausts its budget, panics, or proves infeasible falls down
    /// the degradation ladder, and only a net that fails every rung is
    /// reported as failed.
    ///
    /// With [`Planner::jobs`] above 1, nets are routed speculatively in
    /// parallel and committed in order; the resulting [`Plan`] is
    /// bit-identical to the `jobs = 1` one.
    pub fn plan(self, nets: &[NetSpec]) -> Plan {
        self.plan_traced(nets).into_plan()
    }

    /// Like [`Planner::plan`], but additionally returns each net's
    /// search footprint so the result can seed a later warm-start
    /// ([`Planner::plan_warm`]). The contained plan is identical to
    /// what [`Planner::plan`] returns.
    pub fn plan_traced(self, nets: &[NetSpec]) -> TracedPlan {
        self.schedule(nets, None, Vec::new())
    }

    /// Warm-start (incremental ECO) planning: re-plans `nets` on this
    /// planner's grid, reusing results from `prior` — a traced plan of
    /// the *same net list* on a grid that differs only at the points in
    /// `dirty` — for every net whose search provably never looked at a
    /// dirty point.
    ///
    /// A prior result is a speculation an earlier run already computed,
    /// so it goes through the same commit scheduler as a fresh one (see
    /// the module docs and DESIGN.md §12). At a net's turn the current
    /// grid and the prior grid differ only at `dirty`, which grows by
    /// the old and new routes of every re-routed net whose result
    /// changed. A net whose recorded footprint, dilated by one grid
    /// step, avoids every dirty point reads exactly the state the prior
    /// run read, so its cached result is what a cold solve would
    /// recompute. Everything else — degraded, failed, or
    /// footprint-intersecting nets — is re-routed for real, on
    /// [`Planner::jobs`] workers.
    ///
    /// Falls back to a full cold plan when `prior` does not line up
    /// with `nets` (different length or names), so callers cannot
    /// misuse it into unsoundness. Emits `plan.warm.reused` /
    /// `plan.warm.rerouted` counters at commit when telemetry is
    /// attached.
    pub fn plan_warm(self, nets: &[NetSpec], prior: &TracedPlan, dirty: &[Point]) -> TracedPlan {
        let priors = &prior.plan.results;
        let aligned =
            priors.len() == nets.len() && priors.iter().zip(nets).all(|(r, n)| r.name == n.name);
        self.schedule(nets, aligned.then_some(prior), dirty.to_vec())
    }

    /// The commit scheduler behind every plan (see the module docs).
    ///
    /// Each round takes a window of pending nets. A `prior` result whose
    /// footprint clears `dirty` needs no search; the rest are routed
    /// against the grid as the round opened. The round then commits the
    /// longest prefix, in net order, whose outcomes provably equal what
    /// a one-net-at-a-time pass would produce. The first net of a round
    /// always commits, so the loop ends after at most `nets.len()`
    /// rounds.
    fn schedule(
        mut self,
        nets: &[NetSpec],
        prior: Option<&TracedPlan>,
        mut dirty: Vec<Point>,
    ) -> TracedPlan {
        // Deferred nets are re-routed from scratch, so an over-wide window
        // multiplies wasted searches when reservations conflict densely;
        // a window of a few nets per worker keeps the pipeline full
        // without over-speculating. One job routes inline, one net at a
        // time, under the caller's failpoints.
        let parallel = self.jobs > 1 && nets.len() > 1;
        let window = if parallel {
            self.jobs.saturating_mul(4)
        } else {
            1
        };
        let inherited = parallel.then(failpoint::capture);
        let mut results: Vec<NetResult> = Vec::with_capacity(nets.len());
        let mut footprints = Vec::with_capacity(nets.len());
        while results.len() < nets.len() {
            let round = results.len()..nets.len().min(results.len().saturating_add(window));
            let cached: Vec<_> = round.clone().map(|i| prior?.reusable(i, &dirty)).collect();
            let todo: Vec<usize> = round
                .clone()
                .filter(|&i| cached[i - round.start].is_none())
                .collect();
            let mut fresh = self.route(nets, &todo, inherited.as_ref()).into_iter();
            // A cached outcome carries no shard: its searches ran, and
            // were counted, in the prior run.
            let candidates = cached.into_iter().map_while(|c| match c {
                Some(outcome) => Some((outcome, None)),
                None => fresh.next().map(|(outcome, shard)| (outcome, Some(shard))),
            });
            // Points reserved so far this round: the difference between
            // the grid the round was routed against and the grid a
            // one-net-at-a-time pass would have shown each later net.
            let mut delta: Vec<Point> = Vec::new();
            let mut accepted = 0;
            for (i, (outcome, shard)) in round.clone().zip(candidates) {
                // A cached outcome was computed on the prior grid, which
                // differs from this net's grid only at `dirty`; a fresh
                // one on the round's grid, which differs only at `delta`.
                let sound = match shard {
                    None => clears(&outcome, &dirty),
                    Some(_) => delta.is_empty() || clears(&outcome, &delta),
                };
                if !sound {
                    // It and everything after it wait for the next round.
                    // Later nets cannot leapfrog: they would also need
                    // validating against this net's as-yet-unknown
                    // reservation.
                    self.sink()
                        .event("plan.conflict", &[("net", Value::Str(&nets[i].name))]);
                    break;
                }
                let rerouted = shard.is_some();
                match (prior, rerouted) {
                    (Some(_), true) => self.sink().counter("plan.warm.rerouted", 1),
                    (Some(_), false) => self.sink().counter("plan.warm.reused", 1),
                    (None, _) => {}
                }
                let (result, fp) = self.commit(&nets[i], outcome, shard.unwrap_or_default());
                let old = prior.map(|p| &p.plan.results[i]);
                debug_assert!(
                    rerouted || old == Some(&result),
                    "reused result must round-trip"
                );
                if self.reserve_routes {
                    let route = result.path.as_ref().map_or(&[][..], |p| p.points());
                    delta.extend_from_slice(route);
                    // The grids diverge wherever either run reserved
                    // resources this net's way.
                    if let Some(old) = old.filter(|old| **old != result) {
                        if let Some(p) = &old.path {
                            dirty.extend_from_slice(p.points());
                        }
                        dirty.extend_from_slice(route);
                    }
                }
                results.push(result);
                footprints.push(fp);
                accepted += 1;
            }
            debug_assert!(accepted > 0, "the first pending net always commits");
            self.sink().event(
                "plan.round",
                &[
                    ("speculated", Value::U64(todo.len() as u64)),
                    ("committed", Value::U64(accepted as u64)),
                ],
            );
        }
        TracedPlan {
            plan: Plan { results },
            footprints,
        }
    }

    /// Routes `todo` (indices into `nets`) against the current grid, in
    /// order: inline without `inherited` failpoints, otherwise on worker
    /// threads ([`workers::map_indexed`]). The assignment of nets to
    /// threads is scheduling-dependent, but every net is routed against
    /// the same immutable grid by the deterministic per-net ladder, so
    /// the outcome vector is not.
    fn route(
        &self,
        nets: &[NetSpec],
        todo: &[usize],
        inherited: Option<&failpoint::ArmedSet>,
    ) -> Vec<(Outcome, TelemetryShard)> {
        workers::map_indexed(
            self.jobs,
            todo.len(),
            inherited,
            || (),
            |_, k| self.plan_net(&nets[todo[k]]),
        )
    }

    /// Applies one net's outcome to the grid (reservation) and turns it
    /// into the reported [`NetResult`]. Every plan funnels through here,
    /// which is what makes cold, parallel and warm outputs directly
    /// comparable — and why replaying the per-net telemetry shard here
    /// makes the aggregate metrics independent of the job count: shards
    /// reach the sink in net order no matter which worker produced them.
    fn commit(
        &mut self,
        net: &NetSpec,
        outcome: Outcome,
        shard: TelemetryShard,
    ) -> (NetResult, Option<TouchedRegion>) {
        // Commit replays a Telemetry-ranked shard into a
        // Telemetry-ranked aggregate; that is only rank-clean because
        // nothing else is held here (replay takes the shard's log
        // before locking the sink — see TelemetryShard::replay_into).
        lockcheck::assert_lock_free("plan.commit");
        if let Some(t) = &self.telemetry {
            t.replay(&shard);
            let sink = t.sink();
            let (degraded, label) = match &outcome {
                Ok((_, Degradation::None)) => (None, "none"),
                Ok((_, Degradation::CoarseGrid)) => (Some("plan.nets.degraded.coarse"), "coarse"),
                Ok((_, Degradation::Unbuffered)) => {
                    (Some("plan.nets.degraded.unbuffered"), "unbuffered")
                }
                Err(_) => (None, "failed"),
            };
            sink.counter(
                if outcome.is_ok() {
                    "plan.nets.routed"
                } else {
                    "plan.nets.failed"
                },
                1,
            );
            if let Some(name) = degraded {
                sink.counter(name, 1);
            }
            sink.event(
                "plan.net.committed",
                &[
                    ("net", Value::Str(&net.name)),
                    ("ok", Value::U64(u64::from(outcome.is_ok()))),
                    ("degradation", Value::Str(label)),
                ],
            );
        }
        let fp = footprint(&outcome);
        let result = match outcome {
            Ok((routed, degradation)) => {
                if self.reserve_routes {
                    self.reserve(&routed.path, net);
                }
                NetResult {
                    name: net.name.clone(),
                    latency: Some(routed.latency),
                    cycles: Some(routed.cycles),
                    wirelength: Some(routed.path.wirelength(&self.graph)),
                    path: Some(routed.path),
                    error: None,
                    degradation,
                }
            }
            Err(e) => NetResult {
                name: net.name.clone(),
                path: None,
                latency: None,
                cycles: None,
                wirelength: None,
                error: Some(e),
                degradation: Degradation::None,
            },
        };
        (result, fp)
    }

    /// Routes one net into a fresh telemetry shard. The shard holds every
    /// counter the net's searches emitted (across all ladder rungs); the
    /// caller replays it into the aggregate sink only if this outcome
    /// commits, so discarded speculative attempts leave no metrics behind.
    fn plan_net(&self, net: &NetSpec) -> (Outcome, TelemetryShard) {
        let shard = TelemetryShard::new();
        let handle = TelemetryHandle::new(&shard);
        // crlint-allow: CR003 span start; the duration only reaches telemetry, never compared bytes
        let started = std::time::Instant::now();
        let outcome = self.ladder(net, handle);
        handle.span_ns("plan.net.solve_ns", started.elapsed().as_nanos() as u64);
        (outcome, shard)
    }

    /// Walks the degradation ladder for one net. On total failure the
    /// error of the *first* (optimal) attempt is returned — it carries
    /// the most useful diagnostics.
    fn ladder(&self, net: &NetSpec, telemetry: TelemetryHandle<'_>) -> Outcome {
        // Zero-length nets (source == sink) need no routing at all: the
        // route is the shared point and its footprint a degenerate rect,
        // so in parallel mode the net takes part in the normal conflict
        // check instead of being treated as always-conflicting.
        if net.source == net.sink {
            telemetry.counter("plan.nets.zero_length", 1);
            return Ok((self.zero_length(net), Degradation::None));
        }
        let first_err = match self.attempt(&self.graph, net, telemetry) {
            Ok(r) => return Ok((r, Degradation::None)),
            Err(e) => e,
        };
        if !self.degrade || !retryable(&first_err) {
            return Err(first_err);
        }
        telemetry.event(
            "plan.rung",
            &[
                ("net", Value::Str(&net.name)),
                ("rung", Value::Str("coarse")),
            ],
        );
        if let Some(r) = self.coarse_retry(net, telemetry) {
            return Ok((r, Degradation::CoarseGrid));
        }
        telemetry.event(
            "plan.rung",
            &[
                ("net", Value::Str(&net.name)),
                ("rung", Value::Str("unbuffered")),
            ],
        );
        if let Some(r) = self.unbuffered_fallback(net) {
            return Ok((r, Degradation::Unbuffered));
        }
        Err(first_err)
    }

    /// The trivial route for a net whose terminals share a grid node: one
    /// point, one terminal gate, zero wirelength. Latency is the launch
    /// overhead of the net's clocking discipline alone.
    fn zero_length(&self, net: &NetSpec) -> Routed {
        let path = RoutedPath::new(vec![net.source], vec![Some(self.lib.register())], &self.lib);
        let (latency, cycles) = match net.kind {
            NetKind::Combinational => (Time::ZERO, 1),
            NetKind::Registered { period } => (period, 1),
            NetKind::Gals { t_s, t_t } => (t_s + t_t, 2),
        };
        Routed {
            path,
            latency,
            cycles,
            touched: Some(TouchedRegion::of_point(net.source)),
        }
    }

    /// One routing attempt inside a panic boundary. A panicking search
    /// (a bug, or an armed failpoint) is converted into
    /// [`RouteError::SearchPanicked`] instead of unwinding the batch.
    fn attempt(
        &self,
        graph: &GridGraph,
        net: &NetSpec,
        telemetry: TelemetryHandle<'_>,
    ) -> Result<Routed, RouteError> {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            match failpoint::hit("plan::net") {
                Some(FailAction::Panic) => panic!("failpoint plan::net: forced panic"),
                Some(FailAction::BudgetExhausted) => {
                    return Err(RouteError::BudgetExceeded {
                        candidates: 0,
                        elapsed: std::time::Duration::ZERO,
                        stage: stage_of(net),
                    })
                }
                Some(FailAction::NoRoute) => return Err(RouteError::NoFeasibleRoute),
                // I/O actions only apply at `serve::*` sites; inert here.
                Some(FailAction::IoError | FailAction::ShortIo) | None => {}
            }
            self.route_net_on(graph, net, telemetry)
        }));
        outcome.unwrap_or_else(|payload| Err(RouteError::SearchPanicked(panic_message(&payload))))
    }

    fn route_net_on(
        &self,
        graph: &GridGraph,
        net: &NetSpec,
        telemetry: TelemetryHandle<'_>,
    ) -> Result<Routed, RouteError> {
        match net.kind {
            NetKind::Combinational => {
                let sol = FastPathSpec::new(graph, &self.tech, &self.lib)
                    .source(net.source)
                    .sink(net.sink)
                    .budget(self.budget)
                    .telemetry(telemetry)
                    .solve()?;
                Ok(Routed {
                    touched: sol.stats().touched,
                    latency: sol.delay(),
                    cycles: 1,
                    path: sol.path().clone(),
                })
            }
            NetKind::Registered { period } => {
                let sol = RbpSpec::new(graph, &self.tech, &self.lib)
                    .source(net.source)
                    .sink(net.sink)
                    .period(period)
                    .budget(self.budget)
                    .telemetry(telemetry)
                    .solve()?;
                Ok(Routed {
                    touched: sol.stats().touched,
                    latency: sol.latency(),
                    cycles: sol.register_count() + 1,
                    path: sol.path().clone(),
                })
            }
            NetKind::Gals { t_s, t_t } => {
                let sol = GalsSpec::new(graph, &self.tech, &self.lib)
                    .source(net.source)
                    .sink(net.sink)
                    .periods(t_s, t_t)
                    .budget(self.budget)
                    .telemetry(telemetry)
                    .solve()?;
                Ok(Routed {
                    touched: sol.stats().touched,
                    latency: sol.latency(),
                    cycles: sol.regs_source_side() + sol.regs_sink_side() + 2,
                    path: sol.path().clone(),
                })
            }
        }
    }

    /// Ladder rung 2: rerun the optimal search on a 2×-coarsened grid and
    /// expand the winning route back onto the fine grid. Returns `None`
    /// when the rung cannot apply (terminals collide after snapping, the
    /// connector stubs are blocked, or the coarse search fails too).
    fn coarse_retry(&self, net: &NetSpec, telemetry: TelemetryHandle<'_>) -> Option<Routed> {
        let coarse = coarsen(&self.graph);
        let s_snap = snap(net.source);
        let t_snap = snap(net.sink);
        if s_snap == t_snap {
            return None;
        }
        let coarse_net = NetSpec {
            name: net.name.clone(),
            source: Point::new(s_snap.x / 2, s_snap.y / 2),
            sink: Point::new(t_snap.x / 2, t_snap.y / 2),
            kind: net.kind,
        };
        let routed = self.attempt(&coarse, &coarse_net, telemetry).ok()?;
        let (points, labels) = expand_route(&self.graph, &routed.path, net.source, net.sink)?;
        let fine = RoutedPath::new(points, labels, &self.lib);
        Some(Routed {
            path: fine,
            latency: routed.latency,
            cycles: routed.cycles,
            // The coarse search's footprint is in coarse coordinates and
            // the rung also probed the fine grid for connector stubs, so
            // no sound fine-grid footprint exists.
            touched: None,
        })
    }

    /// Ladder rung 3: a plain unbuffered shortest path — always cheap,
    /// no timing guarantee. The reported latency is the raw Elmore delay
    /// of the unbuffered wire.
    fn unbuffered_fallback(&self, net: &NetSpec) -> Option<Routed> {
        let path = shortest_path(&self.graph, net.source, net.sink).ok()?;
        let points = path.points().to_vec();
        if points.len() < 2 {
            return None;
        }
        let mut labels: Vec<Option<GateId>> = vec![None; points.len()];
        labels[0] = Some(self.lib.register());
        let last = labels.len() - 1;
        labels[last] = Some(self.lib.register());
        let path = RoutedPath::new(points, labels, &self.lib);
        let delay = path
            .report(&self.graph, &self.tech, &self.lib)
            .total_delay();
        Some(Routed {
            path,
            latency: delay,
            cycles: 1,
            // Dijkstra scans the whole grid; no bounded footprint.
            touched: None,
        })
    }

    /// Reserves a routed net's resources: its edges are removed from the
    /// grid and its gate sites become placement-blocked (terminals stay
    /// usable — they belong to the blocks, not the channel).
    fn reserve(&mut self, path: &RoutedPath, net: &NetSpec) {
        let points = path.points().to_vec();
        for w in points.windows(2) {
            self.graph.blockage_mut().block_edge(w[0], w[1]);
        }
        for (pt, _) in path.gates() {
            if pt != net.source && pt != net.sink {
                self.graph.blockage_mut().block_node(pt);
            }
        }
    }
}

/// The grid region `outcome`'s search provably read, if it has one.
///
/// The optimal searches only read grid state at or adjacent to nodes
/// they expand, and every expanded node lands in the solution's arena —
/// so the recorded [`TouchedRegion`] (arena bounding box) dilated by one
/// grid step over-approximates the search's read set. Only an
/// undegraded success has one: degraded rungs and failures read
/// unbounded grid state.
fn footprint(outcome: &Outcome) -> Option<TouchedRegion> {
    match outcome {
        Ok((routed, Degradation::None)) => routed.touched,
        _ => None,
    }
}

/// `true` when `outcome` provably does not depend on the grid state at
/// `points`: it has a footprint and no point falls inside its one-step
/// dilation, so re-running its search on a grid that differs only at
/// `points` reads the same values at every step and reproduces the same
/// result bit for bit. Anything without a footprint never clears.
fn clears(outcome: &Outcome, points: &[Point]) -> bool {
    footprint(outcome).is_some_and(|region| points.iter().all(|&p| !region.contains_within(p, 1)))
}

/// Errors worth retrying further down the ladder. Spec mistakes
/// (off-grid terminals, bad periods) fail the same way on any grid.
fn retryable(e: &RouteError) -> bool {
    matches!(
        e,
        RouteError::NoFeasibleRoute
            | RouteError::BudgetExceeded { .. }
            | RouteError::SearchPanicked(_)
    )
}

/// The search stage a net kind runs (for synthesized budget errors).
fn stage_of(net: &NetSpec) -> SearchStage {
    match net.kind {
        NetKind::Combinational => SearchStage::FastPath,
        NetKind::Registered { .. } => SearchStage::Rbp,
        NetKind::Gals { .. } => SearchStage::Gals,
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_owned()
    }
}

/// Nearest even-coordinate fine point (the coarse lattice is the even
/// sublattice: coarse `(cx, cy)` ↔ fine `(2cx, 2cy)`).
fn snap(p: Point) -> Point {
    Point::new(p.x - p.x % 2, p.y - p.y % 2)
}

/// Builds the 2×-coarsened grid with **conservative** blockage mapping:
/// a coarse edge exists only if both fine sub-edges it expands to are
/// clear, and coarse insertion sites mirror their fine lattice point. Any
/// route found on the coarse grid therefore expands to a valid fine
/// route; feasible fine routes may be lost — that is the price of the
/// 4× node-count reduction.
fn coarsen(fine: &GridGraph) -> GridGraph {
    let cw = fine.width().div_ceil(2);
    let ch = fine.height().div_ceil(2);
    let fb = fine.blockage();
    let mut blk = BlockageMap::new(cw, ch);
    for cy in 0..ch {
        for cx in 0..cw {
            let cp = Point::new(cx, cy);
            let fp = Point::new(cx * 2, cy * 2);
            if fb.is_node_blocked(fp) {
                blk.block_node(cp);
            }
            if fb.is_register_blocked(fp) {
                blk.block_register(cp);
            }
            if cx + 1 < cw {
                let mid = Point::new(fp.x + 1, fp.y);
                let far = Point::new(fp.x + 2, fp.y);
                if fb.is_edge_blocked(fp, mid) || fb.is_edge_blocked(mid, far) {
                    blk.block_edge(cp, Point::new(cx + 1, cy));
                }
            }
            if cy + 1 < ch {
                let mid = Point::new(fp.x, fp.y + 1);
                let far = Point::new(fp.x, fp.y + 2);
                if fb.is_edge_blocked(fp, mid) || fb.is_edge_blocked(mid, far) {
                    blk.block_edge(cp, Point::new(cx, cy + 1));
                }
            }
        }
    }
    GridGraph::new(blk, fine.pitch_x() * 2.0, fine.pitch_y() * 2.0)
}

/// Axis-aligned L-walk (x first) from `a` to `b` inclusive, or `None` if
/// a wiring blockage obstructs it. `a` and `b` are at most one fine step
/// apart per axis in practice (terminal-snapping stubs), but the walk is
/// general.
fn connector(fine: &GridGraph, a: Point, b: Point) -> Option<Vec<Point>> {
    let mut pts = vec![a];
    let mut cur = a;
    while cur.x != b.x {
        let nx = if b.x > cur.x { cur.x + 1 } else { cur.x - 1 };
        let next = Point::new(nx, cur.y);
        if fine.blockage().is_edge_blocked(cur, next) {
            return None;
        }
        pts.push(next);
        cur = next;
    }
    while cur.y != b.y {
        let ny = if b.y > cur.y { cur.y + 1 } else { cur.y - 1 };
        let next = Point::new(cur.x, ny);
        if fine.blockage().is_edge_blocked(cur, next) {
            return None;
        }
        pts.push(next);
        cur = next;
    }
    Some(pts)
}

/// Expands a coarse-grid route onto the fine grid: every coarse edge
/// becomes its two fine sub-edges (midpoint unlabelled), and short
/// connector stubs attach the true terminals when they sit off the even
/// sublattice. Terminal gate labels move to the true terminals.
fn expand_route(
    fine: &GridGraph,
    coarse_path: &RoutedPath,
    source: Point,
    sink: Point,
) -> Option<(Vec<Point>, Vec<Option<GateId>>)> {
    let cpts = coarse_path.points();
    let clbl = coarse_path.labels();
    let scale = |p: Point| Point::new(p.x * 2, p.y * 2);
    let s_snap = scale(*cpts.first()?);
    let t_snap = scale(*cpts.last()?);

    let mut points: Vec<Point> = Vec::new();
    let mut labels: Vec<Option<GateId>> = Vec::new();

    let s_stub = connector(fine, source, s_snap)?;
    let s_extra = s_stub.len() - 1;
    for &p in &s_stub[..s_extra] {
        points.push(p);
        labels.push(None);
    }

    for (i, (&cp, &cl)) in cpts.iter().zip(clbl).enumerate() {
        let fp = scale(cp);
        points.push(fp);
        labels.push(cl);
        if i + 1 < cpts.len() {
            let fq = scale(cpts[i + 1]);
            points.push(Point::new((fp.x + fq.x) / 2, (fp.y + fq.y) / 2));
            labels.push(None);
        }
    }

    let t_stub = connector(fine, t_snap, sink)?;
    let t_extra = t_stub.len() - 1;
    for &p in &t_stub[1..] {
        points.push(p);
        labels.push(None);
    }

    let n = points.len();
    if n < 2 {
        return None;
    }
    // The snapped lattice points carried the terminal gates; when a stub
    // made them interior, the gates belong at the true terminals instead.
    let gs = clbl[0];
    let gt = clbl[clbl.len() - 1];
    if s_extra > 0 {
        labels[s_extra] = None;
    }
    if t_extra > 0 {
        labels[n - 1 - t_extra] = None;
    }
    labels[0] = gs;
    labels[n - 1] = gt;
    Some((points, labels))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_core::MetricsRecorder;
    use proptest::prelude::*;

    fn setup(n: u32) -> (GridGraph, Technology, GateLibrary) {
        (
            GridGraph::open(n, n, Length::from_um(500.0)),
            Technology::paper_070nm(),
            GateLibrary::paper_library(),
        )
    }

    fn p(x: u32, y: u32) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn plans_mixed_net_kinds() {
        let (g, tech, lib) = setup(30);
        let nets = vec![
            NetSpec::combinational("comb", p(0, 0), p(29, 2)),
            NetSpec::registered("reg", p(0, 6), p(29, 8), Time::from_ps(350.0)),
            NetSpec::gals(
                "xdomain",
                p(0, 12),
                p(29, 14),
                Time::from_ps(300.0),
                Time::from_ps(400.0),
            ),
        ];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        assert_eq!(plan.routed().count(), 3);
        assert_eq!(plan.failed().count(), 0);
        let comb = &plan.results()[0];
        assert_eq!(comb.cycles, Some(1));
        let gals = &plan.results()[2];
        assert_eq!(gals.path.as_ref().unwrap().fifo_count(), 1);
        assert!(plan.total_wirelength().mm() > 40.0);
        assert!(plan.max_cycles().unwrap() >= 2);
    }

    #[test]
    fn reserved_routes_do_not_overlap() {
        let (g, tech, lib) = setup(20);
        // Two nets with the same terminals row: the second must detour.
        let nets = vec![
            NetSpec::registered("n0", p(0, 10), p(19, 10), Time::from_ps(400.0)),
            NetSpec::registered("n1", p(0, 9), p(19, 11), Time::from_ps(400.0)),
        ];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        assert_eq!(plan.routed().count(), 2);
        let a: std::collections::HashSet<(Point, Point)> = plan.results()[0]
            .path
            .as_ref()
            .unwrap()
            .points()
            .windows(2)
            .map(|w| ord_edge(w[0], w[1]))
            .collect();
        let b_path = plan.results()[1].path.as_ref().unwrap();
        for w in b_path.points().windows(2) {
            assert!(
                !a.contains(&ord_edge(w[0], w[1])),
                "nets share edge {:?}",
                (w[0], w[1])
            );
        }
    }

    fn ord_edge(a: Point, b: Point) -> (Point, Point) {
        if (a.x, a.y) <= (b.x, b.y) {
            (a, b)
        } else {
            (b, a)
        }
    }

    #[test]
    fn without_reservation_nets_may_share() {
        let (g, tech, lib) = setup(12);
        let nets = vec![
            NetSpec::combinational("n0", p(0, 5), p(11, 5)),
            NetSpec::combinational("n1", p(0, 5), p(11, 5)),
        ];
        let plan = Planner::new(g, tech, lib).reserve_routes(false).plan(&nets);
        assert_eq!(plan.routed().count(), 2);
        // Same terminals, same grid ⇒ identical optimal routes.
        assert_eq!(
            plan.results()[0].path.as_ref().unwrap().points(),
            plan.results()[1].path.as_ref().unwrap().points()
        );
    }

    #[test]
    fn failures_recorded_not_fatal() {
        let (g, tech, lib) = setup(12);
        let nets = vec![
            NetSpec::registered("impossible", p(0, 0), p(11, 11), Time::from_ps(30.0)),
            NetSpec::combinational("fine", p(0, 2), p(11, 2)),
        ];
        let plan = Planner::new(g, tech, lib).degrade(false).plan(&nets);
        assert_eq!(plan.failed().count(), 1);
        assert_eq!(plan.routed().count(), 1);
        assert_eq!(plan.results()[0].error, Some(RouteError::NoFeasibleRoute));
        assert!(plan.results()[0].to_string().contains("FAILED"));
        assert!(plan.results()[1].is_routed());
    }

    #[test]
    fn ladder_rescues_infeasible_period_as_unbuffered() {
        // Period 30ps is unmeetable for the corner-to-corner span, so the
        // optimal and coarse rungs both fail; the unbuffered fallback
        // still produces a best-effort route, flagged as degraded.
        let (g, tech, lib) = setup(12);
        let nets = vec![NetSpec::registered(
            "impossible",
            p(0, 0),
            p(11, 11),
            Time::from_ps(30.0),
        )];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        assert_eq!(plan.failed().count(), 0);
        assert_eq!(plan.degraded().count(), 1);
        let r = &plan.results()[0];
        assert!(r.is_routed());
        assert_eq!(r.degradation, Degradation::Unbuffered);
        assert!(r.to_string().contains("degraded"));
    }

    #[test]
    fn congestion_can_exhaust_resources() {
        // A 1-row channel: after the first net eats the row, the second
        // has no edges left.
        let g = GridGraph::open(10, 1, Length::from_um(500.0));
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let nets = vec![
            NetSpec::combinational("n0", p(0, 0), p(9, 0)),
            NetSpec::combinational("n1", p(0, 0), p(9, 0)),
        ];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        assert_eq!(plan.routed().count(), 1);
        assert_eq!(plan.failed().count(), 1);
    }

    #[test]
    fn display_formats() {
        let (g, tech, lib) = setup(12);
        let nets = vec![NetSpec::registered(
            "link",
            p(0, 0),
            p(11, 11),
            Time::from_ps(400.0),
        )];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        let text = plan.results()[0].to_string();
        assert!(text.starts_with("link:"), "{text}");
        assert!(text.contains("cycles"));
    }

    /// Disarms all failpoints when dropped, so a failing assertion can't
    /// leak armed failpoints into other tests on the same thread.
    struct FailpointGuard;
    impl Drop for FailpointGuard {
        fn drop(&mut self) {
            failpoint::disarm_all();
        }
    }

    #[test]
    fn budget_exhaustion_triggers_coarse_retry() {
        let _guard = FailpointGuard;
        // The one-shot failpoint exhausts the budget on the optimal
        // attempt only; the coarsened retry then succeeds.
        failpoint::arm("fastpath::pop", FailAction::BudgetExhausted, 1);
        let (g, tech, lib) = setup(24);
        let nets = vec![NetSpec::combinational("n0", p(0, 0), p(20, 20))];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        let r = &plan.results()[0];
        assert!(r.is_routed(), "{:?}", r.error);
        assert_eq!(r.degradation, Degradation::CoarseGrid);
        // The expanded route really runs terminal to terminal.
        let path = r.path.as_ref().unwrap();
        assert_eq!(*path.points().first().unwrap(), p(0, 0));
        assert_eq!(*path.points().last().unwrap(), p(20, 20));
    }

    #[test]
    fn coarse_route_expands_to_valid_fine_route() {
        let _guard = FailpointGuard;
        failpoint::arm("fastpath::pop", FailAction::BudgetExhausted, 1);
        // Odd terminals force connector stubs on both ends.
        let (g, tech, lib) = setup(24);
        let nets = vec![NetSpec::combinational("odd", p(1, 1), p(21, 19))];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        let r = &plan.results()[0];
        assert_eq!(r.degradation, Degradation::CoarseGrid);
        let path = r.path.as_ref().unwrap();
        let pts = path.points();
        assert_eq!(*pts.first().unwrap(), p(1, 1));
        assert_eq!(*pts.last().unwrap(), p(21, 19));
        // Every hop is a unit grid step.
        for w in pts.windows(2) {
            assert_eq!(w[0].manhattan(w[1]), 1, "{:?} -> {:?}", w[0], w[1]);
        }
        // Terminal gates sit on the true terminals.
        assert!(path.labels().first().unwrap().is_some());
        assert!(path.labels().last().unwrap().is_some());
    }

    #[test]
    fn forced_panic_is_isolated_to_one_net() {
        let _guard = FailpointGuard;
        // Sticky panic: every fast-path attempt (optimal and coarse) of
        // the first comb net dies; the planner must survive, fall to the
        // unbuffered rung, and still route the other nets.
        failpoint::arm_sticky("fastpath::pop", FailAction::Panic, 1);
        let (g, tech, lib) = setup(16);
        let nets = vec![
            NetSpec::combinational("doomed", p(0, 0), p(15, 15)),
            NetSpec::registered("ok", p(0, 4), p(15, 4), Time::from_ps(400.0)),
        ];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        assert_eq!(plan.results()[0].degradation, Degradation::Unbuffered);
        assert!(plan.results()[1].is_routed());
        assert_eq!(plan.results()[1].degradation, Degradation::None);
    }

    #[test]
    fn panic_without_degradation_reports_search_panicked() {
        let _guard = FailpointGuard;
        failpoint::arm_sticky("fastpath::pop", FailAction::Panic, 1);
        let (g, tech, lib) = setup(16);
        let nets = vec![NetSpec::combinational("doomed", p(0, 0), p(15, 15))];
        let plan = Planner::new(g, tech, lib).degrade(false).plan(&nets);
        let r = &plan.results()[0];
        assert!(!r.is_routed());
        assert!(matches!(r.error, Some(RouteError::SearchPanicked(_))));
    }

    #[test]
    fn sticky_noroute_falls_through_to_unbuffered() {
        let _guard = FailpointGuard;
        failpoint::arm_sticky("fastpath::pop", FailAction::NoRoute, 1);
        let (g, tech, lib) = setup(16);
        let nets = vec![NetSpec::combinational("n0", p(0, 0), p(15, 15))];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        let r = &plan.results()[0];
        assert!(r.is_routed());
        assert_eq!(r.degradation, Degradation::Unbuffered);
        // The fallback is a bare wire: registers at the terminals only.
        let path = r.path.as_ref().unwrap();
        let interior_gates = path.labels()[1..path.labels().len() - 1]
            .iter()
            .filter(|l| l.is_some())
            .count();
        assert_eq!(interior_gates, 0);
    }

    #[test]
    fn tiny_real_budget_degrades_instead_of_failing() {
        // No failpoints: a genuinely tiny candidate budget trips both
        // search rungs, but the budget-free unbuffered wire still lands.
        let (g, tech, lib) = setup(24);
        let nets = vec![NetSpec::combinational("n0", p(0, 0), p(23, 23))];
        let plan = Planner::new(g, tech, lib)
            .budget(SearchBudget::unlimited().with_max_candidates(5))
            .plan(&nets);
        let r = &plan.results()[0];
        assert!(r.is_routed(), "{:?}", r.error);
        assert_eq!(r.degradation, Degradation::Unbuffered);
    }

    #[test]
    fn degrade_disabled_surfaces_budget_error() {
        let (g, tech, lib) = setup(24);
        let nets = vec![NetSpec::combinational("n0", p(0, 0), p(23, 23))];
        let plan = Planner::new(g, tech, lib)
            .budget(SearchBudget::unlimited().with_max_candidates(5))
            .degrade(false)
            .plan(&nets);
        assert!(matches!(
            plan.results()[0].error,
            Some(RouteError::BudgetExceeded {
                stage: SearchStage::FastPath,
                ..
            })
        ));
    }

    /// Six registered nets whose straight-line routes all cross the grid
    /// centre, so reservations genuinely conflict and the parallel
    /// scheduler must defer and re-route — the interesting case for the
    /// bit-identicality guarantee.
    fn crossing_nets() -> Vec<NetSpec> {
        let t = Time::from_ps(400.0);
        vec![
            NetSpec::registered("h0", p(0, 9), p(19, 9), t),
            NetSpec::registered("v0", p(9, 0), p(9, 19), t),
            NetSpec::registered("h1", p(0, 10), p(19, 10), t),
            NetSpec::registered("v1", p(10, 0), p(10, 19), t),
            NetSpec::registered("d0", p(0, 0), p(19, 19), t),
            NetSpec::registered("d1", p(0, 19), p(19, 0), t),
        ]
    }

    #[test]
    fn parallel_plan_is_bit_identical_under_conflicts() {
        let (g, tech, lib) = setup(20);
        let nets = crossing_nets();
        let run = |jobs: usize| {
            Planner::new(g.clone(), tech, lib.clone())
                .jobs(jobs)
                .plan(&nets)
        };
        let sequential = run(1);
        // The congested centre may degrade or fail late nets — those
        // outcomes must be reproduced bit for bit too.
        assert!(sequential.routed().count() >= 4);
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(4));
    }

    #[test]
    fn parallel_plan_without_reservation_matches() {
        // With reservation off there are no conflicts at all; every round
        // commits its whole window.
        let (g, tech, lib) = setup(20);
        let nets = crossing_nets();
        let run = |jobs: usize| {
            Planner::new(g.clone(), tech, lib.clone())
                .reserve_routes(false)
                .jobs(jobs)
                .plan(&nets)
        };
        assert_eq!(run(1), run(4));
    }

    #[test]
    fn worker_panic_lands_on_degradation_ladder() {
        let _guard = FailpointGuard;
        // Sticky panic in the fast-path search: every comb net dies on
        // both search rungs, on whatever worker thread routed it, and
        // must still come back as an unbuffered fallback.
        failpoint::arm_sticky("fastpath::pop", FailAction::Panic, 1);
        let (g, tech, lib) = setup(16);
        let nets = vec![
            NetSpec::combinational("doomed0", p(0, 0), p(15, 2)),
            NetSpec::combinational("doomed1", p(0, 6), p(15, 8)),
            NetSpec::registered("ok", p(0, 12), p(15, 14), Time::from_ps(400.0)),
        ];
        let plan = Planner::new(g, tech, lib).jobs(4).plan(&nets);
        assert_eq!(plan.results()[0].degradation, Degradation::Unbuffered);
        assert_eq!(plan.results()[1].degradation, Degradation::Unbuffered);
        assert_eq!(plan.results()[2].degradation, Degradation::None);
    }

    #[test]
    fn one_shot_failpoint_fires_per_net_in_parallel_mode() {
        let _guard = FailpointGuard;
        let (g, tech, lib) = setup(24);
        let nets = vec![
            NetSpec::combinational("a", p(0, 0), p(20, 2)),
            NetSpec::combinational("b", p(0, 8), p(20, 10)),
        ];
        let degradations = |jobs: usize| {
            failpoint::disarm_all();
            failpoint::arm("fastpath::pop", FailAction::NoRoute, 1);
            let plan = Planner::new(g.clone(), tech, lib.clone())
                .reserve_routes(false)
                .jobs(jobs)
                .plan(&nets);
            plan.results()
                .iter()
                .map(|r| r.degradation)
                .collect::<Vec<_>>()
        };
        // `@1` one-shot. The parallel contract re-arms the snapshot per
        // net, so *every* net's optimal rung fails once and lands on the
        // coarse rung — deterministic regardless of worker scheduling.
        assert_eq!(degradations(2), [Degradation::CoarseGrid; 2]);
        // `jobs` 1 routes inline under the caller's registry: the count
        // is global, so only the first net's first pop fires.
        assert_eq!(
            degradations(1),
            [Degradation::CoarseGrid, Degradation::None]
        );
    }

    #[test]
    fn planner_types_cross_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Planner>();
        assert_send_sync::<Plan>();
        assert_send_sync::<NetResult>();
        assert_send_sync::<NetSpec>();
        assert_send_sync::<SharedTelemetry>();
    }

    #[test]
    fn zero_length_net_routes_trivially() {
        let (g, tech, lib) = setup(12);
        let nets = vec![
            NetSpec::combinational("comb0", p(3, 3), p(3, 3)),
            NetSpec::registered("reg0", p(5, 5), p(5, 5), Time::from_ps(400.0)),
            NetSpec::gals(
                "gals0",
                p(7, 7),
                p(7, 7),
                Time::from_ps(300.0),
                Time::from_ps(400.0),
            ),
        ];
        let plan = Planner::new(g, tech, lib).plan(&nets);
        assert_eq!(plan.routed().count(), 3);
        for r in plan.results() {
            assert_eq!(r.degradation, Degradation::None);
            let path = r.path.as_ref().unwrap();
            assert_eq!(path.points().len(), 1);
            assert_eq!(r.wirelength, Some(Length::ZERO));
        }
        assert_eq!(plan.results()[0].latency, Some(Time::ZERO));
        assert_eq!(plan.results()[0].cycles, Some(1));
        assert_eq!(plan.results()[1].latency, Some(Time::from_ps(400.0)));
        assert_eq!(plan.results()[2].latency, Some(Time::from_ps(700.0)));
        assert_eq!(plan.results()[2].cycles, Some(2));
    }

    #[test]
    fn zero_length_net_participates_in_parallel_commit() {
        // A zero-length net carries a degenerate point footprint, so it
        // commits through the normal conflict check (not the always-
        // conflict path for untracked footprints) and the parallel plan
        // stays bit-identical.
        let (g, tech, lib) = setup(20);
        let t = Time::from_ps(400.0);
        let nets = vec![
            NetSpec::registered("h0", p(0, 9), p(19, 9), t),
            NetSpec::registered("z0", p(5, 15), p(5, 15), t),
            NetSpec::registered("v0", p(9, 0), p(9, 19), t),
            NetSpec::registered("z1", p(9, 10), p(9, 10), t),
        ];
        let run = |jobs: usize| {
            Planner::new(g.clone(), tech, lib.clone())
                .jobs(jobs)
                .plan(&nets)
        };
        let sequential = run(1);
        assert!(sequential.results()[1].is_routed());
        assert!(sequential.results()[3].is_routed());
        assert_eq!(sequential, run(2));
        assert_eq!(sequential, run(4));
    }

    #[test]
    fn traced_plan_matches_plain_plan_and_carries_footprints() {
        let (g, tech, lib) = setup(20);
        let nets = crossing_nets();
        let plain = Planner::new(g.clone(), tech, lib.clone()).plan(&nets);
        let traced = Planner::new(g, tech, lib).plan_traced(&nets);
        assert_eq!(&plain, traced.plan());
        assert_eq!(traced.footprints().len(), nets.len());
        // Undegraded successes carry footprints; everything else None.
        for (r, fp) in traced.plan().results().iter().zip(traced.footprints()) {
            assert_eq!(
                fp.is_some(),
                r.is_routed() && r.degradation == Degradation::None,
                "{}",
                r.name
            );
        }
    }

    /// Blocks every node/edge of a rect on a copy of the grid and
    /// returns the new graph plus the dirtied points.
    fn block_rect(g: &GridGraph, x0: u32, y0: u32, x1: u32, y1: u32) -> (GridGraph, Vec<Point>) {
        let mut g2 = g.clone();
        let mut dirty = Vec::new();
        for y in y0..=y1 {
            for x in x0..=x1 {
                let pt = p(x, y);
                g2.blockage_mut().block_node(pt);
                dirty.push(pt);
            }
        }
        (g2, dirty)
    }

    #[test]
    fn warm_start_far_delta_reuses_and_matches_cold() {
        let (g, tech, lib) = setup(20);
        let t = Time::from_ps(400.0);
        // Nets confined to the left half; the delta lands far right.
        let nets = vec![
            NetSpec::registered("a", p(0, 2), p(8, 2), t),
            NetSpec::registered("b", p(0, 6), p(8, 6), t),
            NetSpec::combinational("c", p(0, 10), p(8, 10)),
        ];
        let prior = Planner::new(g.clone(), tech, lib.clone()).plan_traced(&nets);
        let (g2, dirty) = block_rect(&g, 17, 15, 19, 19);
        let cold = Planner::new(g2.clone(), tech, lib.clone()).plan_traced(&nets);
        let recorder = Arc::new(MetricsRecorder::new());
        let warm = Planner::new(g2, tech, lib)
            .telemetry(SharedTelemetry::new(recorder.clone()))
            .plan_warm(&nets, &prior, &dirty);
        assert_eq!(cold.plan(), warm.plan());
        assert_eq!(cold.footprints(), warm.footprints());
        // Search footprints are over-approximations (arena bounding
        // boxes), so not every net clears the delta — but at least one
        // must, and every net is either reused or re-routed.
        let reused = recorder.counter_value("plan.warm.reused");
        let rerouted = recorder.counter_value("plan.warm.rerouted");
        assert!(reused >= 1, "reused {reused}");
        assert_eq!(reused + rerouted, 3);
    }

    #[test]
    fn warm_start_conflicting_delta_reroutes_and_matches_cold() {
        let (g, tech, lib) = setup(20);
        let t = Time::from_ps(400.0);
        let nets = vec![
            NetSpec::registered("hit", p(0, 10), p(19, 10), t),
            NetSpec::registered("near", p(0, 11), p(19, 11), t),
            NetSpec::registered("far", p(0, 2), p(19, 2), t),
        ];
        let prior = Planner::new(g.clone(), tech, lib.clone()).plan_traced(&nets);
        // Block part of the straight row the first net used, forcing a
        // detour that may in turn disturb its neighbour.
        let (g2, dirty) = block_rect(&g, 8, 10, 10, 10);
        let cold = Planner::new(g2.clone(), tech, lib.clone()).plan_traced(&nets);
        let recorder = Arc::new(MetricsRecorder::new());
        let warm = Planner::new(g2, tech, lib)
            .telemetry(SharedTelemetry::new(recorder.clone()))
            .plan_warm(&nets, &prior, &dirty);
        assert_eq!(cold.plan(), warm.plan());
        assert!(recorder.counter_value("plan.warm.rerouted") >= 1);
        // The detoured route differs from the prior one.
        assert_ne!(
            prior.plan().results()[0].path,
            warm.plan().results()[0].path
        );
    }

    #[test]
    fn warm_start_dirty_set_grows_with_changed_routes() {
        // Each block moves the first net's route next to a later net whose
        // prior footprint clears the block itself. Only the dirty set's
        // growth by the first net's old and new routes stops a reuse from
        // a grid where that route was elsewhere. In the first case the
        // first net moves from column 9 onto column 7, beside `n2`'s
        // footprint (columns 5–6). In the second, `n1` is cached when its
        // parallel round opens, so only the check at its turn catches it.
        let (g, tech, lib) = setup(16);
        let t = Time::from_ps(400.0);
        let cases = [
            (
                vec![
                    NetSpec::registered("n0", p(9, 1), p(5, 11), t),
                    NetSpec::combinational("n1", p(3, 14), p(14, 5)),
                    NetSpec::registered("n2", p(6, 13), p(5, 3), t),
                ],
                (8, 2, 11, 6),
            ),
            (
                vec![
                    NetSpec::combinational("n0", p(12, 13), p(3, 0)),
                    NetSpec::registered("n1", p(12, 1), p(11, 2), t),
                ],
                (12, 7, 12, 8),
            ),
        ];
        for (nets, (x0, y0, x1, y1)) in cases {
            let prior = Planner::new(g.clone(), tech, lib.clone()).plan_traced(&nets);
            let (g2, dirty) = block_rect(&g, x0, y0, x1, y1);
            let cold = Planner::new(g2.clone(), tech, lib.clone()).plan_traced(&nets);
            for jobs in [1, 4] {
                let warm = Planner::new(g2.clone(), tech, lib.clone())
                    .jobs(jobs)
                    .plan_warm(&nets, &prior, &dirty);
                assert_eq!(cold, warm, "block at ({x0}, {y0}), jobs {jobs}");
            }
        }
    }

    #[test]
    fn warm_start_with_mismatched_prior_falls_back_to_cold() {
        let (g, tech, lib) = setup(12);
        let t = Time::from_ps(400.0);
        let nets_a = vec![NetSpec::registered("a", p(0, 2), p(11, 2), t)];
        let nets_b = vec![NetSpec::registered("b", p(0, 4), p(11, 4), t)];
        let prior = Planner::new(g.clone(), tech, lib.clone()).plan_traced(&nets_a);
        let cold = Planner::new(g.clone(), tech, lib.clone()).plan_traced(&nets_b);
        let warm = Planner::new(g, tech, lib).plan_warm(&nets_b, &prior, &[]);
        assert_eq!(cold, warm);
    }

    #[test]
    fn warm_start_empty_delta_reproduces_prior() {
        let (g, tech, lib) = setup(20);
        let nets = crossing_nets();
        let prior = Planner::new(g.clone(), tech, lib.clone()).plan_traced(&nets);
        let warm = Planner::new(g, tech, lib).plan_warm(&nets, &prior, &[]);
        assert_eq!(prior.plan(), warm.plan());
    }

    #[test]
    fn metrics_are_identical_across_job_counts() {
        let (g, tech, lib) = setup(20);
        let nets = crossing_nets();
        let run = |jobs: usize| {
            let recorder = Arc::new(MetricsRecorder::new());
            let plan = Planner::new(g.clone(), tech, lib.clone())
                .jobs(jobs)
                .telemetry(SharedTelemetry::new(recorder.clone()))
                .plan(&nets);
            (plan, recorder.to_json())
        };
        let (plan1, json1) = run(1);
        let (plan4, json4) = run(4);
        assert_eq!(plan1, plan4);
        assert_eq!(json1, json4, "metrics JSON must not depend on --jobs");
        assert!(json1.contains("\"plan.nets.routed\""));
        assert!(json1.contains("\"search.rbp.pops\""));
        clockroute_core::json::validate_json(&json1).expect("valid JSON");
    }

    #[test]
    fn discarded_speculative_attempts_leave_no_metrics() {
        // Sequential counters are the ground truth; with conflicts forcing
        // re-routes at jobs=4, discarded shards must not inflate them.
        let (g, tech, lib) = setup(20);
        let nets = crossing_nets();
        let count = |jobs: usize| {
            let recorder = Arc::new(MetricsRecorder::new());
            Planner::new(g.clone(), tech, lib.clone())
                .jobs(jobs)
                .telemetry(SharedTelemetry::new(recorder.clone()))
                .plan(&nets);
            (
                recorder.counter_value("search.rbp.solves"),
                recorder.counter_value("plan.nets.routed"),
            )
        };
        assert_eq!(count(1), count(4));
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

        /// Core guarantee of the scheduler: for random small batches, the
        /// parallel output is bit-identical to the `jobs` 1 pass at every
        /// job count, with reservation both on and off — cold, and warm
        /// after a random grid change.
        #[test]
        fn parallel_plan_matches_sequential(
            seeds in proptest::collection::vec((0u32..12, 0u32..12, 0u32..12, 0u32..12, 0u8..3), 1..6),
            reserve_bit in 0u8..2,
            bx in 0u32..11,
            by in 0u32..11,
        ) {
            let reserve = reserve_bit == 1;
            let (g, tech, lib) = setup(12);
            let nets: Vec<NetSpec> = seeds
                .iter()
                .enumerate()
                .map(|(i, &(sx, sy, tx, ty, kind))| {
                    let name = format!("n{i}");
                    match kind {
                        0 => NetSpec::combinational(&name, p(sx, sy), p(tx, ty)),
                        1 => NetSpec::registered(&name, p(sx, sy), p(tx, ty), Time::from_ps(400.0)),
                        _ => NetSpec::gals(&name, p(sx, sy), p(tx, ty),
                                           Time::from_ps(300.0), Time::from_ps(400.0)),
                    }
                })
                .collect();
            let run = |jobs: usize| {
                Planner::new(g.clone(), tech, lib.clone())
                    .reserve_routes(reserve)
                    .jobs(jobs)
                    .plan(&nets)
            };
            let sequential = run(1);
            prop_assert_eq!(&sequential, &run(2));
            prop_assert_eq!(&sequential, &run(4));

            // Warm leg: a 2×2 block lands somewhere; every job count must
            // reproduce the cold plan and footprints, and reuse the same
            // nets (the counters are emitted at commit).
            let traced = |g: &GridGraph| {
                Planner::new(g.clone(), tech, lib.clone())
                    .reserve_routes(reserve)
                    .plan_traced(&nets)
            };
            let prior = traced(&g);
            let (g2, dirty) = block_rect(&g, bx, by, bx + 1, by + 1);
            let cold = traced(&g2);
            let mut reused = Vec::new();
            for jobs in [1, 2, 4] {
                let recorder = Arc::new(MetricsRecorder::new());
                let warm = Planner::new(g2.clone(), tech, lib.clone())
                    .reserve_routes(reserve)
                    .jobs(jobs)
                    .telemetry(SharedTelemetry::new(recorder.clone()))
                    .plan_warm(&nets, &prior, &dirty);
                prop_assert_eq!(cold.plan(), warm.plan());
                prop_assert_eq!(cold.footprints(), warm.footprints());
                let hits = recorder.counter_value("plan.warm.reused");
                let misses = recorder.counter_value("plan.warm.rerouted");
                prop_assert_eq!(hits + misses, nets.len() as u64);
                reused.push(hits);
            }
            prop_assert!(reused.iter().all(|&r| r == reused[0]), "reused {:?}", reused);
        }

        /// Whenever the optimal rung is forced to fail, a routed result
        /// must carry a non-`None` degradation marker — fallbacks never
        /// masquerade as first-class routes.
        #[test]
        fn fallback_routes_are_always_marked(sx in 0u32..12, sy in 0u32..12,
                                             tx in 0u32..12, ty in 0u32..12) {
            let _guard = FailpointGuard;
            failpoint::arm("fastpath::pop", FailAction::NoRoute, 1);
            let (g, tech, lib) = setup(12);
            let nets = vec![NetSpec::combinational("n", p(sx, sy), p(tx, ty))];
            let plan = Planner::new(g, tech, lib).plan(&nets);
            let r = &plan.results()[0];
            if r.is_routed() {
                prop_assert_ne!(r.degradation, Degradation::None);
                prop_assert!(r.is_degraded());
            } else {
                prop_assert_eq!(r.degradation, Degradation::None);
            }
        }
    }
}
