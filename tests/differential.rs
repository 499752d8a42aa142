//! Differential fuzz suite: production searches vs the exhaustive oracles
//! and a golden counter table.
//!
//! Generates 200+ tiny random scenarios (grids up to 4×4 with random node
//! and edge blockages, random pitch, random wire technology, random clock
//! periods) from fixed seeds, then checks two things. First, that the
//! fast-path, RBP and GALS searches agree *exactly* with the brute-force
//! oracles in `clockroute::core::reference` — same feasibility verdict,
//! same optimal value. Second, that every search's route, value and
//! counters on every scenario equal the rows of
//! `tests/golden/arena_counters.txt`, so a change that moves a route or
//! a counter fails here even when the optimum survives. Seeds are
//! deterministic (`BASE_SEED + index`), so a failure reproduces by
//! running the suite again; the panic message carries the full scenario
//! dump needed to rebuild the failing instance by hand.

use clockroute::core::{reference, LatchSpec, MetricsRecorder, TelemetryHandle, TieBreak};
use clockroute::geom::units::{CapPerLength, ResPerLength};
use clockroute::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// First seed of the suite; instance `i` uses `BASE_SEED + i`.
const BASE_SEED: u64 = 0xC10C_0D1F;

/// Number of random scenarios (the issue floor is 200).
const INSTANCES: u64 = 200;

/// Everything needed to rebuild one fuzz instance by hand.
#[derive(Debug, Clone)]
struct Scenario {
    seed: u64,
    width: u32,
    height: u32,
    pitch_um: f64,
    res_ohms_per_um: f64,
    cap_ff_per_um: f64,
    period_ps: f64,
    sink_period_ps: f64,
    source: (u32, u32),
    sink: (u32, u32),
    blocked_nodes: Vec<(u32, u32)>,
    blocked_edges: Vec<((u32, u32), (u32, u32))>,
}

impl Scenario {
    fn generate(seed: u64) -> Scenario {
        let mut rng = StdRng::seed_from_u64(seed);
        let width = rng.gen_range(2u32..=4);
        let height = rng.gen_range(2u32..=4);
        let pitch_um = rng.gen_range(300.0f64..2000.0);
        // Sweep the technology around the paper's 0.07 µm point so the
        // oracles are exercised on more than one calibration.
        let res_ohms_per_um = rng.gen_range(0.5f64..3.0);
        let cap_ff_per_um = rng.gen_range(0.005f64..0.03);
        let period_ps = rng.gen_range(60.0f64..800.0);
        let sink_period_ps = rng.gen_range(60.0f64..800.0);

        let pick = |rng: &mut StdRng| (rng.gen_range(0..width), rng.gen_range(0..height));
        let source = pick(&mut rng);
        let sink = loop {
            let p = pick(&mut rng);
            if p != source {
                break p;
            }
        };

        let mut blocked_nodes = Vec::new();
        for _ in 0..rng.gen_range(0usize..=(width * height / 4) as usize) {
            let p = pick(&mut rng);
            if p != source && p != sink {
                blocked_nodes.push(p);
            }
        }
        // Random wiring blockages; these may disconnect the terminals, in
        // which case solver and oracle must both report infeasibility.
        let mut blocked_edges = Vec::new();
        for _ in 0..rng.gen_range(0usize..=(width * height / 4) as usize) {
            let (x, y) = pick(&mut rng);
            let to = if rng.gen_range(0u32..2) == 0 && x + 1 < width {
                (x + 1, y)
            } else if y + 1 < height {
                (x, y + 1)
            } else if x + 1 < width {
                (x + 1, y)
            } else {
                continue;
            };
            blocked_edges.push(((x, y), to));
        }

        Scenario {
            seed,
            width,
            height,
            pitch_um,
            res_ohms_per_um,
            cap_ff_per_um,
            period_ps,
            sink_period_ps,
            source,
            sink,
            blocked_nodes,
            blocked_edges,
        }
    }

    fn graph(&self) -> GridGraph {
        let mut blk = BlockageMap::new(self.width, self.height);
        for &(x, y) in &self.blocked_nodes {
            blk.block_node(Point::new(x, y));
        }
        for &((ax, ay), (bx, by)) in &self.blocked_edges {
            blk.block_edge(Point::new(ax, ay), Point::new(bx, by));
        }
        GridGraph::new(
            blk,
            Length::from_um(self.pitch_um),
            Length::from_um(self.pitch_um),
        )
    }

    fn tech(&self) -> Technology {
        Technology::new(
            ResPerLength::from_ohms_per_um(self.res_ohms_per_um),
            CapPerLength::from_ff_per_um(self.cap_ff_per_um),
        )
    }

    fn source(&self) -> Point {
        Point::new(self.source.0, self.source.1)
    }

    fn sink(&self) -> Point {
        Point::new(self.sink.0, self.sink.1)
    }

    /// Longest simple path on the grid — the oracle bound that makes the
    /// brute force a true global optimum.
    fn max_edges(&self) -> usize {
        (self.width * self.height - 1) as usize
    }
}

/// `Ok(a) ~ Ok(b)` within eps, or both `NoFeasibleRoute`.
fn assert_same_time(
    scenario: &Scenario,
    what: &str,
    got: Result<Time, RouteError>,
    want: Result<Time, RouteError>,
) {
    match (&got, &want) {
        (Ok(a), Ok(b)) if (a.ps() - b.ps()).abs() < 1e-6 => {}
        (Err(RouteError::NoFeasibleRoute), Err(RouteError::NoFeasibleRoute)) => {}
        _ => panic!(
            "{what} diverged: solver {got:?} vs oracle {want:?}\n\
             reproduce with: {scenario:#?}"
        ),
    }
}

#[test]
fn fastpath_matches_oracle_on_random_scenarios() {
    let lib = GateLibrary::paper_library();
    for i in 0..INSTANCES {
        let sc = Scenario::generate(BASE_SEED + i);
        let g = sc.graph();
        let tech = sc.tech();
        let sol = FastPathSpec::new(&g, &tech, &lib)
            .source(sc.source())
            .sink(sc.sink())
            .solve();
        let oracle = reference::min_delay_exhaustive(
            &g,
            &tech,
            &lib,
            sc.source(),
            sc.sink(),
            sc.max_edges(),
        );
        assert_same_time(&sc, "fastpath", sol.map(|s| s.delay()), oracle);
    }
}

#[test]
fn rbp_matches_oracle_on_random_scenarios() {
    let lib = GateLibrary::paper_library();
    for i in 0..INSTANCES {
        let sc = Scenario::generate(BASE_SEED + i);
        let g = sc.graph();
        let tech = sc.tech();
        let t = Time::from_ps(sc.period_ps);
        let sol = RbpSpec::new(&g, &tech, &lib)
            .source(sc.source())
            .sink(sc.sink())
            .period(t)
            .solve();
        let oracle = reference::min_registers_exhaustive(
            &g,
            &tech,
            &lib,
            sc.source(),
            sc.sink(),
            t,
            sc.max_edges(),
        );
        match (&sol, &oracle) {
            (Ok(s), Ok(best)) if s.register_count() == *best => {}
            (Err(RouteError::NoFeasibleRoute), Err(RouteError::NoFeasibleRoute)) => {}
            _ => panic!(
                "rbp diverged: solver {:?} vs oracle {oracle:?}\n\
                 reproduce with: {sc:#?}",
                sol.map(|s| s.register_count()),
            ),
        }
    }
}

#[test]
fn gals_never_worse_than_oracle_on_random_scenarios() {
    // The GALS oracle enumerates *simple* paths only, but the production
    // search legally routes non-simple detours (out to a FIFO site and
    // back — `GridPath::validate` allows node revisits), which on tiny
    // blocked grids can strictly beat every simple path or rescue an
    // instance with no simple-path solution at all. So the differential
    // contract is one-sided: the solver must never be worse than the
    // oracle, and every strictly-better or rescued solution must be a
    // non-simple path that passes the ground-truth feasibility report.
    let lib = GateLibrary::paper_library();
    let (mut checked, mut exact) = (0u32, 0u32);
    for i in 0..INSTANCES {
        let sc = Scenario::generate(BASE_SEED + i);
        // The GALS oracle also enumerates every MCFIFO position, so keep
        // it to grids where the full bound stays cheap.
        if sc.width * sc.height > 12 {
            continue;
        }
        checked += 1;
        let g = sc.graph();
        let tech = sc.tech();
        let ts = Time::from_ps(sc.period_ps);
        let tt = Time::from_ps(sc.sink_period_ps);
        let sol = GalsSpec::new(&g, &tech, &lib)
            .source(sc.source())
            .sink(sc.sink())
            .periods(ts, tt)
            .solve();
        let oracle = reference::min_gals_latency_exhaustive(
            &g,
            &tech,
            &lib,
            sc.source(),
            sc.sink(),
            ts,
            tt,
            sc.max_edges(),
        );
        match (&sol, &oracle) {
            (Ok(s), Ok(best)) if (s.latency().ps() - best.ps()).abs() < 1e-6 => exact += 1,
            (Ok(s), oracle_out) => {
                let better = match oracle_out {
                    Ok(best) => s.latency().ps() < best.ps() - 1e-6,
                    Err(RouteError::NoFeasibleRoute) => true,
                    Err(e) => panic!("oracle error {e:?}\nreproduce with: {sc:#?}"),
                };
                assert!(
                    better,
                    "gals worse than oracle: solver {:?} vs {oracle_out:?}\n\
                     reproduce with: {sc:#?}",
                    s.latency()
                );
                let points = s.path().grid_path();
                let mut sorted = points.points().to_vec();
                sorted.sort_unstable_by_key(|p| (p.x, p.y));
                sorted.dedup();
                assert!(
                    sorted.len() < points.points().len(),
                    "gals beat the simple-path oracle with a simple path — \
                     the oracle covers that path, so one of them is wrong: \
                     solver {:?} vs {oracle_out:?}\nreproduce with: {sc:#?}",
                    s.latency()
                );
                // Ground truth, independent of the search internals.
                assert!(points.validate(&g).is_ok(), "reproduce with: {sc:#?}");
                let report = s.path().report(&g, &tech, &lib);
                assert!(
                    report.is_feasible_gals(
                        Time::from_ps(ts.ps() + 1e-9),
                        Time::from_ps(tt.ps() + 1e-9)
                    ),
                    "infeasible stages {:?}\nreproduce with: {sc:#?}",
                    report.stages
                );
            }
            (Err(RouteError::NoFeasibleRoute), Err(RouteError::NoFeasibleRoute)) => exact += 1,
            (Err(e), oracle_out) => panic!(
                "gals diverged: solver Err({e:?}) vs oracle {oracle_out:?}\n\
                 reproduce with: {sc:#?}"
            ),
        }
    }
    assert!(checked >= 50, "GALS sample too small: {checked}");
    // The non-simple escape hatch must stay the exception, not the rule.
    assert!(exact * 2 > checked, "only {exact}/{checked} exact matches");
}

/// Golden counter table of the searches: one row per (seed,
/// search) over the 200-seed corpus. See the header of the file for
/// the column layout.
const ARENA_COUNTERS: &str = include_str!("golden/arena_counters.txt");

/// One golden row: the instance index, the search, its result (value
/// and routed path, or the error) and every `SearchStats` field. The
/// counters are read back through telemetry so that failed searches,
/// which return no stats, are pinned too; `touched` is only reported
/// with a route.
fn counter_row<T>(
    i: u64,
    search: &str,
    rec: &MetricsRecorder,
    out: Result<T, RouteError>,
    result: impl Fn(&T) -> (String, &RoutedPath, &SearchStats),
) -> String {
    let stage = search.split('_').next().expect("search name");
    let c = |name: &str| rec.counter_value(&format!("search.{stage}.{name}"));
    let (outcome, touched) = match &out {
        Ok(sol) => {
            let (value, path, stats) = result(sol);
            let route: Vec<String> = path
                .points()
                .iter()
                .zip(path.labels())
                .map(|(p, g)| match g {
                    Some(g) => format!("{},{}:{g}", p.x, p.y),
                    None => format!("{},{}", p.x, p.y),
                })
                .collect();
            let touched = stats.touched.map_or("-".to_string(), |r| {
                format!("{},{},{},{}", r.min_x, r.min_y, r.max_x, r.max_y)
            });
            (format!("ok {value} {}", route.join(" ")), touched)
        }
        Err(e) => (format!("err {e:?}"), "-".to_string()),
    };
    format!(
        "{i} {search} {outcome} | {} {} {} {} {} {} {} {} {} {} {} {} {touched}",
        c("pops"),
        rec.gauge_value(&format!("search.{stage}.max_queue")),
        c("pushed"),
        c("pruned"),
        c("bound_rejected"),
        c("waves"),
        c("stale_skipped"),
        c("promoted"),
        c("arena_steps"),
        c("budget_charges"),
        c("goal_pruned"),
        c("front_comparisons"),
    )
}

/// Every counter of every search on the 200-seed corpus, pinned
/// exactly against a checked-in table: fast path and RBP with goal
/// pruning on and off, RBP with the slack tie-break, GALS and latch,
/// feasible and infeasible. The oracle tests above pin optimal values;
/// this one pins the routes themselves and stops a change to the
/// searches from silently moving `pushed`, `pruned`, `goal_pruned`,
/// `front_comparisons`, `max_queue` or any other counter.
#[test]
fn arena_counters_match_golden_table() {
    let lib = GateLibrary::paper_library();
    let mut rows = Vec::new();
    for i in 0..INSTANCES {
        let sc = Scenario::generate(BASE_SEED + i);
        let g = sc.graph();
        let tech = sc.tech();
        let t = Time::from_ps(sc.period_ps);
        let tt = Time::from_ps(sc.sink_period_ps);

        for goal in [true, false] {
            let rec = MetricsRecorder::new();
            let out = FastPathSpec::new(&g, &tech, &lib)
                .source(sc.source())
                .sink(sc.sink())
                .goal_prune(goal)
                .telemetry(TelemetryHandle::new(&rec))
                .solve();
            let name = if goal { "fastpath" } else { "fastpath_nogoal" };
            rows.push(counter_row(i, name, &rec, out, |s| {
                (format!("{:?}", s.delay().ps()), s.path(), s.stats())
            }));
        }
        let (first, slack) = (TieBreak::FirstFound, TieBreak::MaxEndpointSlack);
        // `rbp_array_slack` keeps the label of the paper's queue-array
        // organisation, which ran exactly like plain RBP.
        for (name, goal, tie) in [
            ("rbp", true, first),
            ("rbp_nogoal", false, first),
            ("rbp_array_slack", true, slack),
        ] {
            let rec = MetricsRecorder::new();
            let out = RbpSpec::new(&g, &tech, &lib)
                .source(sc.source())
                .sink(sc.sink())
                .period(t)
                .goal_prune(goal)
                .tie_break(tie)
                .telemetry(TelemetryHandle::new(&rec))
                .solve();
            rows.push(counter_row(i, name, &rec, out, |s| {
                let slack = (s.source_slack().ps(), s.sink_slack().ps());
                (format!("{:?}/{:?}", slack.0, slack.1), s.path(), s.stats())
            }));
        }
        let rec = MetricsRecorder::new();
        let out = GalsSpec::new(&g, &tech, &lib)
            .source(sc.source())
            .sink(sc.sink())
            .periods(t, tt)
            .telemetry(TelemetryHandle::new(&rec))
            .solve();
        rows.push(counter_row(i, "gals", &rec, out, |s| {
            (format!("{:?}", s.latency().ps()), s.path(), s.stats())
        }));
        let rec = MetricsRecorder::new();
        let out = LatchSpec::new(&g, &tech, &lib)
            .source(sc.source())
            .sink(sc.sink())
            .period(t)
            .borrow_window(Time::from_ps(sc.sink_period_ps * 0.25))
            .telemetry(TelemetryHandle::new(&rec))
            .solve();
        rows.push(counter_row(i, "latch", &rec, out, |s| {
            (format!("{:?}", s.latency().ps()), s.path(), s.stats())
        }));
    }

    let golden: Vec<&str> = ARENA_COUNTERS
        .lines()
        .filter(|l| !l.starts_with('#'))
        .collect();
    for (row, want) in rows.iter().zip(&golden) {
        if row != want {
            let mut key = row.split(' ');
            let i: u64 = key.next().and_then(|k| k.parse().ok()).expect("row index");
            let search = key.next().expect("row search");
            panic!(
                "arena counters diverged at seed {} ({search}):\n  got  {row}\n  want {want}\n\
                 reproduce with: {:#?}",
                BASE_SEED + i,
                Scenario::generate(BASE_SEED + i)
            );
        }
    }
    assert_eq!(rows.len(), golden.len(), "golden table row count");
}

#[test]
fn scenario_generation_is_deterministic() {
    // The whole suite's reproducibility rests on this: the same seed must
    // always produce the same scenario.
    for seed in [BASE_SEED, BASE_SEED + 77, BASE_SEED + 199] {
        let a = Scenario::generate(seed);
        let b = Scenario::generate(seed);
        assert_eq!(a.seed, seed);
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
    }
}
