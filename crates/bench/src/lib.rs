//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§V) and prints paper-vs-measured comparisons.
//!
//! The experimental setup follows §V exactly: estimated 0.07 µm
//! technology parameters, a single 100×-minimum-width buffer, register and
//! MCFIFO delay characteristics identical to the buffer, a 25 mm × 25 mm
//! chip, and source/sink placed 40 mm apart (Manhattan). Grids of
//! 50×50 / 100×100 / 200×200 give the paper's 0.5 / 0.25 / 0.125 mm
//! separations.
//!
//! | Paper artifact | Generator |
//! |----------------|-----------|
//! | Table I        | [`table1`] (`cargo run --release -p clockroute-bench --bin table1`) |
//! | Table II       | `table1` per grid size (`… --bin table2`) |
//! | Table III      | [`table3`] (`… --bin table3`) |
//! | Figs. 3/6/11   | `… --bin figures` |
//!
//! Each generator also evaluates the paper's qualitative *observations*
//! (§V-A obs. 1–3, §V-B obs. 1–4) against the measured data and prints a
//! verdict, so a regression in the algorithms shows up as a failed trend,
//! not just different numbers.

#![cfg_attr(test, allow(clippy::disallowed_methods, clippy::disallowed_types))]

use clockroute_core::{FastPathSpec, GalsSpec, MetricsRecorder, RbpSpec, TelemetryHandle};
use clockroute_elmore::{GateLibrary, Technology};
use clockroute_geom::units::{Length, Time};
use clockroute_geom::{Floorplan, Point};
use clockroute_grid::GridGraph;
use std::time::Instant;

/// The clock periods of Table I/II, in ps. `None` encodes `T_φ = ∞`
/// (the fast path row).
pub const PAPER_PERIODS: [Option<f64>; 14] = [
    None,
    Some(1371.0),
    Some(925.0),
    Some(686.0),
    Some(551.0),
    Some(463.0),
    Some(398.0),
    Some(343.0),
    Some(261.0),
    Some(84.0),
    Some(67.0),
    Some(62.0),
    Some(53.0),
    Some(49.0),
];

/// Paper Table I reference values: `(period, latency, registers, buffers)`
/// (200×200 grid). Used for the side-by-side comparison columns.
pub const PAPER_TABLE1: [(Option<f64>, f64, usize, usize); 14] = [
    (None, 2739.0, 0, 16),
    (Some(1371.0), 2742.0, 1, 14),
    (Some(925.0), 2775.0, 2, 14),
    (Some(686.0), 2744.0, 3, 12),
    (Some(551.0), 2755.0, 4, 10),
    (Some(463.0), 2778.0, 5, 11),
    (Some(398.0), 2786.0, 6, 7),
    (Some(343.0), 2744.0, 7, 8),
    (Some(261.0), 2871.0, 10, 10),
    (Some(84.0), 3360.0, 39, 0),
    (Some(67.0), 4288.0, 63, 0),
    (Some(62.0), 4960.0, 79, 0),
    (Some(53.0), 8480.0, 159, 0),
    (Some(49.0), 15680.0, 319, 0),
];

/// Paper Table II reference values for the 0.5 mm (50×50) grid:
/// `(period, latency, registers, buffers)`; `latency = NaN` encodes the
/// paper's empty (infeasible) cells.
pub const PAPER_TABLE2_050: [(Option<f64>, f64, usize, usize); 14] = [
    (None, 2741.0, 0, 15),
    (Some(1371.0), 2742.0, 1, 14),
    (Some(925.0), 3700.0, 3, 12),
    (Some(686.0), 2744.0, 3, 12),
    (Some(551.0), 3306.0, 5, 10),
    (Some(463.0), 3241.0, 6, 6),
    (Some(398.0), 3184.0, 7, 7),
    (Some(343.0), 2744.0, 7, 8),
    (Some(261.0), 3132.0, 11, 0),
    (Some(84.0), 3360.0, 39, 0),
    (Some(67.0), 5360.0, 79, 0),
    (Some(62.0), 4960.0, 79, 0),
    (Some(53.0), f64::NAN, 0, 0),
    (Some(49.0), f64::NAN, 0, 0),
];

/// Paper Table II reference values for the 0.25 mm (100×100) grid.
pub const PAPER_TABLE2_025: [(Option<f64>, f64, usize, usize); 14] = [
    (None, 2740.0, 0, 16),
    (Some(1371.0), 2742.0, 1, 14),
    (Some(925.0), 2775.0, 2, 14),
    (Some(686.0), 2744.0, 3, 12),
    (Some(551.0), 2755.0, 4, 10),
    (Some(463.0), 2778.0, 5, 11),
    (Some(398.0), 3184.0, 7, 7),
    (Some(343.0), 2744.0, 7, 8),
    (Some(261.0), 2871.0, 10, 10),
    (Some(84.0), 3360.0, 39, 0),
    (Some(67.0), 5360.0, 79, 0),
    (Some(62.0), 4960.0, 79, 0),
    (Some(53.0), 8480.0, 159, 0),
    (Some(49.0), f64::NAN, 0, 0),
];

/// The paper reference block for a given grid size (Table II blocks; the
/// 200×200 block coincides with Table I).
pub fn paper_reference(grid: u32) -> &'static [(Option<f64>, f64, usize, usize)] {
    match grid {
        50 => &PAPER_TABLE2_050,
        100 => &PAPER_TABLE2_025,
        _ => &PAPER_TABLE1,
    }
}

/// Paper Table III reference values:
/// `(T_s, T_t, buffers, reg_t, reg_s, latency)`.
pub const PAPER_TABLE3: [(f64, f64, usize, usize, usize, f64); 7] = [
    (300.0, 300.0, 9, 8, 0, 3000.0),
    (200.0, 300.0, 2, 1, 10, 2800.0),
    (300.0, 200.0, 2, 10, 1, 2800.0),
    (300.0, 400.0, 8, 3, 3, 2800.0),
    (400.0, 300.0, 8, 3, 3, 2800.0),
    (250.0, 300.0, 7, 6, 2, 2850.0),
    (300.0, 250.0, 6, 2, 6, 2850.0),
];

/// The paper's experimental die: 25 mm × 25 mm, source and sink 40 mm
/// apart (Manhattan), rasterised at `grid × grid`.
///
/// Returns `(graph, tech, lib, source, sink)`.
pub fn paper_setup(grid: u32) -> (GridGraph, Technology, GateLibrary, Point, Point) {
    let fp = Floorplan::new(Length::from_mm(25.0), Length::from_mm(25.0));
    let graph = GridGraph::from_floorplan(&fp, grid, grid);
    // Place terminals on the main diagonal so the Manhattan separation is
    // exactly 40 mm: 0.8·grid edges per axis, centred on the die.
    let dx = (0.8 * f64::from(grid)).round() as u32;
    let off = (grid - 1 - dx) / 2;
    let s = Point::new(off, off);
    let t = Point::new(off + dx, off + dx);
    (
        graph,
        Technology::paper_070nm(),
        GateLibrary::paper_library(),
        s,
        t,
    )
}

/// One measured row of Table I / Table II.
#[derive(Debug, Clone, PartialEq)]
pub struct RegPathRow {
    /// Clock period in ps (`None` = ∞, fast path).
    pub period: Option<f64>,
    /// Latency in ps (`T·(p+1)` for RBP rows; path delay for fast path).
    pub latency: Option<f64>,
    /// Registers inserted (`None` latency ⇒ no feasible route).
    pub registers: Option<usize>,
    /// Buffers inserted.
    pub buffers: Option<usize>,
    /// Max/min grid separation between successive registers (terminals
    /// included).
    pub max_reg_sep: Option<usize>,
    pub min_reg_sep: Option<usize>,
    /// Max/min grid separation between successive inserted elements.
    pub max_rb_sep: Option<usize>,
    pub min_rb_sep: Option<usize>,
    /// Candidates popped (the paper's `Configs`), read back from the
    /// telemetry recorder — populated even for infeasible cells, where it
    /// measures the effort spent proving infeasibility.
    pub configs: u64,
    /// Maximum queue size (telemetry gauge).
    pub max_queue: usize,
    /// Peak search-arena footprint in bytes (telemetry counter).
    pub arena_bytes: u64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

/// The harness's one clock read: timings are reported, never
/// byte-compared.
#[expect(
    clippy::disallowed_methods,
    reason = "bench harness measures wall-clock by design; timings are reported, never byte-compared"
)]
pub fn now() -> Instant {
    Instant::now()
}

/// Runs one Table-I/II cell: fast path for `period = None`, RBP
/// otherwise. Infeasible cells produce a row with `latency = None`
/// (Table II's empty cells).
///
/// Effort columns (`configs`, `max_queue`, `arena_bytes`) are read from a
/// per-cell [`MetricsRecorder`] attached to the search — the same sink
/// `crplan --metrics` aggregates — so the harness and the CLI report the
/// same quantities by construction.
pub fn run_cell(
    graph: &GridGraph,
    tech: &Technology,
    lib: &GateLibrary,
    s: Point,
    t: Point,
    period: Option<f64>,
) -> RegPathRow {
    let start = now();
    let recorder = MetricsRecorder::new();
    let telemetry = TelemetryHandle::new(&recorder);
    match period {
        None => {
            let sol = FastPathSpec::new(graph, tech, lib)
                .source(s)
                .sink(t)
                .telemetry(telemetry)
                .solve()
                .expect("fast path always feasible on the open die");
            let seps = sol.path().element_separations();
            RegPathRow {
                period: None,
                latency: Some(sol.delay().ps()),
                registers: Some(0),
                buffers: Some(sol.buffer_count()),
                max_reg_sep: None,
                min_reg_sep: None,
                max_rb_sep: seps.iter().max().copied(),
                min_rb_sep: seps.iter().min().copied(),
                configs: recorder.counter_value("search.fastpath.pops"),
                max_queue: recorder.gauge_value("search.fastpath.max_queue") as usize,
                arena_bytes: recorder.counter_value("search.fastpath.arena_bytes"),
                seconds: start.elapsed().as_secs_f64(),
            }
        }
        Some(t_phi) => {
            let outcome = RbpSpec::new(graph, tech, lib)
                .source(s)
                .sink(t)
                .period(Time::from_ps(t_phi))
                .telemetry(telemetry)
                .solve();
            let configs = recorder.counter_value("search.rbp.pops");
            let max_queue = recorder.gauge_value("search.rbp.max_queue") as usize;
            let arena_bytes = recorder.counter_value("search.rbp.arena_bytes");
            match outcome {
                Ok(sol) => {
                    let reg_seps = sol.path().register_separations(lib);
                    let rb_seps = sol.path().element_separations();
                    RegPathRow {
                        period: Some(t_phi),
                        latency: Some(sol.latency().ps()),
                        registers: Some(sol.register_count()),
                        buffers: Some(sol.buffer_count()),
                        max_reg_sep: reg_seps.iter().max().copied(),
                        min_reg_sep: reg_seps.iter().min().copied(),
                        max_rb_sep: rb_seps.iter().max().copied(),
                        min_rb_sep: rb_seps.iter().min().copied(),
                        configs,
                        max_queue,
                        arena_bytes,
                        seconds: start.elapsed().as_secs_f64(),
                    }
                }
                Err(_) => RegPathRow {
                    period: Some(t_phi),
                    latency: None,
                    registers: None,
                    buffers: None,
                    max_reg_sep: None,
                    min_reg_sep: None,
                    max_rb_sep: None,
                    min_rb_sep: None,
                    configs,
                    max_queue,
                    arena_bytes,
                    seconds: start.elapsed().as_secs_f64(),
                },
            }
        }
    }
}

/// Generates Table I on a `grid × grid` die for the given periods.
pub fn table1(grid: u32, periods: &[Option<f64>]) -> Vec<RegPathRow> {
    let (graph, tech, lib, s, t) = paper_setup(grid);
    periods
        .iter()
        .map(|&p| run_cell(&graph, &tech, &lib, s, t, p))
        .collect()
}

/// One measured row of Table III.
#[derive(Debug, Clone, PartialEq)]
pub struct GalsRow {
    pub t_s: f64,
    pub t_t: f64,
    pub buffers: usize,
    pub reg_t: usize,
    pub reg_s: usize,
    pub latency: f64,
    pub configs: u64,
    pub arena_bytes: u64,
    pub seconds: f64,
}

/// Generates Table III on a `grid × grid` die for `(T_s, T_t)` pairs.
pub fn table3(grid: u32, pairs: &[(f64, f64)]) -> Vec<GalsRow> {
    let (graph, tech, lib, s, t) = paper_setup(grid);
    pairs
        .iter()
        .map(|&(ts, tt)| {
            let start = now();
            let recorder = MetricsRecorder::new();
            let sol = GalsSpec::new(&graph, &tech, &lib)
                .source(s)
                .sink(t)
                .periods(Time::from_ps(ts), Time::from_ps(tt))
                .telemetry(TelemetryHandle::new(&recorder))
                .solve()
                .expect("GALS feasible at Table III periods");
            GalsRow {
                t_s: ts,
                t_t: tt,
                buffers: sol.buffer_count(),
                reg_t: sol.regs_sink_side(),
                reg_s: sol.regs_source_side(),
                latency: sol.latency().ps(),
                configs: recorder.counter_value("search.gals.pops"),
                arena_bytes: recorder.counter_value("search.gals.arena_bytes"),
                seconds: start.elapsed().as_secs_f64(),
            }
        })
        .collect()
}

/// §V-A observations evaluated on a Table-I sweep (E6).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrendVerdicts {
    /// Obs. 1: registers monotonically non-decreasing as `T_φ` shrinks.
    pub registers_monotone: bool,
    /// Obs. 1: register separation non-increasing as `T_φ` shrinks.
    pub reg_sep_monotone: bool,
    /// Obs. 2: configs examined decrease as `T_φ` shrinks (RBP rows).
    pub configs_decrease: bool,
    /// Obs. 3: below some threshold period RBP is faster than fast path.
    pub rbp_faster_below_threshold: bool,
}

/// Evaluates the §V-A trend observations on a Table-I result set.
///
/// `rows[0]` must be the fast-path (`period = None`) row.
pub fn trends(rows: &[RegPathRow]) -> TrendVerdicts {
    let rbp: Vec<&RegPathRow> = rows.iter().filter(|r| r.period.is_some()).collect();
    let feasible: Vec<&&RegPathRow> = rbp.iter().filter(|r| r.latency.is_some()).collect();
    let registers_monotone = feasible
        .windows(2)
        .all(|w| w[0].registers.unwrap_or(0) <= w[1].registers.unwrap_or(0));
    let reg_sep_monotone = feasible
        .windows(2)
        .filter(|w| w[0].max_reg_sep.is_some() && w[1].max_reg_sep.is_some())
        .all(|w| w[0].max_reg_sep >= w[1].max_reg_sep);
    // Allow small non-monotonic wiggles in configs (the paper's own data
    // wiggles); require an overall decreasing trend: last < 3/4 · first.
    // The margin is deliberately looser than the paper's raw ratios: the
    // arena substrate skips dominated candidates before they count as
    // pops, which trims loose-period rows (where dominated candidates
    // pile up in-queue) more than tight ones and compresses the spread
    // without touching the trend itself (DESIGN.md §15).
    let configs_decrease = match (feasible.first(), feasible.last()) {
        (Some(a), Some(b)) => b.configs * 4 < a.configs * 3,
        _ => false,
    };
    let fast = rows.iter().find(|r| r.period.is_none());
    let rbp_faster_below_threshold = match fast {
        Some(f) => feasible.iter().any(|r| r.seconds < f.seconds),
        None => false,
    };
    TrendVerdicts {
        registers_monotone,
        reg_sep_monotone,
        configs_decrease,
        rbp_faster_below_threshold,
    }
}

/// Formats a Table-I/II result set as a markdown table with the paper's
/// Table-I reference values interleaved.
pub fn format_table1(rows: &[RegPathRow]) -> String {
    format_regpath_table(rows, &PAPER_TABLE1)
}

/// Formats a result set against an arbitrary paper reference block
/// (use [`paper_reference`] to pick the right Table II block per grid).
pub fn format_regpath_table(
    rows: &[RegPathRow],
    reference: &[(Option<f64>, f64, usize, usize)],
) -> String {
    let mut out = String::new();
    out.push_str(
        "| T_phi (ps) | Latency (ps) | paper | Regs | paper | Bufs | paper | MaxRegSep | MinRegSep | Max R/B | Min R/B | Configs | MaxQ | Arena (B) | time (s) |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for row in rows {
        let paper = reference.iter().find(|(p, ..)| match (p, row.period) {
            (None, None) => true,
            (Some(a), Some(b)) => (a - b).abs() < 1e-9,
            _ => false,
        });
        let fmt_opt = |v: Option<usize>| v.map_or("-".to_owned(), |x| x.to_string());
        let fmt_lat = |v: Option<f64>| v.map_or("infeas.".to_owned(), |x| format!("{x:.0}"));
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {} | {:.2} |\n",
            row.period.map_or("inf".to_owned(), |p| format!("{p:.0}")),
            fmt_lat(row.latency),
            paper.map_or("-".to_owned(), |(_, l, ..)| {
                if l.is_nan() {
                    "infeas.".to_owned()
                } else {
                    format!("{l:.0}")
                }
            }),
            fmt_opt(row.registers),
            paper.map_or("-".to_owned(), |(_, _, r, _)| r.to_string()),
            fmt_opt(row.buffers),
            paper.map_or("-".to_owned(), |(_, _, _, b)| b.to_string()),
            fmt_opt(row.max_reg_sep),
            fmt_opt(row.min_reg_sep),
            fmt_opt(row.max_rb_sep),
            fmt_opt(row.min_rb_sep),
            row.configs,
            row.max_queue,
            row.arena_bytes,
            row.seconds,
        ));
    }
    out
}

/// Formats a Table-III result set as markdown with paper references.
pub fn format_table3(rows: &[GalsRow]) -> String {
    let mut out = String::new();
    out.push_str(
        "| T_s | T_t | Bufs | paper | Reg-t | paper | Reg-s | paper | Latency | paper | Configs | Arena (B) | time (s) |\n",
    );
    out.push_str("|---|---|---|---|---|---|---|---|---|---|---|---|---|\n");
    for row in rows {
        let paper = PAPER_TABLE3
            .iter()
            .find(|(ts, tt, ..)| (ts - row.t_s).abs() < 1e-9 && (tt - row.t_t).abs() < 1e-9);
        out.push_str(&format!(
            "| {:.0} | {:.0} | {} | {} | {} | {} | {} | {} | {:.0} | {} | {} | {} | {:.2} |\n",
            row.t_s,
            row.t_t,
            row.buffers,
            paper.map_or("-".to_owned(), |&(_, _, b, ..)| b.to_string()),
            row.reg_t,
            paper.map_or("-".to_owned(), |&(_, _, _, rt, _, _)| rt.to_string()),
            row.reg_s,
            paper.map_or("-".to_owned(), |&(_, _, _, _, rs, _)| rs.to_string()),
            row.latency,
            paper.map_or("-".to_owned(), |&(.., l)| format!("{l:.0}")),
            row.configs,
            row.arena_bytes,
            row.seconds,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_places_terminals_40mm_apart() {
        for grid in [50, 100, 200] {
            let (graph, _, _, s, t) = paper_setup(grid);
            let edges = s.manhattan(t);
            let dist_mm = f64::from(edges) * graph.pitch_x().mm();
            assert!(
                (dist_mm - 40.0).abs() < 0.5,
                "grid {grid}: terminals {dist_mm} mm apart"
            );
        }
    }

    #[test]
    fn small_grid_cell_runs() {
        // A miniature version of a Table-I cell on a 25×25 grid (1 mm
        // pitch): the machinery works end-to-end.
        let (graph, tech, lib, s, t) = paper_setup(25);
        let fast = run_cell(&graph, &tech, &lib, s, t, None);
        assert!(fast.latency.unwrap() > 2000.0);
        let rbp = run_cell(&graph, &tech, &lib, s, t, Some(700.0));
        assert!(rbp.registers.unwrap() >= 3);
        let infeasible = run_cell(&graph, &tech, &lib, s, t, Some(49.0));
        assert!(infeasible.latency.is_none());
        // The recorder survives the error path, so even an infeasible cell
        // reports the effort spent proving infeasibility.
        assert!(infeasible.configs > 0);
        assert!(infeasible.arena_bytes > 0);
    }

    #[test]
    fn recorder_effort_columns_match_solution_stats() {
        // The harness reads Configs/MaxQ from the telemetry recorder; they
        // must agree with the numbers the solution itself reports.
        let (graph, tech, lib, s, t) = paper_setup(25);

        let fast = run_cell(&graph, &tech, &lib, s, t, None);
        let fast_sol = FastPathSpec::new(&graph, &tech, &lib)
            .source(s)
            .sink(t)
            .solve()
            .unwrap();
        assert_eq!(fast.configs, fast_sol.stats().configs);
        assert_eq!(fast.max_queue, fast_sol.stats().max_queue);
        assert_eq!(fast.arena_bytes, fast_sol.stats().arena_bytes());

        let rbp = run_cell(&graph, &tech, &lib, s, t, Some(700.0));
        let rbp_sol = RbpSpec::new(&graph, &tech, &lib)
            .source(s)
            .sink(t)
            .period(Time::from_ps(700.0))
            .solve()
            .unwrap();
        assert_eq!(rbp.configs, rbp_sol.stats().configs);
        assert_eq!(rbp.max_queue, rbp_sol.stats().max_queue);
        assert_eq!(rbp.arena_bytes, rbp_sol.stats().arena_bytes());

        let gals = table3(25, &[(300.0, 300.0)]);
        assert!(gals[0].configs > 0);
        assert!(gals[0].arena_bytes > 0);
    }

    #[test]
    fn trends_on_miniature_sweep() {
        let rows = table1(
            25,
            &[None, Some(1371.0), Some(686.0), Some(343.0), Some(120.0)],
        );
        let v = trends(&rows);
        assert!(v.registers_monotone);
        assert!(v.reg_sep_monotone);
        assert!(v.configs_decrease);
    }

    #[test]
    fn format_contains_paper_columns() {
        let rows = table1(25, &[None, Some(686.0)]);
        let text = format_table1(&rows);
        assert!(text.contains("| inf |"));
        assert!(text.contains("2739"));
        let g = table3(25, &[(300.0, 300.0)]);
        let t3 = format_table3(&g);
        assert!(t3.contains("3000"));
    }
}

#[cfg(test)]
mod anchor_tests {
    //! Paper-anchor pins: these cells of Table II (0.25 mm grid) must
    //! match the paper exactly; a regression in calibration, pruning or
    //! wave ordering shows up here before anyone reads a full table.
    use super::*;

    #[test]
    fn table2_025mm_headline_cells_match_paper_exactly() {
        let (graph, tech, lib, s, t) = paper_setup(100);
        for &(period, latency, registers) in &[
            (1371.0, 2742.0, 1usize),
            (686.0, 2744.0, 3),
            (343.0, 2744.0, 7),
            (84.0, 3360.0, 39),
            (62.0, 4960.0, 79),
            (53.0, 8480.0, 159),
        ] {
            let row = run_cell(&graph, &tech, &lib, s, t, Some(period));
            assert_eq!(
                row.registers,
                Some(registers),
                "T = {period}: registers {:?}",
                row.registers
            );
            assert_eq!(
                row.latency,
                Some(latency),
                "T = {period}: latency {:?}",
                row.latency
            );
        }
        // And the paper's infeasible cell stays infeasible.
        let row = run_cell(&graph, &tech, &lib, s, t, Some(49.0));
        assert_eq!(row.latency, None, "T = 49 must be infeasible at 0.25 mm");
    }

    #[test]
    fn table3_headline_cell_matches_paper() {
        let rows = table3(100, &[(300.0, 300.0)]);
        // Latency 3000 ps with 9 synchronizer stages total (8 relays +
        // FIFO) at 0.25 mm granularity, like the paper's 0.125 mm run.
        assert!((rows[0].latency - 3000.0).abs() < 1e-9, "{:?}", rows[0]);
        assert_eq!(rows[0].reg_s + rows[0].reg_t, 8);
    }
}
