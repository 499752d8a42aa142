//! `crplan` — command-line interconnect planner.
//!
//! ```text
//! usage: crplan <scenario.cr> [--render] [--quiet] [--budget-ms <n>] [--strict] [--jobs <n>]
//!               [--metrics <file>] [--trace <file>]
//!               [--flow [--flow-iters <n>] [--flow-seed <n>]]
//! ```
//!
//! Reads a scenario file (see [`clockroute_cli::scenario`] for the
//! format), plans every net with the optimal fast-path / RBP / GALS
//! searches, and prints a per-net report plus aggregate statistics.
//! `--render` additionally draws each routed net as ASCII art.
//!
//! `--budget-ms <n>` caps each per-net search attempt at `n` milliseconds
//! of wall clock; nets that blow the budget fall down the degradation
//! ladder (coarsened grid, then an unbuffered wire) instead of hanging
//! the run. Degraded nets are flagged in the report and counted in the
//! summary.
//!
//! `--jobs <n>` sets the number of routing worker threads (default: the
//! machine's available parallelism). Under `--flow` the same workers run
//! the price rounds and the per-net legalization. The plan — and
//! therefore the entire report — is bit-identical for every job count;
//! parallelism only changes wall-clock time.
//!
//! `--flow` routes the whole batch with the congestion-aware
//! multicommodity-flow mode (`clockroute-flow`) against the scenario's
//! `capacity` directives. `--flow-iters <n>` sets the fractional price
//! rounds and `--flow-seed <n>` the rounding seed; both require
//! `--flow` (exit 2 otherwise). Under `--flow` the plan is a pure
//! function of scenario + seed + iters, byte-identical for every
//! `--jobs` value like any other plan, and a non-quiet run appends a
//! congestion/overflow section to the report.
//!
//! `--metrics <file>` writes the aggregated telemetry counters/gauges as
//! a JSON object; the file is byte-identical for every `--jobs` value.
//! `--trace <file>` writes the full telemetry stream (spans and
//! scheduling events included) as JSONL; traces are for reading one run
//! and are *not* deterministic. A summary table of the counters is also
//! appended to the report unless `--quiet`.
//!
//! Exit codes: `0` all nets routed (degraded nets allowed unless
//! `--strict`), `1` any net failed — or, under `--strict`, was degraded —
//! `2` usage or scenario errors.

use clockroute_cli::{report, scenario};
use clockroute_core::telemetry::Tee;
use clockroute_core::{failpoint, MetricsRecorder, SearchBudget, Telemetry, TraceWriter};
use clockroute_elmore::GateLibrary;
use clockroute_flow::{FlowConfig, PlannerFlowExt};
use clockroute_grid::{render_grid, GridGraph, RenderOptions};
use clockroute_plan::{Planner, SharedTelemetry};
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

const USAGE: &str = "usage: crplan <scenario.cr> [--render] [--quiet] [--budget-ms <n>] \
                     [--strict] [--jobs <n>] [--metrics <file>] [--trace <file>] \
                     [--flow [--flow-iters <n>] [--flow-seed <n>]]";

struct Options {
    path: String,
    render: bool,
    quiet: bool,
    strict: bool,
    budget: SearchBudget,
    jobs: usize,
    metrics: Option<String>,
    trace: Option<String>,
    flow: bool,
    flow_iters: Option<u32>,
    flow_seed: Option<u64>,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut path = None;
    let mut render = false;
    let mut quiet = false;
    let mut strict = false;
    let mut budget = SearchBudget::unlimited();
    let mut jobs = default_jobs();
    let mut metrics = None;
    let mut trace = None;
    let mut flow = false;
    let mut flow_iters = None;
    let mut flow_seed = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--render" => render = true,
            "--quiet" => quiet = true,
            "--strict" => strict = true,
            "--budget-ms" => {
                let ms: u64 = it
                    .next()
                    .ok_or("--budget-ms needs a value")?
                    .parse()
                    .map_err(|_| "--budget-ms needs an integer millisecond count")?;
                budget = budget.with_deadline(Duration::from_millis(ms));
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .ok_or("--jobs needs a value")?
                    .parse()
                    .map_err(|_| "--jobs needs a positive integer")?;
                if jobs == 0 {
                    return Err("--jobs needs a positive integer".to_owned());
                }
            }
            "--metrics" => {
                metrics = Some(it.next().ok_or("--metrics needs a file path")?.clone());
            }
            "--trace" => {
                trace = Some(it.next().ok_or("--trace needs a file path")?.clone());
            }
            "--flow" => flow = true,
            "--flow-iters" => {
                let n: u32 = it
                    .next()
                    .ok_or("--flow-iters needs a value")?
                    .parse()
                    .map_err(|_| "--flow-iters needs a positive integer")?;
                if n == 0 {
                    return Err("--flow-iters needs a positive integer".to_owned());
                }
                flow_iters = Some(n);
            }
            "--flow-seed" => {
                flow_seed = Some(
                    it.next()
                        .ok_or("--flow-seed needs a value")?
                        .parse()
                        .map_err(|_| "--flow-seed needs an unsigned integer")?,
                );
            }
            other if other.starts_with("--") => {
                return Err(format!("unknown flag `{other}`"));
            }
            other => {
                if path.replace(other.to_owned()).is_some() {
                    return Err("more than one scenario file given".to_owned());
                }
            }
        }
    }
    if !flow && flow_iters.is_some() {
        return Err("--flow-iters requires --flow".to_owned());
    }
    if !flow && flow_seed.is_some() {
        return Err("--flow-seed requires --flow".to_owned());
    }
    Ok(Options {
        path: path.ok_or("missing scenario file")?,
        render,
        quiet,
        strict,
        budget,
        jobs,
        metrics,
        trace,
        flow,
        flow_iters,
        flow_seed,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = failpoint::arm_from_env() {
        eprintln!("error: bad CLOCKROUTE_FAILPOINTS: {e}");
        return ExitCode::from(2);
    }

    let text = match std::fs::read_to_string(&opts.path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: cannot read {}: {e}", opts.path);
            return ExitCode::from(2);
        }
    };
    let scenario = match scenario::parse(&text) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {}: {e}", opts.path);
            return ExitCode::from(2);
        }
    };

    let (gw, gh) = scenario.grid;
    let graph = GridGraph::from_floorplan(&scenario.floorplan, gw, gh);
    let lib = GateLibrary::paper_library();
    if !opts.quiet {
        let (px, py) = scenario.floorplan.pitch(gw, gh);
        println!(
            "# die {:.1}×{:.1} mm, grid {gw}×{gh} (pitch {:.3}×{:.3} mm), {} blocks, {} nets",
            scenario.floorplan.die_width().mm(),
            scenario.floorplan.die_height().mm(),
            px.mm(),
            py.mm(),
            scenario.floorplan.blocks().len(),
            scenario.nets.len()
        );
    }

    // The recorder is always attached: its counters are deterministic (a
    // pure function of the scenario, independent of --jobs), so the
    // summary table below is part of the reproducible report. The trace
    // writer, when requested, sees the same stream plus scheduling events.
    // Preflight the --metrics file alongside --trace: an unwritable
    // path must fail fast (exit 2) *before* the possibly expensive
    // solve, not after it.
    let metrics_file = match &opts.metrics {
        Some(path) => match std::fs::File::create(path) {
            Ok(f) => Some((path.clone(), f)),
            Err(e) => {
                eprintln!("error: cannot create {path}: {e}");
                return ExitCode::from(2);
            }
        },
        None => None,
    };

    let recorder = Arc::new(MetricsRecorder::new());
    let mut trace_tee = None;
    let sink: Arc<dyn Telemetry + Send + Sync> = match &opts.trace {
        Some(path) => {
            let file = match std::fs::File::create(path) {
                Ok(f) => f,
                Err(e) => {
                    eprintln!("error: cannot create {path}: {e}");
                    return ExitCode::from(2);
                }
            };
            let tee = Arc::new(Tee(recorder.clone(), TraceWriter::new(BufWriter::new(file))));
            trace_tee = Some(tee.clone());
            tee
        }
        None => recorder.clone(),
    };

    let planner = Planner::new(graph.clone(), scenario.tech, lib.clone())
        .reserve_routes(scenario.reserve)
        .budget(opts.budget)
        .jobs(opts.jobs)
        .telemetry(SharedTelemetry::new(sink));
    let (plan, flow_summary) = if opts.flow {
        let mut cfg = FlowConfig::default();
        if let Some(n) = opts.flow_iters {
            cfg.iters = n;
        }
        if let Some(s) = opts.flow_seed {
            cfg.seed = s;
        }
        let (plan, summary) = planner
            .flow(&scenario.nets, &scenario.capacities, cfg)
            .into_parts();
        (plan, Some(summary))
    } else {
        (planner.plan(&scenario.nets), None)
    };

    // The per-net lines come from the shared renderer so they are
    // byte-identical to what `crserve` returns for the same scenario.
    let report_text = report::plan_report(&plan);
    for (result, line) in plan.results().iter().zip(report_text.lines()) {
        println!("{line}");
        if opts.render {
            if let Some(path) = &result.path {
                let mut labels = vec![(path.source(), 'S'), (path.sink(), 'T')];
                for (pt, gate) in path.gates() {
                    if pt != path.source() && pt != path.sink() {
                        let c = match lib.gate(gate).kind() {
                            clockroute_elmore::GateKind::Buffer => 'B',
                            clockroute_elmore::GateKind::McFifo => 'F',
                            _ => 'R',
                        };
                        labels.push((pt, c));
                    }
                }
                println!(
                    "{}",
                    render_grid(
                        &graph,
                        Some(&path.grid_path()),
                        &labels,
                        &RenderOptions::default()
                    )
                );
            }
        }
    }

    let failed = plan.failed().count();
    let degraded = plan.degraded().count();
    if !opts.quiet {
        println!("{}", report::summary_line(&plan));
        if let Some(summary) = &flow_summary {
            print!("{}", summary.render());
        }
    }
    if !opts.quiet {
        println!("# telemetry");
        for row in recorder.summary_rows() {
            println!("#   {row}");
        }
    }
    if let Some((path, mut file)) = metrics_file {
        let mut json = recorder.to_json();
        json.push('\n');
        let wrote = file.write_all(json.as_bytes()).and_then(|()| file.flush());
        if let Err(e) = wrote {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Some(tee) = trace_tee {
        // The planner has released its clone, so the unwrap succeeds and
        // write errors surface instead of vanishing in a drop.
        if let Ok(tee) = Arc::try_unwrap(tee) {
            if let Err(e) = tee.1.into_inner().flush() {
                eprintln!("error: cannot write trace: {e}");
                return ExitCode::from(2);
            }
        }
    }
    if failed > 0 || (opts.strict && degraded > 0) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
