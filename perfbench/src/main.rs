//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!  --bin-dir <dir> --work-dir <dir>`
//!
//! Runs one workload against the release `crserve` and `crplan` in
//! `--bin-dir`, prints the metrics with units (percentiles with their
//! sample counts), and ends with one JSON result line. Exits 1 when a
//! check fails, 2 on bad arguments or when the run cannot complete.

use perfbench::proc::calibration_ms;
use perfbench::workload::{self, Ctx, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["serve_hit", "serve_solve", "flow_congested"];

struct Args {
    workload: String,
    traced: bool,
    ctx: Ctx,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 1u64, 10.0f64, false);
    let (mut bin_dir, mut work) = (None, None);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_owned()),
                }
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value()?)),
            "--work-dir" => work = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` (one of {WORKLOADS:?})"
        ));
    }
    Ok(Args {
        workload,
        traced,
        ctx: Ctx {
            bin_dir: bin_dir.ok_or("--bin-dir is required")?,
            work: work.ok_or("--work-dir is required")?,
            seed,
            seconds,
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let calib_start = calibration_ms();
    let work = args.ctx.work.join(&args.workload);
    let ctx = Ctx { work, ..args.ctx };
    let run = match args.workload.as_str() {
        "serve_hit" => workload::serve_hit(&ctx, args.traced),
        "serve_solve" => workload::serve_solve(&ctx, args.traced),
        _ => workload::flow_congested(&ctx, args.traced),
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let calib_end = calibration_ms();
    let out: Outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} could not complete: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let mode = if args.traced {
        "traced (per-layer)"
    } else {
        "end-to-end"
    };
    println!(
        "# {} seed={} seconds={} {mode}",
        args.workload, ctx.seed, ctx.seconds
    );
    println!("# host: nproc={nproc} calibration_ms start={calib_start:.3} end={calib_end:.3}");
    for line in &out.info {
        println!("# {line}");
    }
    for e in &out.errors {
        println!("# CHECK FAILED: {e}");
    }
    print!("{}", out.metrics.rows());
    let correct = out.errors.is_empty() && out.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
