//! `crserve` — the long-running routing service.
//!
//! ```text
//! usage: crserve [--tcp <addr>] [--state <dir>] [--cache-cap <n>] [--shards <n>]
//!                [--jobs <n>] [--budget-ms <n>] [--max-nets <n>] [--max-inflight <n>]
//!                [--warm-max-dirty <n>] [--max-line <bytes>] [--no-warm]
//!                [--metrics <file>] [--quiet]
//! ```
//!
//! Without `--tcp`, the service reads JSONL requests from stdin and
//! writes JSONL responses to stdout (one response line per request
//! line, flushed immediately) until EOF or a `shutdown` request. With
//! `--tcp <addr>` it listens on `addr` instead, serving connections
//! from a bounded worker pool sized against `--max-inflight` (excess
//! connections queue, then wait in the accept backlog); a `shutdown`
//! request on any connection stops the listener. The bound address is
//! printed to stderr as `listening on <addr>` so callers binding
//! port 0 can discover it.
//!
//! `--shards <n>` partitions the result cache across `n` per-key locks
//! with single-flight coalescing (0 or default: available
//! parallelism). Responses are byte-identical for every value.
//!
//! `--state <dir>` makes the result cache crash-consistent: every solve
//! is appended to a checksummed snapshot log in `dir` and replayed on
//! the next start (corrupt or torn records are verified away, never
//! served). SIGINT and SIGTERM drain gracefully — stop accepting,
//! finish in-flight requests, compact the snapshot, exit 0 — so a
//! supervisor restart never loses the warm cache.
//!
//! `--metrics <file>` writes the aggregated telemetry (the `service.*`
//! counters plus every solve's planner counters) as JSON on exit.
//!
//! `--validate-jsonl` is a self-check mode for scripts: instead of
//! serving, it reads lines from stdin and validates each with the same
//! strict JSON parser that decodes requests, exiting `1` on the
//! first bad line. `scripts/serve_smoke.sh` pipes the service's own
//! responses back through it.
//!
//! Exit codes: `0` clean shutdown/EOF, `1` validation failure, `2`
//! usage or I/O setup errors.

use clockroute_core::failpoint;
use clockroute_service::{install_signal_handlers, Service, ServiceConfig};
use std::io::Write;
use std::net::TcpListener;
use std::process::ExitCode;

const USAGE: &str = "usage: crserve [--tcp <addr>] [--state <dir>] [--cache-cap <n>] \
                     [--shards <n>] [--jobs <n>] [--budget-ms <n>] [--max-nets <n>] \
                     [--max-inflight <n>] [--warm-max-dirty <n>] [--max-line <bytes>] \
                     [--no-warm] [--metrics <file>] [--quiet] [--validate-jsonl]";

struct Options {
    tcp: Option<String>,
    metrics: Option<String>,
    quiet: bool,
    validate: bool,
    config: ServiceConfig,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        tcp: None,
        metrics: None,
        quiet: false,
        validate: false,
        config: ServiceConfig {
            jobs: default_jobs(),
            ..ServiceConfig::default()
        },
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--tcp" => opts.tcp = Some(value("--tcp")?),
            "--state" => {
                opts.config.state = Some(std::path::PathBuf::from(value("--state")?));
            }
            "--metrics" => opts.metrics = Some(value("--metrics")?),
            "--quiet" => opts.quiet = true,
            "--validate-jsonl" => opts.validate = true,
            "--no-warm" => opts.config.warm = false,
            "--cache-cap" => {
                opts.config.cache_cap = value("--cache-cap")?
                    .parse()
                    .map_err(|_| "--cache-cap needs an integer")?;
            }
            "--shards" => {
                opts.config.shards = value("--shards")?
                    .parse()
                    .map_err(|_| "--shards needs an integer (0 = auto)")?;
            }
            "--jobs" => {
                opts.config.jobs = value("--jobs")?
                    .parse()
                    .map_err(|_| "--jobs needs a positive integer")?;
                if opts.config.jobs == 0 {
                    return Err("--jobs needs a positive integer".to_owned());
                }
            }
            "--budget-ms" => {
                opts.config.budget_ms = Some(
                    value("--budget-ms")?
                        .parse()
                        .map_err(|_| "--budget-ms needs an integer millisecond count")?,
                );
            }
            "--max-nets" => {
                opts.config.max_nets = value("--max-nets")?
                    .parse()
                    .map_err(|_| "--max-nets needs an integer")?;
            }
            "--max-inflight" => {
                opts.config.max_inflight = value("--max-inflight")?
                    .parse()
                    .map_err(|_| "--max-inflight needs an integer")?;
                if opts.config.max_inflight == 0 {
                    return Err("--max-inflight must be at least 1".to_owned());
                }
            }
            "--warm-max-dirty" => {
                opts.config.warm_max_dirty = value("--warm-max-dirty")?
                    .parse()
                    .map_err(|_| "--warm-max-dirty needs an integer")?;
            }
            "--max-line" => {
                opts.config.max_line = value("--max-line")?
                    .parse()
                    .map_err(|_| "--max-line needs a byte count")?;
                if opts.config.max_line == 0 {
                    return Err("--max-line must be at least 1".to_owned());
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
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
    if opts.validate {
        let mut text = String::new();
        // crlint-allow: CR007 one-shot validator mode reading operator-piped stdin, not a serving socket
        if let Err(e) = std::io::Read::read_to_string(&mut std::io::stdin().lock(), &mut text) {
            eprintln!("error: cannot read stdin: {e}");
            return ExitCode::from(2);
        }
        return match clockroute_core::json::validate_jsonl(&text) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: invalid JSONL: {e}");
                ExitCode::from(1)
            }
        };
    }
    if let Err(e) = failpoint::arm_from_env() {
        eprintln!("error: bad CLOCKROUTE_FAILPOINTS: {e}");
        return ExitCode::from(2);
    }
    // Preflight the metrics path like crplan does: fail before serving,
    // not after a day of requests.
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

    // Signals drain instead of kill: serve loops poll the flag and
    // return cleanly, then the snapshot below runs.
    install_signal_handlers();
    let service = Service::new(opts.config.clone());
    let served = match &opts.tcp {
        Some(addr) => {
            let listener = match TcpListener::bind(addr) {
                Ok(l) => l,
                Err(e) => {
                    eprintln!("error: cannot bind {addr}: {e}");
                    return ExitCode::from(2);
                }
            };
            let bound = listener
                .local_addr()
                .map_or_else(|_| addr.to_string(), |local| local.to_string());
            // One write: `eprintln!` may split the line across several
            // write(2) calls, and a script reading the pipe could see
            // `listening on ` without the address.
            let banner = format!("listening on {bound}\n");
            let _ = std::io::stderr().lock().write_all(banner.as_bytes());
            service.serve_listener(&listener)
        }
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            service.serve(stdin.lock(), stdout.lock())
        }
    };
    if let Err(e) = served {
        eprintln!("error: {e}");
        return ExitCode::from(2);
    }
    // Clean exit (EOF, `shutdown`, or a handled signal): compact the
    // snapshot so the next start replays one verified record per entry.
    if let Err(e) = service.snapshot() {
        eprintln!("error: cannot write snapshot: {e}");
        return ExitCode::from(2);
    }

    if !opts.quiet {
        eprintln!("# service telemetry");
        for row in service.metrics().summary_rows() {
            eprintln!("#   {row}");
        }
    }
    if let Some((path, mut file)) = metrics_file {
        let mut json = service.metrics().to_json();
        json.push('\n');
        let wrote = file.write_all(json.as_bytes()).and_then(|()| file.flush());
        if let Err(e) = wrote {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
