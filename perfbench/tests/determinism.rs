//! The benchmark is itself deterministic where it claims to be: inputs
//! are a pure function of the seed (pinned by hash for the default
//! seed), and two traced runs with the same seed report identical
//! counters and quality totals.

use clockroute_core::canon::CanonHasher;
use perfbench::check::Quality;
use perfbench::gen::{self, Style, STYLES};
use perfbench::workload::{self, Ctx, Outcome, MIN_REQUESTS};
use std::path::{Path, PathBuf};
use std::process::Command;

/// The seed a run uses when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Every input text a workload sends for `seed`, in send order.
fn inputs(workload: &str, seed: u64) -> Vec<String> {
    match workload {
        "serve_hit" => {
            let set = gen::hit_working_set(seed);
            let mut texts: Vec<String> = set
                .iter()
                .flat_map(|s| STYLES.iter().map(move |&st| s.render(st)))
                .collect();
            for c in 0..2 {
                texts.extend(
                    gen::hit_requests(seed, c)
                        .into_iter()
                        .map(|(i, st)| format!("{i}:{st:?}")),
                );
            }
            texts
        }
        "serve_solve" => {
            let mut stream = gen::SolveStream::new(seed);
            (0..MIN_REQUESTS)
                .map(|j| stream.get(j).render(Style::Plain))
                .collect()
        }
        _ => gen::flow_set(seed)
            .iter()
            .map(|s| s.render(Style::Plain))
            .collect(),
    }
}

fn digest(texts: &[String]) -> u64 {
    let mut h = CanonHasher::new();
    for t in texts {
        h.write_str(t);
    }
    h.finish()
}

const WORKLOADS: [&str; 3] = ["serve_hit", "serve_solve", "flow_congested"];

#[test]
fn default_seed_inputs_are_pinned_by_hash() {
    let pinned: [(&str, u64); 3] = [
        ("serve_hit", 0xd9a5_cbd2_7d75_df56),
        ("serve_solve", 0x9252_a91a_f416_3f11),
        ("flow_congested", 0x9606_312d_33a4_e350),
    ];
    let got: Vec<(&str, u64)> = pinned
        .iter()
        .map(|&(w, _)| (w, digest(&inputs(w, DEFAULT_SEED))))
        .collect();
    assert_eq!(got, pinned, "generated inputs changed");
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_another_seed_others() {
    for workload in WORKLOADS {
        assert_eq!(inputs(workload, 5), inputs(workload, 5), "{workload}");
        assert_ne!(inputs(workload, 5), inputs(workload, 6), "{workload}");
    }
}

#[test]
fn textual_variants_parse_to_the_same_fingerprint() {
    for s in gen::hit_working_set(DEFAULT_SEED).iter().take(3) {
        let keys: Vec<u64> = STYLES
            .iter()
            .map(|&st| {
                let parsed =
                    clockroute_cli::scenario::parse(&s.render(st)).expect("valid scenario");
                clockroute_service::keys::scenario_key(&parsed)
            })
            .collect();
        assert!(keys.windows(2).all(|w| w[0] == w[1]), "{keys:?}");
        assert_ne!(s.render(Style::Plain), s.render(Style::Crlf));
    }
}

/// Builds the release binaries the runs drive and returns their
/// directory.
fn bin_dir() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| root.join("target"));
    let target = if target.is_absolute() {
        target
    } else {
        root.join(target)
    };
    let status = Command::new(env!("CARGO"))
        .args(["build", "--release", "--offline", "--quiet", "--bins"])
        .args(["-p", "clockroute-service", "-p", "clockroute-cli"])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("spawn cargo");
    assert!(status.success(), "building crserve and crplan failed");
    target.join("release")
}

/// The exact part of a traced run: every count (not the timings) and
/// the quality totals.
fn exact_part(out: &Outcome) -> (Vec<(String, f64)>, Quality) {
    let counts = out
        .metrics
        .0
        .iter()
        .filter(|m| matches!(m.unit, "count" | "bytes" | "ratio"))
        .map(|m| (m.name.clone(), m.value))
        .collect();
    (counts, out.quality)
}

#[test]
fn traced_runs_with_one_seed_repeat_counters_and_quality() {
    let bins = bin_dir();
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("perfbench-determinism");
    for workload in WORKLOADS {
        let run = |n: usize| {
            let ctx = Ctx {
                bin_dir: bins.clone(),
                work: work.join(format!("{workload}-{n}")),
                seed: 3,
                seconds: 0.5,
            };
            let out = match workload {
                "serve_hit" => workload::serve_hit(&ctx, true),
                "serve_solve" => workload::serve_solve(&ctx, true),
                _ => workload::flow_congested(&ctx, true),
            }
            .expect("traced run completes");
            assert!(
                out.errors.is_empty() && out.failed == 0,
                "{workload}: {:?}",
                out.errors
            );
            exact_part(&out)
        };
        let (first, second) = (run(1), run(2));
        assert!(
            first.0.iter().any(|(_, v)| *v > 0.0),
            "{workload} counted nothing"
        );
        assert_eq!(
            first, second,
            "{workload}: counters or quality differ between runs"
        );
    }
}
