//! End-to-end CLI-layer tests: scenario text → parser → planner →
//! validated results, plus parser robustness fuzzing.

#![allow(clippy::disallowed_methods, clippy::disallowed_types)]

use clockroute_cli::scenario;
use clockroute_core::drc;
use clockroute_elmore::GateLibrary;
use clockroute_grid::GridGraph;
use clockroute_plan::{NetKind, Planner};
use proptest::prelude::*;

const SCENARIO: &str = "\
die 12mm 12mm
grid 24 24
tech paper

block hard 8 8 14 14
block regkeepout 2 16 8 22

net reg  name=east src=0,11 dst=23,11 period=400
net gals name=south src=11,0 dst=11,23 ts=300 tt=350
net comb name=diag src=0,0 dst=23,23
";

#[test]
fn scenario_plans_and_passes_drc() {
    let s = scenario::parse(SCENARIO).expect("valid scenario");
    let (gw, gh) = s.grid;
    let graph = GridGraph::from_floorplan(&s.floorplan, gw, gh);
    let lib = GateLibrary::paper_library();
    let plan = Planner::new(graph.clone(), s.tech, lib.clone()).plan(&s.nets);
    assert_eq!(
        plan.routed().count(),
        3,
        "{:?}",
        plan.failed().collect::<Vec<_>>()
    );

    // Every routed net passes the full design-rule check for its kind.
    // (Check against the *pre-reservation* grid: reservation mutates the
    // planner's private copy to exclude other nets, not this one.)
    for (net, result) in s.nets.iter().zip(plan.results()) {
        let path = result.path.as_ref().expect("routed");
        let rule = match net.kind {
            NetKind::Combinational => drc::ClockRule::Unconstrained,
            NetKind::Registered { period } => drc::ClockRule::SingleDomain(period),
            NetKind::Gals { t_s, t_t } => drc::ClockRule::TwoDomain { t_s, t_t },
        };
        let violations = drc::check(path, &graph, &s.tech, &lib, rule);
        assert!(violations.is_empty(), "net {}: {:?}", net.name, violations);
    }
}

#[test]
fn reservation_respected_between_scenario_nets() {
    let s = scenario::parse(SCENARIO).expect("valid scenario");
    let (gw, gh) = s.grid;
    let graph = GridGraph::from_floorplan(&s.floorplan, gw, gh);
    let lib = GateLibrary::paper_library();
    let plan = Planner::new(graph, s.tech, lib).plan(&s.nets);
    // No two routed nets share an (undirected) edge.
    let mut used = std::collections::HashSet::new();
    for result in plan.routed() {
        for w in result.path.as_ref().expect("routed").points().windows(2) {
            let key = if (w[0].x, w[0].y) <= (w[1].x, w[1].y) {
                (w[0], w[1])
            } else {
                (w[1], w[0])
            };
            assert!(used.insert(key), "edge {key:?} used twice");
        }
    }
}

mod binary {
    //! Tests that drive the compiled `crplan` binary end to end,
    //! including the resilience flags and the fault-injection env hook.

    use std::ffi::OsStr;
    use std::io::Write;
    use std::path::{Path, PathBuf};
    use std::process::Command;
    use std::time::Instant;

    fn crplan() -> Command {
        Command::new(env!("CARGO_BIN_EXE_crplan"))
    }

    /// A path in the system temp directory, unique to this process,
    /// whose file is removed when the guard drops — also when the test
    /// that made it fails.
    struct TempPath(PathBuf);

    impl TempPath {
        fn new(name: &str) -> TempPath {
            TempPath(std::env::temp_dir().join(format!("crplan-e2e-{name}-{}", std::process::id())))
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    impl std::ops::Deref for TempPath {
        type Target = Path;
        fn deref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<Path> for TempPath {
        fn as_ref(&self) -> &Path {
            &self.0
        }
    }

    impl AsRef<OsStr> for TempPath {
        fn as_ref(&self) -> &OsStr {
            self.0.as_os_str()
        }
    }

    /// Writes `text` to a unique temp file and returns its guard.
    fn scenario_file(tag: &str, text: &str) -> TempPath {
        let path = TempPath::new(&format!("{tag}.cr"));
        let mut f = std::fs::File::create(&path).expect("create scenario");
        f.write_all(text.as_bytes()).expect("write scenario");
        path
    }

    const SMALL: &str = "\
die 8mm 8mm
grid 16 16
net comb name=a src=0,0 dst=15,15
net reg  name=b src=0,4 dst=15,4 period=400
";

    #[test]
    fn clean_run_exits_zero_and_reports_every_net() {
        let path = scenario_file("clean", SMALL);
        let out = crplan().arg(&path).output().expect("run crplan");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.contains("a:"), "{stdout}");
        assert!(stdout.contains("b:"), "{stdout}");
        assert!(stdout.contains("(0 degraded)"), "{stdout}");
    }

    #[test]
    fn parse_error_exits_two_with_line_number() {
        let path = scenario_file(
            "badparse",
            "die 8mm 8mm\ngrid 0 0\nnet comb name=a src=0,0 dst=1,1\n",
        );
        let out = crplan().arg(&path).output().expect("run crplan");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("line 2"), "{stderr}");
    }

    #[test]
    fn unknown_flag_exits_two_with_usage() {
        let out = crplan().arg("--bogus").output().expect("run crplan");
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }

    #[test]
    fn bad_failpoint_spec_exits_two() {
        let path = scenario_file("badfp", SMALL);
        let out = crplan()
            .arg(&path)
            .env("CLOCKROUTE_FAILPOINTS", "fastpath::pop=explode@1")
            .output()
            .expect("run crplan");
        assert_eq!(out.status.code(), Some(2));
        assert!(String::from_utf8_lossy(&out.stderr).contains("CLOCKROUTE_FAILPOINTS"));
    }

    #[test]
    fn forced_noroute_degrades_and_strict_flips_exit_code() {
        let path = scenario_file("strict", SMALL);
        // One-shot: only net `a`'s optimal attempt fails; the coarse
        // retry lands, so the run is degraded-but-successful.
        let out = crplan()
            .arg(&path)
            .env("CLOCKROUTE_FAILPOINTS", "fastpath::pop=noroute@1")
            .output()
            .expect("run crplan");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.contains("degraded"), "{stdout}");

        let out = crplan()
            .arg(&path)
            .arg("--strict")
            .env("CLOCKROUTE_FAILPOINTS", "fastpath::pop=noroute@1")
            .output()
            .expect("run crplan");
        assert_eq!(out.status.code(), Some(1), "strict must fail degraded runs");
    }

    #[test]
    fn forced_panic_is_contained_by_the_planner() {
        let path = scenario_file("panic", SMALL);
        let out = crplan()
            .arg(&path)
            .env("CLOCKROUTE_FAILPOINTS", "fastpath::pop=panic@1")
            .output()
            .expect("run crplan");
        // The process must terminate normally (no abort), with net `a`
        // rescued by a lower rung and net `b` untouched.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.code().is_some(), "process was killed by signal");
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.contains("a:"), "{stdout}");
        assert!(stdout.contains("b:"), "{stdout}");
    }

    /// A congested scenario where routes genuinely compete, so the
    /// parallel scheduler must defer and re-route some nets — the full
    /// report (routes, latencies, wirelengths, summary) must still be
    /// byte-identical to the sequential run.
    const CONGESTED: &str = "\
die 10mm 10mm
grid 20 20
net reg  name=h0 src=0,9 dst=19,9 period=400
net reg  name=v0 src=9,0 dst=9,19 period=400
net reg  name=h1 src=0,10 dst=19,10 period=400
net reg  name=v1 src=10,0 dst=10,19 period=400
net comb name=d0 src=0,0 dst=19,19
";

    #[test]
    fn jobs_flag_does_not_change_the_report() {
        let path = scenario_file("jobs", CONGESTED);
        let run = |jobs: &str| {
            let out = crplan()
                .arg(&path)
                .arg("--jobs")
                .arg(jobs)
                .output()
                .expect("run crplan");
            assert!(out.status.code().is_some(), "killed by signal");
            (
                out.status.code(),
                String::from_utf8_lossy(&out.stdout).into_owned(),
            )
        };
        let sequential = run("1");
        assert!(sequential.1.contains("h0:"), "{}", sequential.1);
        assert_eq!(sequential, run("2"));
        assert_eq!(sequential, run("4"));
    }

    /// The repo's stress scenario: congested die, one infeasible net, one
    /// GALS crossing — exercises every search stage and the degradation
    /// ladder at once.
    fn stress_scenario() -> std::path::PathBuf {
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios/stress.cr")
    }

    /// Unique temp-file path for a run artifact, removed on drop.
    fn artifact(tag: &str) -> TempPath {
        TempPath::new(tag)
    }

    #[test]
    fn metrics_file_is_byte_identical_across_job_counts() {
        let scenario = stress_scenario();
        let run = |jobs: &str, tag: &str| {
            let metrics = artifact(&format!("metrics-{tag}.json"));
            let out = crplan()
                .arg(&scenario)
                .arg("--jobs")
                .arg(jobs)
                .arg("--metrics")
                .arg(&metrics)
                .output()
                .expect("run crplan");
            assert!(out.status.code().is_some(), "killed by signal");
            std::fs::read(&metrics).expect("metrics file written")
        };
        let sequential = run("1", "j1");
        assert_eq!(sequential, run("4", "j4"), "metrics depend on --jobs");
        assert_eq!(sequential, run("1", "j1b"), "metrics not reproducible");
    }

    #[test]
    fn metrics_and_trace_files_are_well_formed() {
        use clockroute_core::json::{validate_json, validate_jsonl};
        let scenario = stress_scenario();
        let metrics = artifact("wellformed.json");
        let trace = artifact("wellformed.jsonl");
        let out = crplan()
            .arg(&scenario)
            .arg("--metrics")
            .arg(&metrics)
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("run crplan");
        assert!(out.status.code().is_some(), "killed by signal");

        let json = std::fs::read_to_string(&metrics).expect("metrics written");
        validate_json(&json).expect("metrics must be one valid JSON object");
        assert!(json.contains("\"plan.nets.routed\""), "{json}");
        assert!(json.contains("\"search.rbp.pops\""), "{json}");
        assert!(json.contains("\"search.gals.pops\""), "{json}");

        let jsonl = std::fs::read_to_string(&trace).expect("trace written");
        validate_jsonl(&jsonl).expect("trace must be valid JSONL");
        assert!(jsonl.lines().count() > 10, "suspiciously short trace");
        // Trace-only records: spans carry wall-clock, events scheduling.
        assert!(jsonl.contains("\"kind\":\"span\""), "{jsonl}");
        assert!(jsonl.contains("\"kind\":\"event\""), "{jsonl}");
        // And the deterministic stream is in there too.
        assert!(jsonl.contains("\"kind\":\"counter\""), "{jsonl}");
    }

    #[test]
    fn unwritable_metrics_path_exits_two_before_solving() {
        let path = scenario_file("badmetrics", SMALL);
        let start = Instant::now();
        let out = crplan()
            .arg(&path)
            .arg("--metrics")
            .arg("/nonexistent-dir/metrics.json")
            .output()
            .expect("run crplan");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot create /nonexistent-dir/metrics.json"),
            "{stderr}"
        );
        // The failure is preflighted: nothing was planned first, so no
        // per-net report line reached stdout.
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("a:"), "solved before failing: {stdout}");
        assert!(start.elapsed().as_secs() < 30, "did not fail fast");
    }

    #[test]
    fn unwritable_trace_path_exits_two() {
        let path = scenario_file("badtrace", SMALL);
        let out = crplan()
            .arg(&path)
            .arg("--trace")
            .arg("/nonexistent-dir/trace.jsonl")
            .output()
            .expect("run crplan");
        assert_eq!(out.status.code(), Some(2));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("cannot create /nonexistent-dir/trace.jsonl"),
            "{stderr}"
        );
    }

    #[test]
    fn crlf_scenario_plans_identically_to_lf() {
        let lf_path = scenario_file("lf", SMALL);
        let crlf_path = scenario_file("crlf", &SMALL.replace('\n', "\r\n"));
        let run = |p: &std::path::Path| {
            let out = crplan().arg(p).arg("--quiet").output().expect("run crplan");
            assert!(out.status.success());
            out.stdout
        };
        assert_eq!(
            run(&lf_path),
            run(&crlf_path),
            "CRLF must not change the plan"
        );
    }

    /// The link `crserve` relies on for its byte-identity contract:
    /// `crplan --quiet` stdout is exactly the shared library renderer's
    /// output (`report::plan_report`). The service crate asserts its
    /// responses embed `plan_report` bytes; together with this test
    /// that makes hit/warm/cold responses byte-identical to the CLI.
    #[test]
    fn quiet_stdout_is_exactly_the_library_report() {
        use clockroute_cli::{report, scenario};
        use clockroute_core::SearchBudget;
        use clockroute_elmore::GateLibrary;
        use clockroute_grid::GridGraph;
        use clockroute_plan::Planner;

        let path = scenario_file("libreport", SMALL);
        let out = crplan()
            .arg(&path)
            .arg("--quiet")
            .output()
            .expect("run crplan");
        assert!(out.status.success());

        let s = scenario::parse(SMALL).expect("parse");
        let (gw, gh) = s.grid;
        let plan = Planner::new(
            GridGraph::from_floorplan(&s.floorplan, gw, gh),
            s.tech,
            GateLibrary::paper_library(),
        )
        .reserve_routes(s.reserve)
        .budget(SearchBudget::unlimited())
        .jobs(1)
        .plan(&s.nets);
        assert_eq!(
            String::from_utf8_lossy(&out.stdout),
            report::plan_report(&plan),
            "--quiet stdout must be plan_report verbatim"
        );
    }

    #[test]
    fn report_includes_telemetry_summary_table() {
        let scenario = stress_scenario();
        let out = crplan().arg(&scenario).output().expect("run crplan");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(stdout.contains("# telemetry"), "{stdout}");
        assert!(stdout.contains("search.rbp.pops"), "{stdout}");
        assert!(stdout.contains("plan.nets.routed"), "{stdout}");
        // --quiet suppresses the table along with the rest of the chrome.
        let out = crplan()
            .arg(&scenario)
            .arg("--quiet")
            .output()
            .expect("run crplan");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("# telemetry"), "{stdout}");
    }

    #[test]
    fn bad_jobs_value_exits_two() {
        let path = scenario_file("badjobs", SMALL);
        for bad in ["0", "many", "-1"] {
            let out = crplan()
                .arg(&path)
                .arg("--jobs")
                .arg(bad)
                .output()
                .expect("run crplan");
            assert_eq!(out.status.code(), Some(2), "--jobs {bad}");
            assert!(String::from_utf8_lossy(&out.stderr).contains("--jobs"));
        }
        let out = crplan()
            .arg(&path)
            .arg("--jobs")
            .output()
            .expect("run crplan");
        assert_eq!(out.status.code(), Some(2), "missing value");
    }

    /// A capacitated contention scenario for the flow-mode tests: three
    /// identical-terminal nets on a unit-capacity channel.
    const FLOW_CONGESTED: &str = "\
die 7mm 5mm
grid 7 5
reserve off
capacity default 1
net comb name=s0 src=0,2 dst=6,2
net comb name=s1 src=0,2 dst=6,2
net comb name=s2 src=0,2 dst=6,2
";

    /// Flow mode has no knob: `--flow-iters` and `--flow-seed` are
    /// unknown arguments, with or without `--flow`.
    #[test]
    fn removed_flow_flags_exit_two() {
        let path = scenario_file("flowflags", SMALL);
        for flag in ["--flow-iters", "--flow-seed"] {
            for args in [&[flag, "3"][..], &["--flow", flag, "3"][..]] {
                let out = crplan().arg(&path).args(args).output().expect("run crplan");
                assert_eq!(out.status.code(), Some(2), "{args:?}");
                let stderr = String::from_utf8_lossy(&out.stderr);
                assert!(
                    stderr.contains(&format!("unknown flag `{flag}`")),
                    "{args:?}: {stderr}"
                );
            }
        }
    }

    /// Satellite guarantee: on an uncongested scenario (no `capacity`
    /// directives) flow mode delegates wholesale, so `--flow --quiet` is
    /// byte-identical to the sequential `--quiet` report.
    #[test]
    fn flow_quiet_equals_sequential_quiet_when_uncongested() {
        let path = scenario_file("flowquiet", SMALL);
        let seq = crplan().arg(&path).arg("--quiet").output().expect("run");
        let flow = crplan()
            .arg(&path)
            .args(["--quiet", "--flow"])
            .output()
            .expect("run");
        assert!(seq.status.success() && flow.status.success());
        assert_eq!(
            seq.stdout, flow.stdout,
            "--flow changed an uncongested plan"
        );
    }

    /// Flow plans are a pure function of the scenario: the full report
    /// and the `--metrics` file, the oracle's exact work counts
    /// included, are byte-identical across repeat runs and across
    /// `--jobs` values.
    #[test]
    fn flow_report_is_byte_identical_across_runs_and_jobs() {
        let path = scenario_file("flowdet", FLOW_CONGESTED);
        let run = |extra: &[&str], tag: &str| {
            let metrics = artifact(&format!("flowdet-{tag}.json"));
            let out = crplan()
                .arg(&path)
                .args(["--flow", "--metrics"])
                .arg(&metrics)
                .args(extra)
                .output()
                .expect("run crplan");
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let json = std::fs::read_to_string(&metrics).expect("metrics file written");
            (out.stdout, json)
        };
        let first = run(&[], "default");
        for counter in ["\"flow.oracle.calls\"", "\"flow.oracle.pops\""] {
            assert!(first.1.contains(counter), "{counter} missing: {}", first.1);
        }
        assert_eq!(first, run(&[], "again"), "flow run not reproducible");
        for jobs in ["1", "2", "4"] {
            assert_eq!(
                first,
                run(&["--jobs", jobs], jobs),
                "--jobs {jobs} changed the plan or its metrics"
            );
        }
    }

    /// A flow batch with every net kind on a unit-capacity channel.
    const FLOW_MIXED: &str = "\
die 7mm 5mm
grid 7 5
reserve off
capacity default 1
net comb name=c0 src=0,2 dst=6,2
net reg  name=r0 src=0,2 dst=6,2 period=400
net gals name=g0 src=0,2 dst=6,2 ts=400 tt=450
net comb name=c1 src=0,1 dst=6,3
";

    /// Sticky failpoints fire in every inner legalization planner,
    /// inline at one job and on the workers at four (which re-install
    /// them per net). Either way each net lands on the same ladder rung,
    /// and the report and the `--metrics` aggregate — the `plan.nets.*`
    /// tallies and the inner planners' search counters included — are
    /// byte-identical. `plan::net` fails every attempt before a search
    /// starts; `fastpath::pop` fails only the comb nets' searches, so
    /// the reg and gals nets' search counters are in the aggregate.
    #[test]
    fn flow_failpoints_and_metrics_are_identical_across_jobs() {
        let path = scenario_file("flowfp", FLOW_MIXED);
        for spec in [
            "plan::net=panic@1+",
            "plan::net=budget@1+",
            "fastpath::pop=panic@1+",
        ] {
            let run = |jobs: &str| {
                let metrics = artifact(&format!("flowfp-{jobs}.json"));
                let out = crplan()
                    .arg(&path)
                    .args(["--flow", "--jobs", jobs, "--metrics"])
                    .arg(&metrics)
                    .env("CLOCKROUTE_FAILPOINTS", spec)
                    .output()
                    .expect("run crplan");
                assert!(out.status.success(), "{spec} --jobs {jobs}");
                let json = std::fs::read_to_string(&metrics).expect("metrics file written");
                (String::from_utf8_lossy(&out.stdout).into_owned(), json)
            };
            let one = run("1");
            assert!(one.0.contains("[degraded: "), "{spec}: {}", one.0);
            assert!(one.1.contains("\"plan.nets.degraded."), "{spec}: {}", one.1);
            if spec.starts_with("fastpath") {
                for counter in ["\"search.rbp.pops\"", "\"search.gals.pops\""] {
                    assert!(one.1.contains(counter), "{spec}: {}", one.1);
                }
            }
            assert_eq!(one, run("4"), "{spec}: --jobs 4 differs");
        }
    }

    /// The flow phase spans reach `--trace` only: `--metrics` carries
    /// no span, does not change when a trace is written, and `--quiet`
    /// stays exactly the library's report.
    #[test]
    fn flow_phase_spans_are_trace_only() {
        use clockroute_cli::{report, scenario};
        use clockroute_elmore::GateLibrary;
        use clockroute_flow::{FlowConfig, PlannerFlowExt};
        use clockroute_grid::GridGraph;
        use clockroute_plan::Planner;

        let path = scenario_file("flowspans", FLOW_CONGESTED);
        let traced_metrics = artifact("flowspans-traced.json");
        let plain_metrics = artifact("flowspans-plain.json");
        let trace = artifact("flowspans.jsonl");
        let traced = crplan()
            .arg(&path)
            .args(["--flow", "--quiet", "--metrics"])
            .arg(&traced_metrics)
            .arg("--trace")
            .arg(&trace)
            .output()
            .expect("run crplan");
        assert!(traced.status.success());
        let jsonl = std::fs::read_to_string(&trace).expect("trace written");
        let json = std::fs::read_to_string(&traced_metrics).expect("metrics written");
        for span in ["flow.oracle_ns", "flow.ripup_ns", "flow.legalize_ns"] {
            let record = format!("{{\"kind\":\"span\",\"name\":\"{span}\"");
            assert!(jsonl.contains(&record), "{span} not traced: {jsonl}");
            assert!(!json.contains(span), "{span} reached --metrics: {json}");
        }

        let plain = crplan()
            .arg(&path)
            .args(["--flow", "--quiet", "--metrics"])
            .arg(&plain_metrics)
            .output()
            .expect("run crplan");
        assert!(plain.status.success());
        assert_eq!(
            std::fs::read_to_string(&plain_metrics).expect("metrics written"),
            json,
            "writing a trace changed --metrics"
        );
        assert_eq!(
            plain.stdout, traced.stdout,
            "writing a trace changed --quiet"
        );

        let s = scenario::parse(FLOW_CONGESTED).expect("parse");
        let (gw, gh) = s.grid;
        let fp = Planner::new(
            GridGraph::from_floorplan(&s.floorplan, gw, gh),
            s.tech,
            GateLibrary::paper_library(),
        )
        .reserve_routes(s.reserve)
        .flow(&s.nets, &s.capacities, FlowConfig::default());
        assert_eq!(
            String::from_utf8_lossy(&plain.stdout),
            report::plan_report(fp.plan()),
            "--flow --quiet stdout must be plan_report verbatim"
        );
    }

    /// The congestion section is part of the non-quiet chrome only:
    /// `--quiet` stays exactly the shared `plan_report` surface that
    /// `crserve` byte-matches against.
    #[test]
    fn flow_congestion_section_respects_quiet() {
        let path = scenario_file("flowsection", FLOW_CONGESTED);
        let out = crplan().arg(&path).arg("--flow").output().expect("run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(out.status.success(), "{stdout}");
        assert!(stdout.contains("congestion:"), "{stdout}");
        let out = crplan()
            .arg(&path)
            .args(["--flow", "--quiet"])
            .output()
            .expect("run");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(!stdout.contains("congestion:"), "{stdout}");
    }

    /// The three shipped congested scenarios must all reach zero
    /// overflow under `--flow` — the flowbench quality gate relies on
    /// them staying solvable.
    #[test]
    fn shipped_congested_scenarios_reach_zero_overflow() {
        for name in ["flow_spread.cr", "flow_bridges.cr", "flow_mesh.cr"] {
            let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
                .join("../../scenarios")
                .join(name);
            let out = crplan().arg(&path).arg("--flow").output().expect("run");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "{name}: {stdout}");
            assert!(
                stdout.contains("overflow total 0 max 0"),
                "{name} left overflow: {stdout}"
            );
        }
    }

    #[test]
    fn hostile_scenario_with_budget_terminates_promptly() {
        // Dense blockage maze on a large grid with unmeetable periods:
        // unbudgeted, the RBP searches chew through an enormous candidate
        // space. The 50ms budget must bound every rung, and every net
        // must still be accounted for in the report.
        let mut text = String::from("die 40mm 40mm\ngrid 120 120\n");
        for i in 0..28 {
            let x = 4 * i + 2;
            // Alternating comb walls with one-cell gaps at alternating ends.
            if i % 2 == 0 {
                text.push_str(&format!("block obstacle {x} 0 {x} 117\n"));
            } else {
                text.push_str(&format!("block obstacle {x} 2 {x} 119\n"));
            }
        }
        for n in 0..6 {
            let y = 10 + n * 18;
            text.push_str(&format!(
                "net reg name=n{n} src=0,{y} dst=119,{} period=120\n",
                y + 3
            ));
        }
        let path = scenario_file("hostile", &text);
        let start = Instant::now();
        let out = crplan()
            .arg(&path)
            .arg("--budget-ms")
            .arg("50")
            .output()
            .expect("run crplan");
        let elapsed = start.elapsed();
        let stdout = String::from_utf8_lossy(&out.stdout);
        for n in 0..6 {
            assert!(stdout.contains(&format!("n{n}:")), "missing n{n}: {stdout}");
        }
        // Generous bound for slow CI: 6 nets × 3 rungs × 50ms ≪ 5s.
        assert!(
            elapsed.as_secs() < 5,
            "took {elapsed:?}, budget not enforced"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

    /// The parser must never panic, whatever bytes it is fed.
    #[test]
    fn parser_never_panics(text in "\\PC*") {
        let _ = scenario::parse(&text);
    }

    /// Structured-ish garbage: random directives with random arguments.
    #[test]
    fn parser_never_panics_on_directive_soup(
        lines in proptest::collection::vec(
            (
                prop_oneof![
                    Just("die"), Just("grid"), Just("tech"), Just("block"),
                    Just("net"), Just("reserve"), Just("bogus")
                ],
                proptest::collection::vec("[a-z0-9=,.m-]{0,8}", 0..6),
            ),
            0..12,
        )
    ) {
        let text: String = lines
            .iter()
            .map(|(d, args)| format!("{d} {}\n", args.join(" ")))
            .collect();
        let _ = scenario::parse(&text);
    }
}
