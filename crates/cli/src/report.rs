//! The textual plan report, shared between `crplan` and `crserve`.
//!
//! Byte-identity is a contract, not a convenience: the service's cache
//! hit / warm-start / cold paths all promise to return exactly what a
//! cold `crplan --quiet` run prints for the same scenario, and the
//! property tests compare the bytes. Keeping the renderer in one place
//! makes that promise structural — there is no second formatter to
//! drift.

use clockroute_plan::Plan;
use std::fmt::Write;

/// Renders the per-net result lines — one [`clockroute_plan::NetResult`]
/// `Display` line per net, in planning order, each newline-terminated.
/// This is precisely what `crplan --quiet` writes to stdout.
pub fn plan_report(plan: &Plan) -> String {
    let mut out = String::new();
    for r in plan.results() {
        // Infallible: `fmt::Write` for `String` never errors.
        let _ = writeln!(out, "{r}");
    }
    out
}

/// The aggregate summary line `crplan` prints below the per-net report
/// (suppressed by `--quiet`, so not part of the byte-identity surface —
/// but shared so both binaries describe a plan the same way).
pub fn summary_line(plan: &Plan) -> String {
    format!(
        "# routed {}/{} nets ({} degraded), {:.1} mm total wire, {} synchronizers, max depth {} cycles",
        plan.routed().count(),
        plan.results().len(),
        plan.degraded().count(),
        plan.total_wirelength().mm(),
        plan.total_synchronizers(),
        plan.max_cycles().unwrap_or(0)
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use clockroute_elmore::{GateLibrary, Technology};
    use clockroute_geom::units::{Length, Time};
    use clockroute_geom::Point;
    use clockroute_grid::GridGraph;
    use clockroute_plan::{NetSpec, Planner};

    fn small_plan() -> Plan {
        let g = GridGraph::open(10, 10, Length::from_um(500.0));
        let nets = vec![
            NetSpec::combinational("a", Point::new(0, 0), Point::new(9, 0)),
            NetSpec::registered(
                "b",
                Point::new(0, 5),
                Point::new(9, 5),
                Time::from_ps(400.0),
            ),
        ];
        Planner::new(g, Technology::paper_070nm(), GateLibrary::paper_library()).plan(&nets)
    }

    #[test]
    fn report_is_one_display_line_per_net() {
        let plan = small_plan();
        let report = plan_report(&plan);
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], plan.results()[0].to_string());
        assert_eq!(lines[1], plan.results()[1].to_string());
        assert!(report.ends_with('\n'));
    }

    #[test]
    fn summary_counts_match_plan() {
        let plan = small_plan();
        let s = summary_line(&plan);
        assert!(s.starts_with("# routed 2/2 nets"), "{s}");
        assert!(s.contains("synchronizers"), "{s}");
    }
}
