//! Flow-mode telemetry summary and the congestion/overflow report
//! section.
//!
//! Everything here is keyed and iterated through `BTreeMap` (CR006,
//! clippy.toml): the rendered section is part of `crplan`'s non-quiet output
//! and must be byte-identical across runs and `--jobs` values.

use clockroute_grid::EdgeKey;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// How the flow run produced its plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowMode {
    /// No edge anywhere had a finite capacity, so the run delegated
    /// wholesale to the sequential planner (byte-identical output).
    Delegated,
    /// The capacitated pipeline ran: initial routing, rip-up and
    /// corridor legalization.
    Priced,
}

/// Everything the flow run learned about congestion, for reporting and
/// benchmarking.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// Delegated or priced.
    pub mode: FlowMode,
    /// Rip-ups that moved a net onto a new geometry.
    pub ripups: u64,
    /// `true` when a `SearchBudget` deadline cut a phase short (the
    /// plan still completes via the degradation ladder).
    pub budget_exhausted: bool,
    /// Final total overflow of the integral plan's actual routes.
    pub total_overflow: u64,
    /// Final worst single-edge overflow.
    pub max_overflow: u32,
    /// Final overloaded edges: canonical key → `(usage, cap)`.
    pub overloaded: BTreeMap<EdgeKey, (u32, u32)>,
}

impl FlowSummary {
    /// The summary of a wholesale delegation to the sequential planner.
    pub fn delegated() -> FlowSummary {
        FlowSummary {
            mode: FlowMode::Delegated,
            ripups: 0,
            budget_exhausted: false,
            total_overflow: 0,
            max_overflow: 0,
            overloaded: BTreeMap::new(),
        }
    }

    /// `true` when every capacitated edge ended within its capacity.
    pub fn is_feasible(&self) -> bool {
        self.total_overflow == 0
    }

    /// Renders the congestion/overflow section appended to the plan
    /// report in flow mode. Deterministic: overloaded edges iterate in
    /// canonical key order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        match self.mode {
            FlowMode::Delegated => {
                out.push_str("congestion: unconstrained (delegated to sequential planner)\n");
            }
            FlowMode::Priced => {
                let _ = writeln!(
                    out,
                    "congestion: rip-ups {} | overflow total {} max {}{}",
                    self.ripups,
                    self.total_overflow,
                    self.max_overflow,
                    if self.budget_exhausted {
                        " | budget exhausted"
                    } else {
                        ""
                    },
                );
                for (&(ax, ay, bx, by), &(usage, cap)) in &self.overloaded {
                    let _ = writeln!(
                        out,
                        "  overloaded ({ax}, {ay})-({bx}, {by}): usage {usage} > cap {cap}"
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delegated_render_is_one_line() {
        let s = FlowSummary::delegated();
        assert!(s.is_feasible());
        assert_eq!(
            s.render(),
            "congestion: unconstrained (delegated to sequential planner)\n"
        );
    }

    #[test]
    fn priced_render_lists_overloads_in_key_order() {
        let mut overloaded = BTreeMap::new();
        overloaded.insert((5, 1, 5, 2), (3, 1));
        overloaded.insert((0, 0, 1, 0), (4, 2));
        let s = FlowSummary {
            mode: FlowMode::Priced,
            ripups: 2,
            budget_exhausted: false,
            total_overflow: 4,
            max_overflow: 2,
            overloaded,
        };
        assert!(!s.is_feasible());
        let text = s.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "congestion: rip-ups 2 | overflow total 4 max 2");
        // Canonical key order: (0,0)-(1,0) before (5,1)-(5,2).
        assert_eq!(lines[1], "  overloaded (0, 0)-(1, 0): usage 4 > cap 2");
        assert_eq!(lines[2], "  overloaded (5, 1)-(5, 2): usage 3 > cap 1");
    }

    #[test]
    fn budget_exhaustion_is_flagged() {
        let s = FlowSummary {
            budget_exhausted: true,
            mode: FlowMode::Priced,
            ..FlowSummary::delegated()
        };
        assert!(s.render().contains("budget exhausted"));
    }
}
