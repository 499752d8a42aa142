//! Flow-mode telemetry summary and the congestion/overflow report
//! section.
//!
//! Everything here is keyed and iterated through `BTreeMap` (crlint
//! CR006): the rendered section is part of `crplan`'s non-quiet output
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
    /// The capacitated price-directed pipeline ran.
    Priced,
}

/// Per-round congestion statistics of the fractional phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RoundStats {
    /// Round index (0-based).
    pub round: u32,
    /// Sum over capacitated edges of `max(0, usage − cap)`.
    pub total_overflow: u64,
    /// Worst single-edge overflow.
    pub max_overflow: u32,
}

/// Everything the flow run learned about congestion, for reporting and
/// benchmarking.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSummary {
    /// Delegated or priced.
    pub mode: FlowMode,
    /// Fractional rounds actually run.
    pub rounds: u32,
    /// Multiplicative price updates applied across all rounds.
    pub price_updates: u64,
    /// Rip-up-and-reroute operations in the integralization phase.
    pub ripups: u64,
    /// The rounding seed the integralization used.
    pub seed: u64,
    /// `true` when a `SearchBudget` deadline cut a phase short (the
    /// plan still completes via the degradation ladder).
    pub budget_exhausted: bool,
    /// Best (lowest) total overflow seen across fractional rounds. Every
    /// round routes each net on one path, so a round's overflow belongs
    /// to a feasible routing: this is an *upper* bound on the optimum,
    /// not a lower bound.
    pub best_fractional_overflow: Option<u64>,
    /// Per-round fractional congestion.
    pub round_stats: Vec<RoundStats>,
    /// Final total overflow of the integral plan's actual routes.
    pub total_overflow: u64,
    /// Final worst single-edge overflow.
    pub max_overflow: u32,
    /// Final overloaded edges: canonical key → `(usage, cap)`.
    pub overloaded: BTreeMap<EdgeKey, (u32, u32)>,
}

impl FlowSummary {
    /// The summary of a wholesale delegation to the sequential planner.
    pub fn delegated(seed: u64) -> FlowSummary {
        FlowSummary {
            mode: FlowMode::Delegated,
            rounds: 0,
            price_updates: 0,
            ripups: 0,
            seed,
            budget_exhausted: false,
            best_fractional_overflow: None,
            round_stats: Vec::new(),
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
                    "congestion: rounds {} | price updates {} | rip-ups {} | overflow total {} max {}{}",
                    self.rounds,
                    self.price_updates,
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
        let s = FlowSummary::delegated(7);
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
            rounds: 4,
            price_updates: 9,
            ripups: 2,
            seed: 0,
            budget_exhausted: false,
            best_fractional_overflow: Some(1),
            round_stats: vec![RoundStats {
                round: 0,
                total_overflow: 5,
                max_overflow: 3,
            }],
            total_overflow: 4,
            max_overflow: 2,
            overloaded,
        };
        assert!(!s.is_feasible());
        let text = s.render();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(
            lines[0],
            "congestion: rounds 4 | price updates 9 | rip-ups 2 | overflow total 4 max 2"
        );
        // Canonical key order: (0,0)-(1,0) before (5,1)-(5,2).
        assert_eq!(lines[1], "  overloaded (0, 0)-(1, 0): usage 4 > cap 2");
        assert_eq!(lines[2], "  overloaded (5, 1)-(5, 2): usage 3 > cap 1");
    }

    #[test]
    fn budget_exhaustion_is_flagged() {
        let s = FlowSummary {
            budget_exhausted: true,
            mode: FlowMode::Priced,
            ..FlowSummary::delegated(0)
        };
        assert!(s.render().contains("budget exhausted"));
    }
}
