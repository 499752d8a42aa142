//! Search budgets: cooperative resource limits for the routing searches.
//!
//! The optimal searches are worst-case expensive (tight periods on big
//! grids can touch millions of candidates), and an interconnect planner
//! embedded in an architectural-exploration loop must never hang on one
//! hostile net. A [`SearchBudget`] bounds a single `solve` call along
//! three axes:
//!
//! * **wall clock** — a deadline measured from the start of the search;
//! * **candidates** — the number of configurations popped off the queue;
//! * **arena memory** — the number of [`Step`](crate::engine) records
//!   allocated for partial routes (the dominant allocation).
//!
//! Enforcement is *cooperative*: every search checks its meter at the top
//! of the main pop loop and returns
//! [`RouteError::BudgetExceeded`] with diagnostics when a limit trips.
//! Candidate and arena caps are exact; the wall clock is sampled every
//! [`CLOCK_CHECK_INTERVAL`] pops to keep `Instant::now` off the hot path.
//! Because a single pop can fan out into a long neighbour/buffer
//! expansion or wave-promotion burst, the searches additionally charge
//! each expansion step (`charge_expand`), where the clock is sampled
//! every [`EXPANSION_CHECK_INTERVAL`] charges — so a deadline overshoots
//! by at most one sampling interval's worth of work, never by a whole
//! expansion burst.

use crate::RouteError;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::time::{Duration, Instant};

/// How many candidate pops pass between wall-clock samples.
pub const CLOCK_CHECK_INTERVAL: u64 = 64;

/// How many expansion charges pass between wall-clock samples.
/// Expansions are an order of magnitude more frequent than pops, so the
/// interval is wider to keep `Instant::now` cost negligible.
pub const EXPANSION_CHECK_INTERVAL: u64 = 256;

/// Which search tripped a budget (diagnostic payload of
/// [`RouteError::BudgetExceeded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SearchStage {
    /// Minimum-delay buffered search ([`FastPathSpec`](crate::FastPathSpec)).
    FastPath,
    /// Single-domain registered search ([`RbpSpec`](crate::RbpSpec)).
    Rbp,
    /// Two-domain MCFIFO search ([`GalsSpec`](crate::GalsSpec)).
    Gals,
    /// Transparent-latch search ([`LatchSpec`](crate::LatchSpec)).
    Latch,
    /// Congestion-priced flow-mode routing (`clockroute-flow`).
    Flow,
}

impl fmt::Display for SearchStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SearchStage::FastPath => "fast path",
            SearchStage::Rbp => "RBP",
            SearchStage::Gals => "GALS",
            SearchStage::Latch => "latch",
            SearchStage::Flow => "flow",
        })
    }
}

/// Resource limits for one `solve` call. The default is unlimited; each
/// axis is opt-in.
///
/// # Example
///
/// ```
/// use clockroute_core::{FastPathSpec, RouteError, SearchBudget};
/// use clockroute_elmore::{Technology, GateLibrary};
/// use clockroute_grid::GridGraph;
/// use clockroute_geom::{Point, units::Length};
///
/// let graph = GridGraph::open(30, 30, Length::from_um(500.0));
/// let tech = Technology::paper_070nm();
/// let lib = GateLibrary::paper_library();
/// let err = FastPathSpec::new(&graph, &tech, &lib)
///     .source(Point::new(0, 0))
///     .sink(Point::new(29, 29))
///     .budget(SearchBudget::unlimited().with_max_candidates(3))
///     .solve()
///     .unwrap_err();
/// assert!(matches!(err, RouteError::BudgetExceeded { .. }));
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchBudget {
    deadline: Option<Duration>,
    max_candidates: Option<u64>,
    max_arena_steps: Option<usize>,
}

impl SearchBudget {
    /// No limits at all (the default).
    pub fn unlimited() -> SearchBudget {
        SearchBudget::default()
    }

    /// Limits wall-clock time from the start of the search.
    pub fn with_deadline(mut self, d: Duration) -> SearchBudget {
        self.deadline = Some(d);
        self
    }

    /// Limits the number of candidates popped off the queue.
    pub fn with_max_candidates(mut self, n: u64) -> SearchBudget {
        self.max_candidates = Some(n);
        self
    }

    /// Limits the number of arena steps (partial-route records) allocated.
    pub fn with_max_arena_steps(mut self, n: usize) -> SearchBudget {
        self.max_arena_steps = Some(n);
        self
    }

    /// `true` if no axis is limited (the meter can skip all checks).
    pub fn is_unlimited(&self) -> bool {
        self.deadline.is_none() && self.max_candidates.is_none() && self.max_arena_steps.is_none()
    }
}

/// Per-search accounting against a [`SearchBudget`].
///
/// Created once per `solve` call (or once per flow-mode phase); the
/// search invokes `charge_pop` at the top of the main pop loop with the
/// current arena size.
#[derive(Debug)]
pub struct BudgetMeter {
    budget: SearchBudget,
    stage: SearchStage,
    start: Instant,
    popped: u64,
    expansions: u64,
}

impl BudgetMeter {
    /// Starts metering a search against `budget`, stamping errors with
    /// `stage`. The wall clock starts now.
    pub fn new(budget: SearchBudget, stage: SearchStage) -> BudgetMeter {
        BudgetMeter {
            budget,
            stage,
            start: Instant::now(),
            popped: 0,
            expansions: 0,
        }
    }

    /// The error for an exhausted budget, with current diagnostics.
    pub fn exceeded(&self) -> RouteError {
        RouteError::BudgetExceeded {
            candidates: self.popped,
            elapsed: self.start.elapsed(),
            stage: self.stage,
        }
    }

    /// Accounts for one candidate pop. Returns `Err` when a limit trips.
    pub fn charge_pop(&mut self, arena_len: usize) -> Result<(), RouteError> {
        self.popped += 1;
        if self.budget.is_unlimited() {
            return Ok(());
        }
        if let Some(max) = self.budget.max_candidates {
            if self.popped > max {
                return Err(self.exceeded());
            }
        }
        if let Some(max) = self.budget.max_arena_steps {
            if arena_len > max {
                return Err(self.exceeded());
            }
        }
        if let Some(deadline) = self.budget.deadline {
            if self.popped % CLOCK_CHECK_INTERVAL == 1 && self.start.elapsed() > deadline {
                return Err(self.exceeded());
            }
        }
        Ok(())
    }

    /// Accounts for one expansion step (a neighbour visit, a buffer
    /// insertion attempt or a wave-promotion move). Only the wall clock is
    /// enforced here: a pop can fan out into arbitrarily much expansion
    /// work, and without this check a deadline could overshoot by a whole
    /// burst.
    #[inline]
    pub fn charge_expand(&mut self) -> Result<(), RouteError> {
        let Some(deadline) = self.budget.deadline else {
            return Ok(());
        };
        self.expansions += 1;
        if self.expansions.is_multiple_of(EXPANSION_CHECK_INTERVAL)
            && self.start.elapsed() > deadline
        {
            return Err(self.exceeded());
        }
        Ok(())
    }

    /// A meter for work done off to the side, to be charged here later
    /// with [`absorb`](BudgetMeter::absorb): same budget, same stage,
    /// same start instant, and this meter's pop and expansion counts as
    /// its base. A fork trips no earlier than this meter would on the
    /// same work, since it sees only part of what the two will carry in
    /// the end.
    pub fn fork(&self) -> BudgetMeter {
        BudgetMeter {
            budget: self.budget,
            stage: self.stage,
            start: self.start,
            popped: self.popped,
            expansions: self.expansions,
        }
    }

    /// Charges `pops` candidate pops and `expands` expansion steps that
    /// forks of this meter already made, unless charging them one at a
    /// time could have tripped here: the pops would pass the candidate
    /// cap, or the deadline has passed. Then nothing is charged and the
    /// error is returned, so the caller can redo the work on this meter
    /// and trip where that would. Arena caps are the forks' to enforce,
    /// pop by pop.
    pub fn absorb(&mut self, pops: u64, expands: u64) -> Result<(), RouteError> {
        let popped = self.popped + pops;
        let over_cap = self.budget.max_candidates.is_some_and(|max| popped > max);
        let late = self
            .budget
            .deadline
            .is_some_and(|deadline| self.start.elapsed() > deadline);
        if over_cap || late {
            return Err(self.exceeded());
        }
        self.popped = popped;
        if self.budget.deadline.is_some() {
            self.expansions += expands;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorbing_forked_work_matches_charging_it_here() {
        let budget = SearchBudget::unlimited().with_max_candidates(10);
        let mut meter = BudgetMeter::new(budget, SearchStage::Flow);
        for _ in 0..4 {
            assert!(meter.charge_pop(0).is_ok());
        }
        // Two forks popping 3 each fit under the cap from a base of 4 ...
        let mut forks = [meter.fork(), meter.fork()];
        for fork in &mut forks {
            for _ in 0..3 {
                assert!(fork.charge_pop(0).is_ok());
            }
        }
        assert!(meter.absorb(6, 0).is_ok());
        assert_eq!(meter.popped, 10);
        // ... and one pop more would trip: absorbing it fails and charges
        // nothing, so a redo on this meter trips on that very pop.
        assert!(matches!(
            meter.absorb(1, 0),
            Err(RouteError::BudgetExceeded {
                candidates: 10,
                stage: SearchStage::Flow,
                ..
            })
        ));
        assert_eq!(meter.popped, 10);
        assert!(meter.charge_pop(0).is_err());
    }

    #[test]
    fn a_fork_keeps_the_deadline_and_the_clock() {
        let budget = SearchBudget::unlimited().with_deadline(Duration::ZERO);
        let meter = BudgetMeter::new(budget, SearchStage::Flow);
        assert!(meter.fork().charge_pop(0).is_err());
        let mut meter = meter;
        assert!(meter.absorb(0, 0).is_err());
    }

    #[test]
    fn unlimited_never_trips() {
        let mut meter = BudgetMeter::new(SearchBudget::unlimited(), SearchStage::FastPath);
        for _ in 0..10_000 {
            assert!(meter.charge_pop(usize::MAX).is_ok());
        }
    }

    #[test]
    fn candidate_cap_is_exact() {
        let budget = SearchBudget::unlimited().with_max_candidates(5);
        let mut meter = BudgetMeter::new(budget, SearchStage::Rbp);
        for _ in 0..5 {
            assert!(meter.charge_pop(0).is_ok());
        }
        let err = meter.charge_pop(0).unwrap_err();
        match err {
            RouteError::BudgetExceeded {
                candidates, stage, ..
            } => {
                assert_eq!(candidates, 6);
                assert_eq!(stage, SearchStage::Rbp);
            }
            other => panic!("wrong error: {other:?}"),
        }
    }

    #[test]
    fn arena_cap_trips_on_allocation_growth() {
        let budget = SearchBudget::unlimited().with_max_arena_steps(100);
        let mut meter = BudgetMeter::new(budget, SearchStage::Gals);
        assert!(meter.charge_pop(100).is_ok());
        assert!(matches!(
            meter.charge_pop(101),
            Err(RouteError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn zero_deadline_trips_on_first_sample() {
        let budget = SearchBudget::unlimited().with_deadline(Duration::ZERO);
        let mut meter = BudgetMeter::new(budget, SearchStage::Latch);
        // The first pop (popped == 1) is a clock-sample point.
        let err = meter.charge_pop(0).unwrap_err();
        assert!(matches!(
            err,
            RouteError::BudgetExceeded {
                stage: SearchStage::Latch,
                ..
            }
        ));
    }

    #[test]
    fn deadline_checked_only_at_sample_points() {
        let budget = SearchBudget::unlimited().with_deadline(Duration::ZERO);
        let mut meter = BudgetMeter::new(budget, SearchStage::FastPath);
        meter.popped = 1; // next pop is 2: not a sample point
        assert!(meter.charge_pop(0).is_ok());
    }

    #[test]
    fn expand_charges_are_free_without_deadline() {
        let budget = SearchBudget::unlimited().with_max_candidates(1);
        let mut meter = BudgetMeter::new(budget, SearchStage::Rbp);
        for _ in 0..10_000 {
            assert!(meter.charge_expand().is_ok());
        }
    }

    #[test]
    fn expand_trips_expired_deadline_within_one_interval() {
        let budget = SearchBudget::unlimited().with_deadline(Duration::ZERO);
        let mut meter = BudgetMeter::new(budget, SearchStage::Gals);
        let mut tripped_at = None;
        for i in 1..=2 * EXPANSION_CHECK_INTERVAL {
            if meter.charge_expand().is_err() {
                tripped_at = Some(i);
                break;
            }
        }
        assert_eq!(tripped_at, Some(EXPANSION_CHECK_INTERVAL));
    }

    #[test]
    fn stage_display() {
        assert_eq!(SearchStage::FastPath.to_string(), "fast path");
        assert_eq!(SearchStage::Rbp.to_string(), "RBP");
        assert_eq!(SearchStage::Gals.to_string(), "GALS");
        assert_eq!(SearchStage::Latch.to_string(), "latch");
        assert_eq!(SearchStage::Flow.to_string(), "flow");
    }
}
