//! Per-request admission control and request timing.
//!
//! This is the **only** module in `clockroute-service` that reads a
//! clock (CR003 in clippy.toml enforces that). Everything else in the crate is
//! a pure function of its inputs, which is what keeps service
//! responses byte-identical to a cold `crplan` run.
//!
//! Admission is deliberately deterministic where it matters for tests:
//! the net-count cap rejects before any clock is consulted, so a
//! too-large request always gets the same `busy` response; only the
//! in-flight permit count (a concurrency limit) and the search
//! deadline depend on runtime conditions.
//!
//! Admission is also deliberately **lock-free** (one CAS loop on an
//! atomic permit count), so it sits *outside* the
//! [`clockroute_core::lockcheck`] rank lattice: a permit can be
//! acquired or released at any point of the request path without
//! interacting with the ranked locks. That is an invariant worth
//! keeping — giving admission a mutex would force it a rank below
//! `Pool`, i.e. it could never be touched from inside a pooled worker
//! that holds anything. The permit itself, like a `SolveSlot` claim,
//! is a *resource* the rank checker cannot see; its release-on-drop
//! discipline is covered by the inflight-accounting tests instead.

use clockroute_core::SearchBudget;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Fallback per-solve estimate when no `--budget-ms` is configured,
/// used only to derive `retry_after_ms` hints.
const DEFAULT_SOLVE_MS: u64 = 25;

/// Why a request was turned away at the door.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// More requests in flight than the configured limit.
    Busy {
        /// The configured in-flight ceiling.
        limit: usize,
        /// Deterministic client back-off hint (see
        /// [`Rejection::retry_after_ms`]).
        retry_after_ms: u64,
    },
    /// The scenario declares more nets than the service accepts.
    TooLarge {
        /// Nets in the request.
        nets: usize,
        /// The configured cap.
        limit: usize,
    },
}

impl Rejection {
    /// Human-readable reason, used verbatim in `busy` responses.
    pub fn reason(&self) -> String {
        match self {
            Rejection::Busy { limit, .. } => {
                format!("too many requests in flight (limit {limit})")
            }
            Rejection::TooLarge { nets, limit } => {
                format!("scenario has {nets} nets, limit {limit}")
            }
        }
    }

    /// When the client should try again, in milliseconds — `Some` only
    /// for transient rejections ([`Rejection::Busy`]); a net-cap
    /// rejection is permanent and carries no hint. The value is a pure
    /// function of configured state (the per-net search budget, or a
    /// fixed fallback, as the worst-case time for one in-flight slot
    /// to free), so identical rejections always hint identically —
    /// tests pin exact bytes.
    pub fn retry_after_ms(&self) -> Option<u64> {
        match self {
            Rejection::Busy { retry_after_ms, .. } => Some(*retry_after_ms),
            Rejection::TooLarge { .. } => None,
        }
    }
}

/// Gatekeeper handing out in-flight permits and per-request budgets.
#[derive(Debug)]
pub struct Admission {
    max_inflight: usize,
    max_nets: usize,
    budget_ms: Option<u64>,
    inflight: AtomicUsize,
}

impl Admission {
    /// A gate admitting at most `max_inflight` concurrent solves of at
    /// most `max_nets` nets each, each under a `budget_ms` search
    /// deadline (`None` = unlimited).
    pub fn new(max_inflight: usize, max_nets: usize, budget_ms: Option<u64>) -> Admission {
        Admission {
            max_inflight,
            max_nets,
            budget_ms,
            inflight: AtomicUsize::new(0),
        }
    }

    /// Tries to admit a request for `nets` nets. The returned permit
    /// releases its in-flight slot on drop.
    ///
    /// # Errors
    ///
    /// [`Rejection::TooLarge`] when the net cap is exceeded (checked
    /// first, so it is deterministic), else [`Rejection::Busy`] when
    /// all in-flight slots are taken.
    pub fn try_admit(&self, nets: usize) -> Result<Permit<'_>, Rejection> {
        if nets > self.max_nets {
            return Err(Rejection::TooLarge {
                nets,
                limit: self.max_nets,
            });
        }
        let mut current = self.inflight.load(Ordering::Acquire);
        loop {
            if current >= self.max_inflight {
                return Err(Rejection::Busy {
                    limit: self.max_inflight,
                    retry_after_ms: self.budget_ms.unwrap_or(DEFAULT_SOLVE_MS).max(1),
                });
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => return Ok(Permit { gate: self }),
                Err(actual) => current = actual,
            }
        }
    }

    /// The search budget every admitted solve runs under. Server-global
    /// by design: the budget is part of the solve's observable
    /// behaviour (a blown deadline degrades nets), so letting clients
    /// pick per-request budgets would poison the result cache.
    pub fn budget(&self) -> SearchBudget {
        match self.budget_ms {
            Some(ms) => SearchBudget::unlimited().with_deadline(Duration::from_millis(ms)),
            None => SearchBudget::unlimited(),
        }
    }

    /// Requests currently being solved.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::Acquire)
    }
}

/// An admitted request's slot; dropping it frees the slot.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a Admission,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        self.gate.inflight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Wall-clock timer for the `service.request.ns` span.
#[derive(Debug)]
pub struct RequestTimer {
    start: Instant,
}

impl RequestTimer {
    /// Starts timing now.
    #[allow(clippy::new_without_default)]
    #[expect(
        clippy::disallowed_methods,
        reason = "the admission gate is a clock seam: request timings feed service metrics, never response bytes"
    )]
    pub fn start() -> RequestTimer {
        RequestTimer {
            start: Instant::now(),
        }
    }

    /// Nanoseconds elapsed since [`RequestTimer::start`], saturated to
    /// `u64`.
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_cap_rejects_deterministically() {
        let gate = Admission::new(4, 10, None);
        let err = gate.try_admit(11).unwrap_err();
        assert_eq!(
            err,
            Rejection::TooLarge {
                nets: 11,
                limit: 10
            }
        );
        assert!(err.reason().contains("11 nets"));
        assert_eq!(gate.inflight(), 0, "no slot consumed on rejection");
    }

    #[test]
    fn permits_bound_concurrency_and_release_on_drop() {
        let gate = Admission::new(2, 100, None);
        let a = gate.try_admit(1).unwrap();
        let b = gate.try_admit(1).unwrap();
        let err = gate.try_admit(1).unwrap_err();
        assert_eq!(
            err,
            Rejection::Busy {
                limit: 2,
                retry_after_ms: 25
            }
        );
        assert!(err.reason().contains("limit 2"));
        drop(a);
        let c = gate.try_admit(1).unwrap();
        drop(b);
        drop(c);
        assert_eq!(gate.inflight(), 0);
    }

    #[test]
    fn budget_reflects_configuration() {
        assert!(Admission::new(1, 1, None).budget().is_unlimited());
        assert!(!Admission::new(1, 1, Some(5)).budget().is_unlimited());
    }

    #[test]
    fn retry_hint_tracks_the_budget_and_is_absent_for_permanent_rejects() {
        let gate = Admission::new(1, 10, Some(300));
        let _held = gate.try_admit(1).unwrap();
        let busy = gate.try_admit(1).unwrap_err();
        assert_eq!(busy.retry_after_ms(), Some(300));
        let too_large = gate.try_admit(11).unwrap_err();
        assert_eq!(too_large.retry_after_ms(), None, "no point retrying");
        // Unbudgeted services fall back to a fixed, still-deterministic
        // hint.
        let gate = Admission::new(1, 10, None);
        let _held = gate.try_admit(1).unwrap();
        assert_eq!(gate.try_admit(1).unwrap_err().retry_after_ms(), Some(25));
    }

    #[test]
    fn timer_is_monotonic() {
        let t = RequestTimer::start();
        let a = t.elapsed_ns();
        let b = t.elapsed_ns();
        assert!(b >= a);
    }
}
