//! Client-side retry policy for `busy` responses: bounded exponential
//! backoff with **deterministic** jitter.
//!
//! A `busy` response carries a server-computed `retry_after_ms` hint
//! (see [`crate::admission`]); the policy treats it as a floor — the
//! server knows its own budget, the client only knows how often it has
//! been told no. Jitter exists so a thundering herd of identical
//! clients decorrelates, but it is *seeded* (splitmix64 over
//! `seed ^ attempt`), so a given client's schedule is a pure function
//! of its seed: tests assert exact delay sequences, no wall clock and
//! no RNG state anywhere.
//!
//! Jitter stays **within the step**: each attempt's random spread is
//! clipped so it can never reach the next attempt's base delay, which
//! makes every schedule non-decreasing — a client never backs off
//! *less* after being told no one more time. (An earlier version
//! jittered by up to a quarter of the step unconditionally, which let
//! attempt 1's delay land below attempt 0's when the server hint
//! flattened the early steps; a unit test pins the corrected
//! schedule.)
//!
//! Used by perfbench's benchmark clients and intended for any future
//! client; the server side never sleeps — it answers `busy`
//! immediately and lets clients pace themselves.

use clockroute_core::canon::mix64;

/// Deterministic bounded-backoff schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// First-attempt backoff in milliseconds.
    pub base_ms: u64,
    /// Ceiling applied before jitter.
    pub cap_ms: u64,
    /// Attempts before giving up.
    pub max_attempts: u32,
    /// Jitter seed; two clients with different seeds decorrelate.
    pub seed: u64,
}

impl RetryPolicy {
    /// A conservative default schedule: 8 attempts, 25 ms base,
    /// 2 s cap.
    pub fn new(seed: u64) -> RetryPolicy {
        RetryPolicy {
            base_ms: 25,
            cap_ms: 2_000,
            max_attempts: 8,
            seed,
        }
    }

    /// The delay before retry number `attempt` (0-based), or `None`
    /// when the attempt budget is spent.
    ///
    /// `server_hint_ms` is the `retry_after_ms` from the rejecting
    /// `busy` response; the exponential term never goes below it. The
    /// returned delay is the step `min(cap, max(hint, base << attempt))`
    /// plus deterministic jitter of at most a quarter of the step —
    /// clipped to the gap before the *next* step, so the schedule is
    /// non-decreasing in `attempt` for any fixed hint.
    pub fn backoff_ms(&self, attempt: u32, server_hint_ms: Option<u64>) -> Option<u64> {
        if attempt >= self.max_attempts {
            return None;
        }
        let step = |a: u32| {
            let exponential = self
                .base_ms
                .checked_shl(a)
                .unwrap_or(u64::MAX)
                .max(self.base_ms);
            exponential
                .max(server_hint_ms.unwrap_or(0))
                .min(self.cap_ms)
        };
        let this = step(attempt);
        let headroom = if attempt + 1 < self.max_attempts {
            (this / 4).min(step(attempt + 1) - this)
        } else {
            this / 4 // final attempt: nothing after it to stay under
        };
        let jitter = mix64(self.seed ^ u64::from(attempt)) % (headroom + 1);
        Some(this + jitter)
    }

    /// The full schedule under a constant hint, for logs and tests.
    pub fn schedule(&self, server_hint_ms: Option<u64>) -> Vec<u64> {
        (0..self.max_attempts)
            .filter_map(|a| self.backoff_ms(a, server_hint_ms))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_per_seed() {
        let p = RetryPolicy::new(42);
        assert_eq!(p.schedule(None), p.schedule(None));
        assert_ne!(
            p.schedule(None),
            RetryPolicy::new(43).schedule(None),
            "different seeds decorrelate"
        );
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            base_ms: 10,
            cap_ms: 100,
            max_attempts: 6,
            seed: 7,
        };
        let raw: Vec<u64> = (0..6)
            .map(|a| {
                let d = p.backoff_ms(a, None).unwrap();
                // Strip jitter: the pre-jitter value is deterministic.
                let capped = (10u64 << a).min(100);
                assert!(d >= capped && d <= capped + capped / 4, "attempt {a}: {d}");
                capped
            })
            .collect();
        assert_eq!(raw, [10, 20, 40, 80, 100, 100]);
    }

    #[test]
    fn server_hint_is_a_floor_not_a_ceiling() {
        let p = RetryPolicy {
            base_ms: 10,
            cap_ms: 10_000,
            max_attempts: 3,
            seed: 0,
        };
        let with_hint = p.backoff_ms(0, Some(500)).unwrap();
        assert!(with_hint >= 500, "{with_hint}");
        let late = p.backoff_ms(2, Some(5)).unwrap();
        assert!(late >= 40, "exponential term still applies: {late}");
    }

    #[test]
    fn attempts_are_bounded() {
        let p = RetryPolicy::new(1);
        assert!(p.backoff_ms(p.max_attempts, None).is_none());
        assert_eq!(p.schedule(None).len(), p.max_attempts as usize);
    }

    #[test]
    fn jitter_never_exceeds_a_quarter() {
        for seed in 0..64u64 {
            let p = RetryPolicy::new(seed);
            for attempt in 0..p.max_attempts {
                let d = p.backoff_ms(attempt, Some(100)).unwrap();
                let capped = (p.base_ms << attempt).max(100).min(p.cap_ms);
                assert!(d >= capped && d <= capped + capped / 4);
            }
        }
    }

    #[test]
    fn schedules_are_non_decreasing_for_any_hint() {
        // Regression: jitter used to span a quarter of the step even
        // when the hint flattened successive steps, so attempt 1 could
        // back off less than attempt 0 (the pinned [59, 52, 110] row).
        for seed in 0..256u64 {
            let p = RetryPolicy::new(seed);
            for hint in [None, Some(5), Some(25), Some(50), Some(300), Some(10_000)] {
                let schedule = p.schedule(hint);
                for pair in schedule.windows(2) {
                    assert!(
                        pair[0] <= pair[1],
                        "seed {seed} hint {hint:?}: schedule decreases: {schedule:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn pinned_schedule_under_the_busy_hint() {
        // Seed 0xC10C against hint 50 ms (a saturated 1-slot gate with
        // a 50 ms budget), three busy rejections. Steps are 50, 50,
        // 100: attempt 0 has zero headroom (the next step is equal),
        // attempt 1 jitters within the 50→100 gap, attempt 2 within a
        // quarter of 100.
        let p = RetryPolicy::new(0xC10C);
        let delays: Vec<u64> = (0..3).map(|a| p.backoff_ms(a, Some(50)).unwrap()).collect();
        assert_eq!(delays, [50, 52, 110]);
    }

    #[test]
    fn shift_overflow_saturates_at_the_cap() {
        let p = RetryPolicy {
            base_ms: 1,
            cap_ms: 50,
            max_attempts: 80,
            seed: 3,
        };
        let d = p.backoff_ms(70, None).unwrap();
        assert!((50..=62).contains(&d), "{d}");
    }
}
