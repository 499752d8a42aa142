//! The paper §I's *third* solution: **wave pipelining** — several
//! wavefronts coexist on the wire with no intermediate registers.
//!
//! The key constraint is that successive waveforms must not interfere:
//! with per-datum propagation delays anywhere in `[d_min, d_max]`
//! (process/temperature/delay variation — “effects that are even more
//! pronounced for long routes”), a wave launched `Δt` after its
//! predecessor stays separated at the receiver iff
//!
//! ```text
//! Δt ≥ (d_max − d_min) + t_margin
//! ```
//!
//! Latency is `⌈d_max / T⌉` receiver cycles; the sustainable launch rate
//! is bounded by both the constraint above and the clock itself. The
//! [`WavePipe`] analysis computes these figures, and
//! [`WavePipe::simulate`] launches a token stream with randomized
//! per-token delays to *verify* non-interference (or demonstrate
//! collisions when the rate violates the constraint).

use clockroute_geom::units::Time;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Wave-pipelining feasibility analysis for one route.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WavePipe {
    d_min: Time,
    d_max: Time,
    margin: Time,
    period: Time,
}

/// Result of a wave-pipelined stream simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WavePipeReport {
    /// Tokens that arrived separated from their neighbours.
    pub delivered: usize,
    /// Pairs of consecutive waves that interfered (arrival order swap or
    /// spacing below the margin). Zero for a safe launch interval.
    pub collisions: usize,
    /// First arrival time.
    pub first_arrival: Time,
    /// Tokens per nanosecond actually sustained.
    pub throughput_tokens_per_ns: f64,
}

impl WavePipe {
    /// Creates an analysis from a route's nominal (maximum) delay, a
    /// relative delay spread (e.g. `0.1` for ±10 % → `d_min = 0.9·d_max`)
    /// and a safety margin.
    ///
    /// # Panics
    ///
    /// Panics if `d_max`/`period` are not positive and finite, or the
    /// spread is outside `[0, 1)`.
    pub fn new(d_max: Time, spread: f64, margin: Time, period: Time) -> WavePipe {
        assert!(
            d_max.ps() > 0.0 && d_max.is_finite(),
            "delay must be positive and finite"
        );
        assert!((0.0..1.0).contains(&spread), "spread must be in [0, 1)");
        assert!(
            period.ps() > 0.0 && period.is_finite(),
            "period must be positive and finite"
        );
        assert!(margin.ps() >= 0.0, "margin must be non-negative");
        WavePipe {
            d_min: d_max * (1.0 - spread),
            d_max,
            margin,
            period,
        }
    }

    /// Slowest propagation.
    pub fn d_max(&self) -> Time {
        self.d_max
    }

    /// Fastest propagation.
    pub fn d_min(&self) -> Time {
        self.d_min
    }

    /// The minimum safe interval between consecutive launches:
    /// `(d_max − d_min) + margin`.
    pub fn min_launch_interval(&self) -> Time {
        self.d_max - self.d_min + self.margin
    }

    /// Latency in receiver cycles: `⌈d_max / T⌉`.
    pub fn latency_cycles(&self) -> u32 {
        (self.d_max.ps() / self.period.ps()).ceil().max(1.0) as u32
    }

    /// Analytic latency `latency_cycles · T`.
    pub fn analytic_latency(&self) -> Time {
        self.period * f64::from(self.latency_cycles())
    }

    /// Maximum sustainable throughput in tokens per nanosecond: launches
    /// are possible every `max(min_launch_interval, T)` (the clock also
    /// bounds the rate — one launch per sender cycle).
    pub fn analytic_throughput_tokens_per_ns(&self) -> f64 {
        1.0e3 / self.min_launch_interval().ps().max(self.period.ps())
    }

    /// Number of waves simultaneously in flight at the analytic rate.
    pub fn waves_in_flight(&self) -> u32 {
        (self.d_min.ps() / self.min_launch_interval().ps().max(self.period.ps())).floor() as u32 + 1
    }

    /// Launches `tokens` waves every `interval`, each with an independent
    /// uniformly random delay in `[d_min, d_max]` (seeded), and counts
    /// interference events at the receiver.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is zero or `interval` is not positive.
    pub fn simulate(&self, tokens: usize, interval: Time, seed: u64) -> WavePipeReport {
        assert!(tokens > 0, "need at least one token");
        assert!(interval.ps() > 0.0, "interval must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut arrivals: Vec<f64> = (0..tokens)
            .map(|i| {
                let launch = interval.ps() * i as f64;
                let delay = rng.gen_range(self.d_min.ps()..=self.d_max.ps());
                launch + delay
            })
            .collect();
        let first_arrival = Time::from_ps(arrivals[0]);
        let mut collisions = 0usize;
        for w in arrivals.windows(2) {
            // Interference: the later launch arrives before (or within
            // the margin of) its predecessor.
            if w[1] - w[0] < self.margin.ps() {
                collisions += 1;
            }
        }
        arrivals.sort_by(f64::total_cmp);
        let span_ns = (arrivals[tokens - 1] - arrivals[0]).max(1e-9) * 1.0e-3;
        WavePipeReport {
            delivered: tokens - collisions,
            collisions,
            first_arrival,
            throughput_tokens_per_ns: if tokens > 1 {
                (tokens - 1) as f64 / span_ns
            } else {
                0.0
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pipe() -> WavePipe {
        // 1370 ps route, ±10 % spread, 20 ps margin, 300 ps clock.
        WavePipe::new(
            Time::from_ps(1370.0),
            0.1,
            Time::from_ps(20.0),
            Time::from_ps(300.0),
        )
    }

    #[test]
    fn analysis_figures() {
        let w = pipe();
        assert!((w.d_min().ps() - 1233.0).abs() < 1e-9);
        assert!((w.min_launch_interval().ps() - 157.0).abs() < 1e-9);
        assert_eq!(w.latency_cycles(), 5);
        assert_eq!(w.analytic_latency(), Time::from_ps(1500.0));
        // Rate bounded by the 300 ps clock, not the 157 ps constraint.
        assert!((w.analytic_throughput_tokens_per_ns() - 1.0e3 / 300.0).abs() < 1e-9);
        assert!(w.waves_in_flight() >= 4);
    }

    #[test]
    fn safe_interval_never_collides() {
        let w = pipe();
        let interval = Time::from_ps(w.min_launch_interval().ps() + 1.0);
        for seed in 0..5 {
            let r = w.simulate(500, interval, seed);
            assert_eq!(r.collisions, 0, "seed {seed}");
            assert_eq!(r.delivered, 500);
        }
    }

    #[test]
    fn aggressive_interval_collides() {
        let w = pipe();
        // Launch faster than the spread allows: must interfere sometimes.
        let interval = Time::from_ps(60.0);
        let mut total = 0;
        for seed in 0..5 {
            total += w.simulate(500, interval, seed).collisions;
        }
        assert!(total > 0, "expected interference at 60 ps spacing");
    }

    #[test]
    fn zero_spread_allows_margin_limited_rate() {
        let w = WavePipe::new(
            Time::from_ps(1000.0),
            0.0,
            Time::from_ps(50.0),
            Time::from_ps(300.0),
        );
        assert_eq!(w.min_launch_interval(), Time::from_ps(50.0));
        let r = w.simulate(100, Time::from_ps(50.0), 1);
        assert_eq!(r.collisions, 0);
    }

    #[test]
    #[should_panic(expected = "spread")]
    fn spread_validated() {
        let _ = WavePipe::new(Time::from_ps(100.0), 1.0, Time::ZERO, Time::from_ps(10.0));
    }
}
