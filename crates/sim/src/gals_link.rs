//! Full two-domain link simulation (paper Fig. 9): source-domain relay
//! chain → MCFIFO → sink-domain relay chain, each side on its own clock.

use crate::mcfifo::McFifo;
use crate::pipeline::StallPattern;
use clockroute_geom::units::Time;
use serde::{Deserialize, Serialize};

/// Simulation results for a GALS link run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GalsLinkReport {
    /// Arrival time of the first token at the sink.
    pub first_arrival: Time,
    /// Arrival time of the last token.
    pub last_arrival: Time,
    /// Tokens delivered (must equal the tokens sent).
    pub delivered: usize,
    /// Steady-state delivery rate in tokens per nanosecond.
    pub throughput_tokens_per_ns: f64,
    /// Highest FIFO occupancy observed.
    pub fifo_max_occupancy: usize,
    /// Puts rejected by a full FIFO (back-pressure events).
    pub fifo_rejected_puts: u64,
    /// `true` if any relay station exceeded its capacity (protocol bug).
    pub overflowed: bool,
}

/// A complete sender→receiver link across two clock domains.
///
/// This is the hardware a [`GalsSolution`] describes: `Reg_s` relay
/// stations on the sender side (period `T_s`), the MCFIFO, and `Reg_t`
/// relay stations on the receiver side (period `T_t`).
///
/// ```
/// use clockroute_sim::{GalsLink, StallPattern};
/// use clockroute_geom::units::Time;
///
/// let link = GalsLink::new(2, 3, Time::from_ps(300.0), Time::from_ps(400.0), 4);
/// let report = link.simulate(100, StallPattern::None);
/// assert_eq!(report.delivered, 100);
/// assert!(!report.overflowed);
/// ```
///
/// [`GalsSolution`]: ../clockroute_core/struct.GalsSolution.html
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GalsLink {
    regs_source_side: usize,
    regs_sink_side: usize,
    t_s: Time,
    t_t: Time,
    fifo_capacity: usize,
}

impl GalsLink {
    /// Creates a link.
    ///
    /// # Panics
    ///
    /// Panics if a period is not strictly positive and finite or the FIFO
    /// capacity is zero.
    pub fn new(
        regs_source_side: usize,
        regs_sink_side: usize,
        t_s: Time,
        t_t: Time,
        fifo_capacity: usize,
    ) -> GalsLink {
        for t in [t_s, t_t] {
            assert!(
                t.ps() > 0.0 && t.is_finite(),
                "period must be positive and finite"
            );
        }
        assert!(fifo_capacity > 0, "fifo capacity must be non-zero");
        GalsLink {
            regs_source_side,
            regs_sink_side,
            t_s,
            t_t,
            fifo_capacity,
        }
    }

    /// Analytic empty-FIFO latency `T_s·(Reg_s+1) + T_t·(Reg_t+1)`
    /// (paper §IV, Fig. 10).
    pub fn analytic_latency(&self) -> Time {
        self.t_s * (self.regs_source_side as f64 + 1.0)
            + self.t_t * (self.regs_sink_side as f64 + 1.0)
    }

    /// Ideal steady-state throughput: one token per cycle of the slower
    /// clock (tokens per nanosecond).
    pub fn analytic_throughput_tokens_per_ns(&self) -> f64 {
        1.0e3 / self.t_s.ps().max(self.t_t.ps())
    }

    /// Simulates delivery of `tokens` tokens; the sink applies `stalls`
    /// on its own clock.
    ///
    /// # Panics
    ///
    /// Panics if `tokens` is zero.
    pub fn simulate(&self, tokens: usize, stalls: StallPattern) -> GalsLinkReport {
        assert!(tokens > 0, "need at least one token");
        let n_s = self.regs_source_side;
        let n_t = self.regs_sink_side;
        let mut src: Vec<Vec<usize>> = vec![Vec::new(); n_s];
        let mut src_stop: Vec<bool> = vec![false; n_s];
        let mut dst: Vec<Vec<usize>> = vec![Vec::new(); n_t];
        let mut dst_stop: Vec<bool> = vec![false; n_t];
        let mut fifo = McFifo::new(self.fifo_capacity);

        let mut launched = 0usize;
        let mut delivered = 0usize;
        let mut first_arrival = Time::ZERO;
        let mut last_arrival = Time::ZERO;
        let mut overflowed = false;

        let mut k_s: u64 = 1; // next sender edge index
        let mut k_t: u64 = 1; // next receiver edge index
        let mut rx_cycles: u64 = 0;
        let guard = (tokens as u64 + (n_s + n_t) as u64 + self.fifo_capacity as u64 + 32) * 32;
        let mut steps: u64 = 0;

        while delivered < tokens {
            steps += 1;
            if steps > guard {
                break; // protocol deadlock — reported via delivered < sent
            }
            let t_next_s = self.t_s.ps() * k_s as f64;
            let t_next_t = self.t_t.ps() * k_t as f64;
            // Process the earlier edge; ties go to the receiver so space
            // frees up before the sender pushes.
            if t_next_t <= t_next_s {
                let now = Time::from_ps(t_next_t);
                rx_cycles += 1;
                let sink_stalled = stalled(stalls, k_t);
                // Sink capture.
                if !sink_stalled {
                    let tok = if n_t > 0 {
                        pop_front(&mut dst[n_t - 1])
                    } else {
                        fifo.try_get()
                    };
                    if let Some(tok) = tok {
                        if tok == 0 {
                            first_arrival = now;
                        }
                        delivered += 1;
                        last_arrival = now;
                    }
                }
                // Inter-station moves, downstream first.
                for i in (0..n_t.saturating_sub(1)).rev() {
                    if !dst_stop[i + 1] {
                        if let Some(tok) = pop_front(&mut dst[i]) {
                            dst[i + 1].push(tok);
                        }
                    }
                }
                // First sink-side station pulls from the FIFO.
                if n_t > 0 && !dst_stop[0] {
                    if let Some(tok) = fifo.try_get() {
                        dst[0].push(tok);
                    }
                }
                for (i, st) in dst.iter().enumerate() {
                    if st.len() > 2 {
                        overflowed = true;
                    }
                    dst_stop[i] = st.len() >= 2;
                }
                k_t += 1;
            } else {
                // Sender edge.
                // Last source-side station puts into the FIFO.
                if n_s > 0 {
                    if let Some(&tok) = src[n_s - 1].first() {
                        if fifo.try_put(tok) {
                            pop_front(&mut src[n_s - 1]);
                        }
                    }
                } else if launched < tokens && fifo.try_put(launched) {
                    launched += 1;
                }
                // Inter-station moves, downstream first.
                for i in (0..n_s.saturating_sub(1)).rev() {
                    if !src_stop[i + 1] {
                        if let Some(tok) = pop_front(&mut src[i]) {
                            src[i + 1].push(tok);
                        }
                    }
                }
                // Source injects.
                if n_s > 0 && launched < tokens && !src_stop[0] {
                    src[0].push(launched);
                    launched += 1;
                }
                for (i, st) in src.iter().enumerate() {
                    if st.len() > 2 {
                        overflowed = true;
                    }
                    src_stop[i] = st.len() >= 2;
                }
                k_s += 1;
            }
        }

        let elapsed_ns = last_arrival.ns().max(self.t_t.ns() * rx_cycles as f64);
        GalsLinkReport {
            first_arrival,
            last_arrival,
            delivered,
            throughput_tokens_per_ns: delivered as f64 / elapsed_ns.max(1e-12),
            fifo_max_occupancy: fifo.max_occupancy(),
            fifo_rejected_puts: fifo.rejected_puts(),
            overflowed,
        }
    }
}

fn stalled(p: StallPattern, cycle: u64) -> bool {
    match p {
        StallPattern::None => false,
        StallPattern::EveryKth(k) => cycle.is_multiple_of(u64::from(k.max(2))),
        StallPattern::Burst { start, len } => cycle >= start && cycle < start + len,
    }
}

fn pop_front(v: &mut Vec<usize>) -> Option<usize> {
    if v.is_empty() {
        None
    } else {
        Some(v.remove(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(v: f64) -> Time {
        Time::from_ps(v)
    }

    #[test]
    fn latency_close_to_analytic_formula() {
        // Table III configurations.
        for &(ts, tt, rs, rt) in &[
            (300.0, 300.0, 0usize, 8usize),
            (200.0, 300.0, 10, 1),
            (300.0, 200.0, 1, 10),
            (300.0, 400.0, 3, 3),
            (250.0, 300.0, 2, 6),
        ] {
            let link = GalsLink::new(rs, rt, ps(ts), ps(tt), 4);
            let r = link.simulate(5, StallPattern::None);
            let analytic = link.analytic_latency().ps();
            let sim = r.first_arrival.ps();
            // Clock-phase misalignment can cost up to one cycle per
            // domain; it can never be faster than the analytic bound
            // minus one receiver cycle of capture alignment.
            assert!(
                sim >= analytic - tt - 1e-6 && sim <= analytic + ts + tt + 1e-6,
                "({ts},{tt},{rs},{rt}): sim {sim} vs analytic {analytic}"
            );
            assert!(!r.overflowed);
            assert_eq!(r.delivered, 5);
        }
    }

    #[test]
    fn aligned_equal_clocks_match_exactly() {
        let link = GalsLink::new(2, 3, ps(300.0), ps(300.0), 4);
        let r = link.simulate(3, StallPattern::None);
        // Equal aligned clocks: receiver edges process first at ties, so
        // the token advances one stage per 300 ps on each side.
        assert_eq!(r.first_arrival, link.analytic_latency());
    }

    #[test]
    fn throughput_limited_by_slower_clock() {
        for &(ts, tt) in &[(200.0, 300.0), (300.0, 200.0), (250.0, 250.0)] {
            let link = GalsLink::new(2, 2, ps(ts), ps(tt), 8);
            let r = link.simulate(500, StallPattern::None);
            assert_eq!(r.delivered, 500);
            let ideal = link.analytic_throughput_tokens_per_ns();
            assert!(
                (r.throughput_tokens_per_ns - ideal).abs() / ideal < 0.05,
                "({ts},{tt}): throughput {} vs ideal {ideal}",
                r.throughput_tokens_per_ns
            );
        }
    }

    #[test]
    fn fast_sender_fills_fifo_and_backpressures() {
        // Sender 3× faster than receiver: the FIFO must fill and puts
        // must be rejected, yet nothing is lost.
        let link = GalsLink::new(2, 2, ps(100.0), ps(300.0), 4);
        let r = link.simulate(100, StallPattern::None);
        assert_eq!(r.delivered, 100, "tokens lost under rate mismatch");
        assert_eq!(r.fifo_max_occupancy, 4);
        assert!(r.fifo_rejected_puts > 0);
        assert!(!r.overflowed);
    }

    #[test]
    fn sink_stalls_do_not_lose_tokens() {
        let link = GalsLink::new(3, 3, ps(200.0), ps(250.0), 4);
        let r = link.simulate(80, StallPattern::EveryKth(3));
        assert_eq!(r.delivered, 80);
        assert!(!r.overflowed);
        // Throughput degraded roughly to 2/3 of a receiver cycle rate.
        let ideal = 1.0e3 / 250.0 * (2.0 / 3.0);
        assert!(
            (r.throughput_tokens_per_ns - ideal).abs() / ideal < 0.15,
            "throughput {} vs ideal {ideal}",
            r.throughput_tokens_per_ns
        );
    }

    #[test]
    fn zero_relay_degenerate_link() {
        let link = GalsLink::new(0, 0, ps(300.0), ps(400.0), 2);
        let r = link.simulate(10, StallPattern::None);
        assert_eq!(r.delivered, 10);
        let analytic = link.analytic_latency().ps();
        assert!(r.first_arrival.ps() <= analytic + 300.0 + 400.0);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = GalsLink::new(1, 1, ps(100.0), ps(100.0), 0);
    }
}
