//! Admissible Elmore lower bounds for buffered-chain traversal.
//!
//! The core searches explore candidates `(c, d)` whose eventual completion
//! must still traverse wire toward the stage driver (source gate or a
//! register).  This module computes a **per-edge rate** `u` (ps per grid
//! edge) such that *every* realizable buffered chain covering `m` edges of
//! one axis costs at least `u·m` picoseconds under the Elmore model — no
//! matter how many buffers the search inserts or where it places them.
//! The searches use `u` for goal pruning: a candidate whose delay plus the
//! rate-weighted remaining Manhattan distance provably exceeds the best
//! known completion (fast path) or the clock period budget of the
//! remaining pipeline stages (RBP) can be discarded *before* it is pushed,
//! without ever discarding a candidate that could participate in the
//! returned optimum.
//!
//! # Admissibility argument
//!
//! Split any chain (driver gate, wire, optional repeaters, terminating
//! load) into *segments*: each segment is one driver `τ` plus the wire it
//! drives up to the next element.  Under the Elmore π-model a segment of
//! `m` same-axis edges (edge resistance `R_e` Ω, edge capacitance `C_e`
//! fF) driven by `τ = (R_τ, K_τ)` into a next-element input capacitance
//! `C_next` costs exactly
//!
//! ```text
//! d(τ, m) = K_τ + R_τ·(m·C_e + C_next)·1e-3
//!         + R_e·C_e·m²/2·1e-3 + m·R_e·C_next·1e-3        (ps)
//! ```
//!
//! Every next-element input capacitance the search can produce is at least
//! `C_min` (the minimum input capacitance over the gate library and the
//! sink gate; candidate loads only ever *add* wire to a gate input), so
//! `d(τ, m) ≥ K'_τ + slope_τ·m + a·m²` with `K'_τ = K_τ + R_τ·C_min·1e-3`,
//! `slope_τ = (R_τ·C_e + R_e·C_min)·1e-3` and `a = R_e·C_e·1e-3/2`.
//! Minimizing `d(τ, m)/m` over *real* `m > 0` (a relaxation of the
//! grid-quantized segment lengths, hence still a lower bound) gives the
//! per-edge rate
//!
//! ```text
//! u_τ = slope_τ + 2·√(K'_τ·a)
//! ```
//!
//! and `u = min_τ u_τ` over every driver the search can deploy (source
//! gate, register, each buffer).  Summing over the segments of a chain
//! yields `delay ≥ u·(total edges)`; mixed-axis chains are handled by
//! splitting each segment's constant `K'_τ` between the axes with a fixed
//! share `λ` (callers pass `λ = 1` when both axes have identical edge
//! parameters — a mixed segment is then indistinguishable from a
//! same-axis one — and `λ = ½` otherwise).  Dropped cross terms
//! (`R_e·C` between axes, loads above `C_min`) are all non-negative, so
//! the bound never overestimates.
//!
//! On the paper's 70 nm parameters (single 180 Ω / 23.4 fF / 36.4 ps
//! buffer, 1.39 Ω/µm, 0.01 fF/µm) the rate works out to ≈67.9 ps/mm
//! against a measured optimally-buffered rate of ≈68.0 ps/mm — the bound
//! is within 0.2 % of reality, which is what makes goal pruning effective
//! rather than decorative.

/// A driver the search may place at the head of a chain segment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriverModel {
    /// Driver resistance `R(τ)` in Ω.
    pub res_ohms: f64,
    /// Intrinsic delay `K(τ)` in ps.
    pub intrinsic_ps: f64,
}

/// One grid edge's wire parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdgeModel {
    /// Edge resistance `R_e` in Ω.
    pub res_ohms: f64,
    /// Edge capacitance `C_e` in fF.
    pub cap_ff: f64,
}

/// Admissible per-edge traversal rate in ps (see module docs).
///
/// `min_load_ff` is the minimum input capacitance any segment can
/// terminate into; `intrinsic_share` is the fraction `λ` of each driver's
/// per-segment constant charged to this axis (1.0 when both axes share
/// identical edge parameters, 0.5 otherwise).
///
/// Returns 0.0 (a trivially admissible rate) when the inputs cannot
/// support a positive bound — empty driver list or non-finite/negative
/// parameters — so callers never have to special-case degenerate
/// libraries.
pub fn edge_rate(
    drivers: &[DriverModel],
    edge: EdgeModel,
    min_load_ff: f64,
    intrinsic_share: f64,
) -> f64 {
    let positive = |x: f64| x.is_finite() && x > 0.0;
    let well_formed = positive(edge.res_ohms)
        && positive(edge.cap_ff)
        && min_load_ff.is_finite()
        && min_load_ff >= 0.0
        && positive(intrinsic_share)
        && intrinsic_share <= 1.0;
    if !well_formed {
        return 0.0;
    }
    let a = edge.res_ohms * edge.cap_ff * 1.0e-3 / 2.0;
    let mut best = f64::INFINITY;
    for d in drivers {
        let driver_ok = positive(d.res_ohms) && d.intrinsic_ps.is_finite() && d.intrinsic_ps >= 0.0;
        if !driver_ok {
            return 0.0;
        }
        let k_eff = (d.intrinsic_ps + d.res_ohms * min_load_ff * 1.0e-3) * intrinsic_share;
        let slope = (d.res_ohms * edge.cap_ff + edge.res_ohms * min_load_ff) * 1.0e-3;
        let rate = slope + 2.0 * (k_eff * a).sqrt();
        if rate < best {
            best = rate;
        }
    }
    if best.is_finite() {
        best
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_driver() -> DriverModel {
        DriverModel {
            res_ohms: 180.0,
            intrinsic_ps: 36.4,
        }
    }

    fn paper_edge(pitch_um: f64) -> EdgeModel {
        EdgeModel {
            res_ohms: 1.39 * pitch_um,
            cap_ff: 0.0100 * pitch_um,
        }
    }

    #[test]
    fn paper_rate_close_to_measured_optimum() {
        // The measured optimally-buffered rate on the paper die is
        // ≈68.0 ps/mm (fast path: 2719.8 ps over 40 mm).  The bound must
        // stay below it but within a few percent.
        let rate = edge_rate(&[paper_driver()], paper_edge(250.0), 23.4, 1.0);
        let per_mm = rate * 4.0; // 4 edges of 250 µm per mm
        assert!(per_mm < 68.0, "must be admissible: {per_mm}");
        assert!(per_mm > 66.0, "should be tight: {per_mm}");
    }

    #[test]
    fn rate_is_pitch_stable() {
        // The per-µm rate barely depends on grid pitch: the bound models a
        // continuous buffered line, not the discretization.
        let r1 = edge_rate(&[paper_driver()], paper_edge(125.0), 23.4, 1.0) / 125.0;
        let r2 = edge_rate(&[paper_driver()], paper_edge(500.0), 23.4, 1.0) / 500.0;
        assert!((r1 - r2).abs() < 1e-12);
    }

    #[test]
    fn best_driver_wins() {
        let weak = DriverModel {
            res_ohms: 1000.0,
            intrinsic_ps: 80.0,
        };
        let strong = paper_driver();
        let both = edge_rate(&[weak, strong], paper_edge(250.0), 23.4, 1.0);
        let only_strong = edge_rate(&[strong], paper_edge(250.0), 23.4, 1.0);
        assert_eq!(both, only_strong);
    }

    #[test]
    fn split_share_lowers_rate() {
        let full = edge_rate(&[paper_driver()], paper_edge(250.0), 23.4, 1.0);
        let half = edge_rate(&[paper_driver()], paper_edge(250.0), 23.4, 0.5);
        assert!(half < full);
        assert!(half > 0.0);
    }

    #[test]
    fn degenerate_inputs_fall_back_to_zero() {
        assert_eq!(edge_rate(&[], paper_edge(250.0), 23.4, 1.0), 0.0);
        let bad_edge = EdgeModel {
            res_ohms: 0.0,
            cap_ff: 1.0,
        };
        assert_eq!(edge_rate(&[paper_driver()], bad_edge, 23.4, 1.0), 0.0);
        let bad_driver = DriverModel {
            res_ohms: -1.0,
            intrinsic_ps: 0.0,
        };
        assert_eq!(edge_rate(&[bad_driver], paper_edge(250.0), 23.4, 1.0), 0.0);
    }

    #[test]
    fn zero_load_is_weaker_than_real_load() {
        let with_load = edge_rate(&[paper_driver()], paper_edge(250.0), 23.4, 1.0);
        let no_load = edge_rate(&[paper_driver()], paper_edge(250.0), 0.0, 1.0);
        assert!(no_load < with_load);
    }
}
