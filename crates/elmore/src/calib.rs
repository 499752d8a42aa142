//! Closed-form buffered-line theory.
//!
//! For a uniform line of per-length resistance `r` and capacitance `c`,
//! periodically broken by identical repeaters with driver resistance `R`,
//! input capacitance `C` and intrinsic delay `K`, the Elmore delay of one
//! repeater-to-repeater segment of length `L` is
//!
//! ```text
//! d(L) = K + R·(c·L + C) + r·L·(c·L/2 + C)
//! ```
//!
//! Minimising `d(L)/L` gives the classic optimal segment length
//! `L* = √(2(K + R·C)/(r·c))` and per-unit delay
//! `d* = R·c + r·C + √(2(K + R·C)·r·c)`.
//!
//! These closed forms serve two purposes in the workspace:
//!
//! 1. they document how the default [`Technology`] was calibrated against
//!    the paper's anchors (`DESIGN.md` §3), and
//! 2. they give the tests an independent oracle for what the fast path /
//!    RBP searches should achieve on obstacle-free dies.

use crate::{Gate, Technology};
use clockroute_geom::units::{Length, Time};

/// Elmore delay of a single driver→load segment: gate `driver` drives a
/// wire of length `len` terminated by the input capacitance (and setup
/// time, if sequential) of `load`.
///
/// This is the exact delay of one stage with no intermediate buffers.
pub fn segment_delay(tech: &Technology, driver: &Gate, len: Length, load: &Gate) -> Time {
    let c_wire = tech.unit_cap() * len;
    let c_load = load.input_cap();
    driver.delay(c_wire + c_load) + tech.wire_delay(len, c_load) + load.setup()
}

/// The segment length `L*` that minimises per-unit repeater-line delay.
pub fn optimal_segment_length(tech: &Technology, repeater: &Gate) -> Length {
    let k = repeater.intrinsic().ps();
    let rc_gate = (repeater.driver_res() * repeater.input_cap()).ps();
    // r·c in ps per µm² (Ω/µm × fF/µm × 1e-3).
    let rc_wire = tech.unit_res().ohms_per_um() * tech.unit_cap().ff_per_um() * 1.0e-3;
    Length::from_um((2.0 * (k + rc_gate) / rc_wire).sqrt())
}

/// The minimum achievable per-unit delay (ps/µm) of an optimally
/// repeater-ed line.
pub fn optimal_unit_delay(tech: &Technology, repeater: &Gate) -> f64 {
    let k = repeater.intrinsic().ps();
    let rc_gate = (repeater.driver_res() * repeater.input_cap()).ps();
    let r = tech.unit_res().ohms_per_um();
    let c = tech.unit_cap().ff_per_um() * 1.0e-3; // fF/µm → pF/µm so Ω·(pF)=ps
    let rb_c = repeater.driver_res().ohms() * c;
    let r_cb = r * repeater.input_cap().ff() * 1.0e-3;
    rb_c + r_cb + (2.0 * (k + rc_gate) * r * c).sqrt()
}

/// Estimated minimum source→sink delay over distance `dist` for an
/// optimally buffered line (ignores end effects, so it is a slight
/// *under*-estimate for short lines and asymptotically exact).
pub fn min_buffered_delay(tech: &Technology, repeater: &Gate, dist: Length) -> Time {
    Time::from_ps(optimal_unit_delay(tech, repeater) * dist.um())
}

/// The largest register-to-register span `L` (in µm) such that a stage
/// `register → wire(L) → register` meets clock period `t_phi`, with no
/// intermediate buffers. Returns `None` if even `L → 0` fails
/// (i.e. `t_phi < K + R·C + Setup`).
///
/// Solves the quadratic
/// `(r·c/2)·L² + (R·c + r·C)·L + (K + R·C + Setup − T) ≤ 0`.
pub fn max_unbuffered_span(tech: &Technology, register: &Gate, t_phi: Time) -> Option<Length> {
    let r = tech.unit_res().ohms_per_um();
    let c = tech.unit_cap().ff_per_um() * 1.0e-3; // → ps units
    let rr = register.driver_res().ohms();
    let cc = register.input_cap().ff() * 1.0e-3;
    let k = register.intrinsic().ps();
    let setup = register.setup().ps();

    let a = r * c / 2.0;
    let b = rr * c + r * cc;
    let const_term = k + (register.driver_res() * register.input_cap()).ps() + setup - t_phi.ps();
    if const_term > 0.0 {
        return None;
    }
    // Positive root of a·L² + b·L + const = 0.
    let disc = b * b - 4.0 * a * const_term;
    let l = (-b + disc.sqrt()) / (2.0 * a);
    Some(Length::from_um(l))
}

/// The smallest clock period at which registers spaced every `pitch` can
/// sustain the signal (one grid edge between registers):
/// `segment_delay(pitch) ` including setup.
pub fn min_feasible_period(tech: &Technology, register: &Gate, pitch: Length) -> Time {
    segment_delay(tech, register, pitch, register)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GateLibrary;

    fn setup() -> (Technology, Gate, Gate) {
        let tech = Technology::paper_070nm();
        let lib = GateLibrary::paper_library();
        let buf = *lib.gate(lib.buffers().next().unwrap());
        let reg = *lib.gate(lib.register());
        (tech, buf, reg)
    }

    #[test]
    fn optimal_separation_matches_table1_anchor() {
        // Table I (T_φ = ∞): max repeater separation 19 grid points at
        // 0.125 mm pitch ⇒ L* ≈ 2.4 mm.
        let (tech, buf, _) = setup();
        let l = optimal_segment_length(&tech, &buf);
        assert!(
            (l.mm() - 2.37).abs() < 0.1,
            "optimal separation {} mm, expected ≈ 2.37 mm",
            l.mm()
        );
    }

    #[test]
    fn min_buffered_delay_matches_fastpath_anchor() {
        // Paper: minimum buffered 40 mm path delay 2739 ps.
        let (tech, buf, _) = setup();
        let d = min_buffered_delay(&tech, &buf, Length::from_mm(40.0));
        assert!(
            (d.ps() - 2739.0).abs() < 30.0,
            "40 mm optimal delay {} ps, expected ≈ 2739 ps",
            d.ps()
        );
    }

    #[test]
    fn buffer_count_anchor() {
        // ~16 buffers on the 40 mm path (Table I, T = ∞ row).
        let (tech, buf, _) = setup();
        let l = optimal_segment_length(&tech, &buf);
        let n = (40_000.0 / l.um()).floor() as u32;
        assert!((15..=17).contains(&n), "expected ≈16 buffers, got {n}");
    }

    #[test]
    fn segment_delay_monotone_in_length() {
        let (tech, _, reg) = setup();
        let mut prev = Time::ZERO;
        for i in 1..20 {
            let d = segment_delay(&tech, &reg, Length::from_um(200.0 * f64::from(i)), &reg);
            assert!(d > prev);
            prev = d;
        }
    }

    #[test]
    fn min_period_anchors_match_table2_crossovers() {
        let (tech, _, reg) = setup();
        // 0.125 mm pitch: min period rounds to 47–49 ps ⇒ T = 49 feasible.
        let p125 = min_feasible_period(&tech, &reg, Length::from_um(125.0));
        assert!(p125.ps() <= 49.0, "0.125 mm min period {p125}");
        // 0.25 mm pitch: feasible at 53 ps but not 49 ps (Table II).
        let p250 = min_feasible_period(&tech, &reg, Length::from_um(250.0));
        assert!(
            p250.ps() <= 53.0 && p250.ps() > 49.0,
            "0.25 mm min period {p250}"
        );
        // 0.5 mm pitch: infeasible at 53 ps (Table II shows no solution).
        let p500 = min_feasible_period(&tech, &reg, Length::from_um(500.0));
        assert!(p500.ps() > 53.0, "0.5 mm min period {p500}");
    }

    #[test]
    fn max_unbuffered_span_inverts_min_period() {
        let (tech, _, reg) = setup();
        for t in [60.0, 84.0, 120.0, 300.0] {
            let t = Time::from_ps(t);
            let span = max_unbuffered_span(&tech, &reg, t).unwrap();
            // The span meets the period…
            let d = segment_delay(&tech, &reg, span, &reg);
            assert!(d.ps() <= t.ps() + 1e-6, "span {span} gives {d} > {t}");
            // …and 1% more does not.
            let d_over = segment_delay(&tech, &reg, span * 1.01, &reg);
            assert!(d_over > t);
        }
    }

    #[test]
    fn max_unbuffered_span_none_below_intrinsic_floor() {
        let (tech, _, reg) = setup();
        // K + R·C + setup ≈ 36.4 + 4.2 + 2 = 42.6 ps is the absolute floor.
        assert!(max_unbuffered_span(&tech, &reg, Time::from_ps(40.0)).is_none());
        assert!(max_unbuffered_span(&tech, &reg, Time::from_ps(43.0)).is_some());
    }

    #[test]
    fn table1_register_separation_anchors() {
        // Table I: at T = 84 ps registers sit 8 edges (1 mm) apart; at
        // T = 67 ps, 5 edges; at T = 62, 4; at T = 53, 2; at T = 49, 1.
        let (tech, _, reg) = setup();
        // The paper's raw parameters are unpublished, so we accept a ±1
        // grid-edge calibration slack; the monotone staircase itself is
        // exact.
        for &(t, edges) in &[(84.0, 8i64), (67.0, 5), (62.0, 4), (53.0, 2), (49.0, 1)] {
            let span = max_unbuffered_span(&tech, &reg, Time::from_ps(t)).unwrap();
            let feasible_edges = (span.um() / 125.0).floor() as i64;
            assert!(
                (feasible_edges - edges).abs() <= 1,
                "period {t}: span {:.1} µm ⇒ {feasible_edges} edges, paper says {edges}",
                span.um()
            );
        }
    }
}
