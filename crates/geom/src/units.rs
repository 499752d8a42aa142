//! Dimension-checked physical units.
//!
//! All quantities are stored as `f64` in a fixed base unit:
//!
//! | Type            | Base unit        |
//! |-----------------|------------------|
//! | [`Time`]        | picoseconds (ps) |
//! | [`Resistance`]  | ohms (Ω)         |
//! | [`Capacitance`] | femtofarads (fF) |
//! | [`Length`]      | micrometres (µm) |
//! | [`ResPerLength`]| Ω / µm           |
//! | [`CapPerLength`]| fF / µm          |
//!
//! The happy coincidence `1 Ω · 1 fF = 10⁻¹⁵ s = 10⁻³ ps` is encoded once,
//! in the `Mul` impl between [`Resistance`] and [`Capacitance`], so Elmore
//! delay arithmetic elsewhere in the workspace can never get the scale
//! factor wrong.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// Conversion factor: Ω·fF → ps.
const OHM_FF_TO_PS: f64 = 1.0e-3;

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(
            Debug,
            Clone,
            Copy,
            PartialEq,
            Default,
            serde::Serialize,
            serde::Deserialize,
        )]
        pub struct $name(f64);

        // crlint-allow: CR001 operator comparisons only; ordering keys use f64::total_cmp
        impl PartialOrd for $name {
            #[expect(
                clippy::disallowed_methods,
                reason = "operator comparisons only; ordering keys use f64::total_cmp"
            )]
            #[inline]
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                self.0.partial_cmp(&other.0)
            }
        }

        impl $name {
            /// The zero quantity.
            pub const ZERO: $name = $name(0.0);

            /// Wraps a raw value already expressed in the base unit.
            #[inline]
            pub const fn new(value: f64) -> Self {
                $name(value)
            }

            /// Returns the raw value in the base unit.
            #[inline]
            pub const fn value(self) -> f64 {
                self.0
            }

            /// Returns the larger of `self` and `other`.
            ///
            /// `f64::max` semantics: NaN is ignored if the other operand is
            /// a number.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                $name(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                $name(self.0.min(other.0))
            }

            /// Returns `true` if the value is finite (not NaN / ±∞).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Absolute value.
            #[inline]
            pub fn abs(self) -> Self {
                $name(self.0.abs())
            }
        }

        impl Add for $name {
            type Output = $name;
            #[inline]
            fn add(self, rhs: $name) -> $name {
                $name(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: $name) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = $name;
            #[inline]
            fn sub(self, rhs: $name) -> $name {
                $name(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: $name) {
                self.0 -= rhs.0;
            }
        }

        impl Neg for $name {
            type Output = $name;
            #[inline]
            fn neg(self) -> $name {
                $name(-self.0)
            }
        }

        impl Mul<f64> for $name {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: f64) -> $name {
                $name(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = $name;
            #[inline]
            fn div(self, rhs: f64) -> $name {
                $name(self.0 / rhs)
            }
        }

        impl Div<$name> for $name {
            /// Ratio of two like quantities is dimensionless.
            type Output = f64;
            #[inline]
            fn div(self, rhs: $name) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> $name {
                $name(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                if let Some(prec) = f.precision() {
                    write!(f, "{:.*} {}", prec, self.0, $suffix)
                } else {
                    write!(f, "{} {}", self.0, $suffix)
                }
            }
        }
    };
}

unit!(
    /// A time interval in picoseconds.
    ///
    /// ```
    /// use clockroute_geom::units::Time;
    /// let t = Time::from_ps(2739.0);
    /// assert_eq!(t.ps(), 2739.0);
    /// assert!((t.ns() - 2.739).abs() < 1e-12);
    /// ```
    Time,
    "ps"
);
unit!(
    /// An electrical resistance in ohms.
    Resistance,
    "Ω"
);
unit!(
    /// An electrical capacitance in femtofarads.
    Capacitance,
    "fF"
);
unit!(
    /// A physical length in micrometres.
    Length,
    "µm"
);
unit!(
    /// Wire resistance per unit length, in Ω/µm.
    ResPerLength,
    "Ω/µm"
);
unit!(
    /// Wire capacitance per unit length, in fF/µm.
    CapPerLength,
    "fF/µm"
);

impl Time {
    /// An unbounded time, used for the “no clock constraint” (`T_φ = ∞`)
    /// configuration of the search algorithms.
    pub const INFINITY: Time = Time(f64::INFINITY);

    /// Constructs a time from picoseconds.
    #[inline]
    pub const fn from_ps(ps: f64) -> Time {
        Time(ps)
    }

    /// Constructs a time from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: f64) -> Time {
        Time(ns * 1.0e3)
    }

    /// The value in picoseconds.
    #[inline]
    pub const fn ps(self) -> f64 {
        self.0
    }

    /// The value in nanoseconds.
    #[inline]
    pub const fn ns(self) -> f64 {
        self.0 * 1.0e-3
    }

    /// `true` if this is the [`Time::INFINITY`] sentinel.
    #[inline]
    pub fn is_infinite(self) -> bool {
        self.0.is_infinite()
    }
}

impl Resistance {
    /// Constructs a resistance from ohms.
    #[inline]
    pub const fn from_ohms(ohms: f64) -> Resistance {
        Resistance(ohms)
    }

    /// The value in ohms.
    #[inline]
    pub const fn ohms(self) -> f64 {
        self.0
    }
}

impl Capacitance {
    /// Constructs a capacitance from femtofarads.
    #[inline]
    pub const fn from_ff(ff: f64) -> Capacitance {
        Capacitance(ff)
    }

    /// Constructs a capacitance from picofarads.
    #[inline]
    pub const fn from_pf(pf: f64) -> Capacitance {
        Capacitance(pf * 1.0e3)
    }

    /// The value in femtofarads.
    #[inline]
    pub const fn ff(self) -> f64 {
        self.0
    }
}

impl Length {
    /// Constructs a length from micrometres.
    #[inline]
    pub const fn from_um(um: f64) -> Length {
        Length(um)
    }

    /// Constructs a length from millimetres.
    #[inline]
    pub const fn from_mm(mm: f64) -> Length {
        Length(mm * 1.0e3)
    }

    /// The value in micrometres.
    #[inline]
    pub const fn um(self) -> f64 {
        self.0
    }

    /// The value in millimetres.
    #[inline]
    pub const fn mm(self) -> f64 {
        self.0 * 1.0e-3
    }
}

impl ResPerLength {
    /// Constructs from Ω/µm.
    #[inline]
    pub const fn from_ohms_per_um(v: f64) -> ResPerLength {
        ResPerLength(v)
    }

    /// The value in Ω/µm.
    #[inline]
    pub const fn ohms_per_um(self) -> f64 {
        self.0
    }
}

impl CapPerLength {
    /// Constructs from fF/µm.
    #[inline]
    pub const fn from_ff_per_um(v: f64) -> CapPerLength {
        CapPerLength(v)
    }

    /// The value in fF/µm.
    #[inline]
    pub const fn ff_per_um(self) -> f64 {
        self.0
    }
}

/// `Ω × fF → ps` — the core Elmore product.
impl Mul<Capacitance> for Resistance {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Capacitance) -> Time {
        Time(self.0 * rhs.0 * OHM_FF_TO_PS)
    }
}

/// `fF × Ω → ps` (commuted form).
impl Mul<Resistance> for Capacitance {
    type Output = Time;
    #[inline]
    fn mul(self, rhs: Resistance) -> Time {
        rhs * self
    }
}

/// `Ω/µm × µm → Ω`.
impl Mul<Length> for ResPerLength {
    type Output = Resistance;
    #[inline]
    fn mul(self, rhs: Length) -> Resistance {
        Resistance(self.0 * rhs.0)
    }
}

/// `fF/µm × µm → fF`.
impl Mul<Length> for CapPerLength {
    type Output = Capacitance;
    #[inline]
    fn mul(self, rhs: Length) -> Capacitance {
        Capacitance(self.0 * rhs.0)
    }
}

/// `µm × Ω/µm → Ω` (commuted form).
impl Mul<ResPerLength> for Length {
    type Output = Resistance;
    #[inline]
    fn mul(self, rhs: ResPerLength) -> Resistance {
        rhs * self
    }
}

/// `µm × fF/µm → fF` (commuted form).
impl Mul<CapPerLength> for Length {
    type Output = Capacitance;
    #[inline]
    fn mul(self, rhs: CapPerLength) -> Capacitance {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn elmore_product_scale() {
        // 180 Ω × 23.4 fF = 4.212 ps
        let t = Resistance::from_ohms(180.0) * Capacitance::from_ff(23.4);
        assert!((t.ps() - 4.212).abs() < 1e-12, "{t}");
    }

    #[test]
    fn elmore_product_commutes() {
        let r = Resistance::from_ohms(37.5);
        let c = Capacitance::from_ff(11.0);
        assert_eq!(r * c, c * r);
    }

    #[test]
    fn per_length_products() {
        let r = ResPerLength::from_ohms_per_um(1.4) * Length::from_mm(1.0);
        assert!((r.ohms() - 1400.0).abs() < 1e-9);
        let c = CapPerLength::from_ff_per_um(0.0103) * Length::from_mm(2.0);
        assert!((c.ff() - 20.6).abs() < 1e-9);
        // Commuted forms agree.
        assert_eq!(
            Length::from_um(7.0) * ResPerLength::from_ohms_per_um(2.0),
            ResPerLength::from_ohms_per_um(2.0) * Length::from_um(7.0)
        );
        assert_eq!(
            Length::from_um(7.0) * CapPerLength::from_ff_per_um(2.0),
            CapPerLength::from_ff_per_um(2.0) * Length::from_um(7.0)
        );
    }

    #[test]
    fn time_conversions() {
        assert_eq!(Time::from_ns(2.5).ps(), 2500.0);
        assert_eq!(Time::from_ps(500.0).ns(), 0.5);
        assert!(Time::INFINITY.is_infinite());
        assert!(!Time::from_ps(1.0).is_infinite());
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Time::from_ps(10.0);
        let b = Time::from_ps(4.0);
        assert_eq!((a + b).ps(), 14.0);
        assert_eq!((a - b).ps(), 6.0);
        assert_eq!((a * 2.0).ps(), 20.0);
        assert_eq!((2.0 * a).ps(), 20.0);
        assert_eq!((a / 2.0).ps(), 5.0);
        assert_eq!(a / b, 2.5);
        assert!(b < a);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
        assert_eq!((-b).ps(), -4.0);
        assert_eq!((-b).abs(), b);
        let mut acc = Time::ZERO;
        acc += a;
        acc -= b;
        assert_eq!(acc.ps(), 6.0);
    }

    #[test]
    fn sum_of_units() {
        let total: Time = (1..=4).map(|i| Time::from_ps(i as f64)).sum();
        assert_eq!(total.ps(), 10.0);
    }

    #[test]
    fn display_formats_with_suffix() {
        assert_eq!(format!("{:.1}", Time::from_ps(3.25)), "3.2 ps");
        assert_eq!(format!("{}", Resistance::from_ohms(180.0)), "180 Ω");
        assert_eq!(format!("{}", Capacitance::from_ff(23.4)), "23.4 fF");
        assert_eq!(format!("{}", Length::from_um(125.0)), "125 µm");
    }

    #[test]
    fn capacitance_from_pf() {
        assert_eq!(Capacitance::from_pf(1.5).ff(), 1500.0);
    }

    #[test]
    fn default_is_zero() {
        assert_eq!(Time::default(), Time::ZERO);
        assert_eq!(Resistance::default(), Resistance::ZERO);
    }
}
