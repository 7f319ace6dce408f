//! Strongly typed physical units.
//!
//! Two quantities dominate the paper: signal-to-noise ratios in decibels and
//! link capacities in Gbps. Both are newtypes over `f64` so that linear and
//! logarithmic values, or capacities and SNRs, cannot be mixed accidentally.
//!
//! Decibel arithmetic follows the usual convention: adding [`Db`] values
//! corresponds to multiplying linear ratios (gains/losses compose
//! additively in log space).

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

/// A power ratio expressed in decibels.
///
/// Used for SNR, amplifier gain, fiber attenuation and link-budget margins.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Db(pub f64);

impl Db {
    /// Zero decibels (a linear ratio of 1).
    pub const ZERO: Db = Db(0.0);

    /// Converts a linear power ratio to decibels.
    ///
    /// Ratios at or below zero (a fully extinguished signal) map to
    /// negative infinity, which the rest of the workspace treats as
    /// loss-of-light.
    pub fn from_linear(ratio: f64) -> Db {
        if ratio <= 0.0 {
            Db(f64::NEG_INFINITY)
        } else {
            Db(10.0 * ratio.log10())
        }
    }

    /// Converts to a linear power ratio.
    pub fn to_linear(self) -> f64 {
        10f64.powf(self.0 / 10.0)
    }

    /// Raw decibel value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// True if this value represents a completely lost signal.
    pub(crate) fn is_loss_of_light(self) -> bool {
        self.0 == f64::NEG_INFINITY
    }

    /// Component-wise minimum.
    pub fn min(self, other: Db) -> Db {
        Db(self.0.min(other.0))
    }

    /// Component-wise maximum.
    pub fn max(self, other: Db) -> Db {
        Db(self.0.max(other.0))
    }

    /// Clamps into `[lo, hi]`.
    pub fn clamp(self, lo: Db, hi: Db) -> Db {
        Db(self.0.clamp(lo.0, hi.0))
    }

}

impl Add for Db {
    type Output = Db;
    fn add(self, rhs: Db) -> Db {
        Db(self.0 + rhs.0)
    }
}

impl AddAssign for Db {
    fn add_assign(&mut self, rhs: Db) {
        self.0 += rhs.0;
    }
}

impl Sub for Db {
    type Output = Db;
    fn sub(self, rhs: Db) -> Db {
        Db(self.0 - rhs.0)
    }
}

impl SubAssign for Db {
    fn sub_assign(&mut self, rhs: Db) {
        self.0 -= rhs.0;
    }
}

impl Neg for Db {
    type Output = Db;
    fn neg(self) -> Db {
        Db(-self.0)
    }
}

impl Mul<f64> for Db {
    type Output = Db;
    fn mul(self, rhs: f64) -> Db {
        Db(self.0 * rhs)
    }
}

impl fmt::Display for Db {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_loss_of_light() {
            write!(f, "-inf dB")
        } else {
            write!(f, "{:.2} dB", self.0)
        }
    }
}

/// A data rate in gigabits per second.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default, Serialize, Deserialize)]
pub struct Gbps(pub f64);

impl Gbps {
    /// Zero capacity.
    pub const ZERO: Gbps = Gbps(0.0);

    /// Raw Gbps value.
    pub const fn value(self) -> f64 {
        self.0
    }

    /// Converts to terabits per second.
    pub fn as_tbps(self) -> f64 {
        self.0 / 1_000.0
    }

    /// Component-wise minimum.
    pub fn min(self, other: Gbps) -> Gbps {
        Gbps(self.0.min(other.0))
    }

    /// Component-wise maximum.
    pub fn max(self, other: Gbps) -> Gbps {
        Gbps(self.0.max(other.0))
    }

    /// Saturating subtraction (floors at zero).
    pub fn saturating_sub(self, rhs: Gbps) -> Gbps {
        Gbps((self.0 - rhs.0).max(0.0))
    }
}

impl Add for Gbps {
    type Output = Gbps;
    fn add(self, rhs: Gbps) -> Gbps {
        Gbps(self.0 + rhs.0)
    }
}

impl AddAssign for Gbps {
    fn add_assign(&mut self, rhs: Gbps) {
        self.0 += rhs.0;
    }
}

impl Sub for Gbps {
    type Output = Gbps;
    fn sub(self, rhs: Gbps) -> Gbps {
        Gbps(self.0 - rhs.0)
    }
}

impl SubAssign for Gbps {
    fn sub_assign(&mut self, rhs: Gbps) {
        self.0 -= rhs.0;
    }
}

impl Mul<f64> for Gbps {
    type Output = Gbps;
    fn mul(self, rhs: f64) -> Gbps {
        Gbps(self.0 * rhs)
    }
}

impl Div<f64> for Gbps {
    type Output = Gbps;
    fn div(self, rhs: f64) -> Gbps {
        Gbps(self.0 / rhs)
    }
}

impl Div for Gbps {
    /// Ratio of two capacities (dimensionless).
    type Output = f64;
    fn div(self, rhs: Gbps) -> f64 {
        self.0 / rhs.0
    }
}

impl Sum for Gbps {
    fn sum<I: Iterator<Item = Gbps>>(iter: I) -> Gbps {
        iter.fold(Gbps::ZERO, Add::add)
    }
}

impl fmt::Display for Gbps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000.0 {
            write!(f, "{:.2} Tbps", self.as_tbps())
        } else {
            write!(f, "{:.0} Gbps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_round_trip() {
        for &db in &[0.0, 3.0, 6.5, 12.8, -5.0] {
            let back = Db::from_linear(Db(db).to_linear()).value();
            assert!((back - db).abs() < 1e-10, "{db} -> {back}");
        }
    }

    #[test]
    fn db_known_values() {
        assert!((Db(10.0).to_linear() - 10.0).abs() < 1e-12);
        assert!((Db(3.0).to_linear() - 1.995).abs() < 0.01);
        assert!((Db::from_linear(100.0).value() - 20.0).abs() < 1e-12);
    }

    #[test]
    fn loss_of_light() {
        assert!(Db::from_linear(0.0).is_loss_of_light());
        assert!(Db::from_linear(-1.0).is_loss_of_light());
        assert!(!Db(0.0).is_loss_of_light());
        assert_eq!(Db::from_linear(0.0).to_string(), "-inf dB");
    }

    #[test]
    fn db_arithmetic_composes_gains() {
        // +3 dB twice is (almost exactly) a factor of ~3.98 linear.
        let total = Db(3.0) + Db(3.0);
        assert!((total.to_linear() - 3.981).abs() < 0.01);
        assert_eq!(Db(10.0) - Db(4.0), Db(6.0));
        assert_eq!(-Db(2.5), Db(-2.5));
        assert_eq!(Db(2.0) * 3.0, Db(6.0));
    }

    #[test]
    fn db_min_max_clamp() {
        assert_eq!(Db(1.0).min(Db(2.0)), Db(1.0));
        assert_eq!(Db(1.0).max(Db(2.0)), Db(2.0));
        assert_eq!(Db(5.0).clamp(Db(0.0), Db(3.0)), Db(3.0));
    }

    #[test]
    fn gbps_arithmetic() {
        assert_eq!(Gbps(100.0) + Gbps(75.0), Gbps(175.0));
        assert_eq!(Gbps(200.0) - Gbps(50.0), Gbps(150.0));
        assert_eq!(Gbps(100.0) * 2.0, Gbps(200.0));
        assert_eq!(Gbps(200.0) / 2.0, Gbps(100.0));
        assert!((Gbps(200.0) / Gbps(100.0) - 2.0).abs() < 1e-12);
        assert_eq!(Gbps(50.0).saturating_sub(Gbps(80.0)), Gbps::ZERO);
    }

    #[test]
    fn gbps_sum_and_tbps() {
        let fleet: Gbps = (0..2000).map(|_| Gbps(72.5)).sum();
        assert!((fleet.as_tbps() - 145.0).abs() < 1e-9, "the paper's headline gain");
        assert_eq!(fleet.to_string(), "145.00 Tbps");
        assert_eq!(Gbps(100.0).to_string(), "100 Gbps");
    }
}
