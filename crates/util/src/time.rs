//! Simulated time.
//!
//! The paper's telemetry is sampled every 15 minutes for 2.5 years; its BVT
//! experiments measure latencies from milliseconds to minutes. A single
//! millisecond-resolution simulated clock covers both regimes. Wall-clock
//! time is never consulted anywhere in the workspace — experiments are fully
//! replayable from a seed.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A span of simulated time with millisecond resolution.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration {
    millis: u64,
}

impl SimDuration {
    /// Zero-length duration.
    pub const ZERO: SimDuration = SimDuration { millis: 0 };
    /// The paper's telemetry sampling interval: 15 minutes.
    pub const TELEMETRY_TICK: SimDuration = SimDuration::from_minutes(15);

    /// Construct from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self { millis }
    }

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self { millis: secs * 1_000 }
    }

    /// Construct from minutes.
    pub const fn from_minutes(minutes: u64) -> Self {
        Self::from_secs(minutes * 60)
    }

    /// Construct from hours.
    pub const fn from_hours(hours: u64) -> Self {
        Self::from_minutes(hours * 60)
    }

    /// Construct from days.
    pub const fn from_days(days: u64) -> Self {
        Self::from_hours(days * 24)
    }

    /// Construct from fractional seconds, rounding to the nearest
    /// millisecond. Negative values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        Self { millis: (secs * 1_000.0).round().max(0.0) as u64 }
    }

    /// Construct from fractional hours, rounding to the nearest millisecond.
    pub fn from_hours_f64(hours: f64) -> Self {
        Self::from_secs_f64(hours * 3_600.0)
    }

    /// Total milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.millis
    }

    /// Duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.millis as f64 / 1_000.0
    }

    /// Duration in fractional hours.
    pub fn as_hours_f64(self) -> f64 {
        self.as_secs_f64() / 3_600.0
    }

    /// Duration in fractional days.
    pub fn as_days_f64(self) -> f64 {
        self.as_hours_f64() / 24.0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration { millis: self.millis.saturating_sub(rhs.millis) }
    }

    /// Number of whole `tick`-sized steps that fit in this duration.
    pub fn ticks(self, tick: SimDuration) -> u64 {
        assert!(tick.millis > 0, "tick must be positive");
        self.millis / tick.millis
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration { millis: self.millis + rhs.millis }
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.millis += rhs.millis;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration { millis: self.millis.checked_sub(rhs.millis).expect("negative SimDuration") }
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration { millis: self.millis * rhs }
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration { millis: self.millis / rhs }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.millis;
        if ms < 1_000 {
            write!(f, "{ms}ms")
        } else if ms < 60_000 {
            write!(f, "{:.2}s", self.as_secs_f64())
        } else if ms < 3_600_000 {
            write!(f, "{:.1}min", self.as_secs_f64() / 60.0)
        } else if ms < 86_400_000 {
            write!(f, "{:.1}h", self.as_hours_f64())
        } else {
            write!(f, "{:.1}d", self.as_days_f64())
        }
    }
}

/// An instant on the simulated timeline (milliseconds since experiment
/// start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimTime {
    millis: u64,
}

impl SimTime {
    /// The experiment epoch.
    pub const EPOCH: SimTime = SimTime { millis: 0 };

    /// Construct from milliseconds since the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        Self { millis }
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.millis
    }

    /// Elapsed time since the epoch.
    pub const fn since_epoch(self) -> SimDuration {
        SimDuration::from_millis(self.millis)
    }

    /// Time elapsed since `earlier`; zero if `earlier` is later.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration::from_millis(self.millis.saturating_sub(earlier.millis))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime { millis: self.millis + rhs.as_millis() }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.millis += rhs.as_millis();
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime { millis: self.millis.checked_sub(rhs.as_millis()).expect("SimTime before epoch") }
    }
}

impl SubAssign<SimDuration> for SimTime {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.millis = self.millis.checked_sub(rhs.as_millis()).expect("SimTime before epoch");
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", self.since_epoch())
    }
}

/// Iterator over evenly spaced instants: `start`, `start + tick`, … while
/// `< end`.
#[derive(Debug, Clone)]
pub struct Ticks {
    next: SimTime,
    end: SimTime,
    tick: SimDuration,
}

impl Ticks {
    /// Ticks covering `[start, end)` at the given interval.
    pub fn new(start: SimTime, end: SimTime, tick: SimDuration) -> Self {
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        Self { next: start, end, tick }
    }

    /// Ticks at the paper's 15-minute telemetry interval over a horizon.
    pub fn telemetry(horizon: SimDuration) -> Self {
        Self::new(SimTime::EPOCH, SimTime::EPOCH + horizon, SimDuration::TELEMETRY_TICK)
    }
}

impl Iterator for Ticks {
    type Item = SimTime;

    fn next(&mut self) -> Option<SimTime> {
        if self.next >= self.end {
            return None;
        }
        let t = self.next;
        self.next += self.tick;
        Some(t)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self
            .end
            .saturating_duration_since(self.next)
            .as_millis()
            .div_ceil(self.tick.as_millis()) as usize;
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for Ticks {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_constructors_agree() {
        assert_eq!(SimDuration::from_days(1), SimDuration::from_hours(24));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_minutes(60));
        assert_eq!(SimDuration::from_minutes(1), SimDuration::from_secs(60));
        assert_eq!(SimDuration::from_secs(1), SimDuration::from_millis(1000));
    }

    #[test]
    fn duration_float_round_trip() {
        let d = SimDuration::from_secs_f64(68.125);
        assert!((d.as_secs_f64() - 68.125).abs() < 1e-9);
        let h = SimDuration::from_hours_f64(2.5);
        assert!((h.as_hours_f64() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn negative_seconds_clamp_to_zero() {
        assert_eq!(SimDuration::from_secs_f64(-3.0), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimDuration::from_secs(90);
        let b = SimDuration::from_secs(30);
        assert_eq!(a + b, SimDuration::from_secs(120));
        assert_eq!(a - b, SimDuration::from_secs(60));
        assert_eq!(a * 2, SimDuration::from_secs(180));
        assert_eq!(a / 3, SimDuration::from_secs(30));
        assert_eq!(b.saturating_sub(a), SimDuration::ZERO);
    }

    #[test]
    #[should_panic]
    fn underflow_panics() {
        let _ = SimDuration::from_secs(1) - SimDuration::from_secs(2);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::EPOCH + SimDuration::from_hours(5);
        assert_eq!(t.saturating_duration_since(SimTime::EPOCH), SimDuration::from_hours(5));
        let earlier = t - SimDuration::from_hours(2);
        assert_eq!(earlier.since_epoch(), SimDuration::from_hours(3));
        assert_eq!(
            SimTime::EPOCH.saturating_duration_since(t),
            SimDuration::ZERO
        );
    }

    #[test]
    fn tick_count_over_paper_horizon() {
        // 2.5 years of 15-minute samples: the paper's per-link series length.
        let horizon = SimDuration::from_days(913); // ~2.5 years
        let n = Ticks::telemetry(horizon).count();
        assert_eq!(n as u64, horizon.ticks(SimDuration::TELEMETRY_TICK));
        assert_eq!(n, 913 * 96);
    }

    #[test]
    fn ticks_half_open_interval() {
        let start = SimTime::EPOCH;
        let end = SimTime::EPOCH + SimDuration::from_minutes(45);
        let ticks: Vec<_> = Ticks::new(start, end, SimDuration::from_minutes(15)).collect();
        assert_eq!(ticks.len(), 3);
        assert_eq!(ticks[0], start);
        assert_eq!(ticks[2], start + SimDuration::from_minutes(30));
    }

    #[test]
    fn ticks_exact_size() {
        let it = Ticks::telemetry(SimDuration::from_days(10));
        assert_eq!(it.len(), 960);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(SimDuration::from_millis(35).to_string(), "35ms");
        assert_eq!(SimDuration::from_secs(42).to_string(), "42.00s");
        assert_eq!(SimDuration::from_secs(68).to_string(), "1.1min");
        assert_eq!(SimDuration::from_hours(5).to_string(), "5.0h");
        assert_eq!(SimDuration::from_days(913).to_string(), "913.0d");
    }
}
