//! Root-cause taxonomy of unplanned WAN failures.
//!
//! The paper identifies three documented categories — unplanned events
//! during scheduled maintenance (mostly human error), fiber cuts, and
//! optical hardware failures — plus a residual of undocumented events that
//! "were not instances of fiber cuts". Its headline: fiber cuts are only
//! ~5% of events (~10% of outage time); over 90% of failure events leave a
//! usable (degraded) signal.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a link failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RootCause {
    /// Unplanned impairment while scheduled maintenance was underway
    /// (human error during line-card swaps, mis-patches, …).
    MaintenanceCoincident,
    /// An accidental break of the fiber itself.
    FiberCut,
    /// Failure of optical hardware: amplifiers, transponders, optical
    /// cross-connects, power.
    HardwareFailure,
    /// Technicians did not log the exact action taken — but the paper
    /// verified these were not fiber cuts.
    Undocumented,
}

impl RootCause {
    /// All categories in presentation order (matches Fig. 4's bars).
    pub const ALL: [RootCause; 4] = [
        RootCause::MaintenanceCoincident,
        RootCause::FiberCut,
        RootCause::HardwareFailure,
        RootCause::Undocumented,
    ];

}

impl fmt::Display for RootCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RootCause::MaintenanceCoincident => "maintenance-coincident",
            RootCause::FiberCut => "fiber-cut",
            RootCause::HardwareFailure => "hardware-failure",
            RootCause::Undocumented => "undocumented",
        };
        f.write_str(s)
    }
}

/// The statistical mix of a ticket corpus: per-cause event weights, outage
/// duration medians and SNR-floor behaviour.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RootCauseMix {
    /// Relative event frequency per cause (need not be normalised),
    /// indexed parallel to [`RootCause::ALL`].
    pub event_weights: [f64; 4],
    /// Median outage duration per cause, hours.
    pub duration_median_hours: [f64; 4],
    /// Log-space sigma of the (lognormal) outage durations.
    pub duration_sigma: f64,
    /// Probability that a failure of each cause takes the SNR all the way
    /// to the noise floor (vs leaving a degraded but live signal).
    pub loss_of_light_prob: [f64; 4],
}

impl RootCauseMix {
    /// Calibrated to the paper's Fig. 4: events ≈ 25/5/40/30 %,
    /// durations ≈ 20/10/45/25 % (fiber cuts are rare but long), and an
    /// SNR-floor mixture giving ~25–30% of events a floor ≥ 3 dB.
    pub fn paper() -> Self {
        Self {
            event_weights: [25.0, 5.0, 40.0, 30.0],
            duration_median_hours: [4.0, 10.0, 5.6, 4.2],
            duration_sigma: 0.9,
            loss_of_light_prob: [0.0, 1.0, 0.60, 0.40],
        }
    }

    /// Index of a cause in the parallel arrays.
    pub fn index(cause: RootCause) -> usize {
        RootCause::ALL.iter().position(|&c| c == cause).unwrap()
    }

    /// Event weight of one cause.
    pub fn weight(&self, cause: RootCause) -> f64 {
        self.event_weights[Self::index(cause)]
    }

    /// Median outage duration of one cause, hours.
    pub fn median_hours(&self, cause: RootCause) -> f64 {
        self.duration_median_hours[Self::index(cause)]
    }

    /// Probability the cause extinguishes the light entirely.
    pub fn lol_prob(&self, cause: RootCause) -> f64 {
        self.loss_of_light_prob[Self::index(cause)]
    }
}

impl Default for RootCauseMix {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_categories_in_order() {
        assert_eq!(RootCause::ALL.len(), 4);
        assert_eq!(RootCause::ALL[1], RootCause::FiberCut);
    }

    #[test]
    fn paper_mix_event_shares() {
        let mix = RootCauseMix::paper();
        let total: f64 = mix.event_weights.iter().sum();
        // Fiber cuts ~5% of events; non-fiber-cut > 90%.
        assert!((mix.weight(RootCause::FiberCut) / total - 0.05).abs() < 1e-12);
        let non_cut = 1.0 - mix.weight(RootCause::FiberCut) / total;
        assert!(non_cut > 0.90);
    }

    #[test]
    fn fiber_cuts_are_long_but_rare() {
        let mix = RootCauseMix::paper();
        // Longest median duration despite lowest frequency.
        for c in RootCause::ALL {
            if c != RootCause::FiberCut {
                assert!(mix.median_hours(RootCause::FiberCut) > mix.median_hours(c));
                assert!(mix.weight(RootCause::FiberCut) < mix.weight(c));
            }
        }
    }

    #[test]
    fn fiber_cuts_always_lose_light() {
        let mix = RootCauseMix::paper();
        assert_eq!(mix.lol_prob(RootCause::FiberCut), 1.0);
        assert_eq!(mix.lol_prob(RootCause::MaintenanceCoincident), 0.0);
    }

    #[test]
    fn display_names() {
        assert_eq!(RootCause::FiberCut.to_string(), "fiber-cut");
        assert_eq!(RootCause::Undocumented.to_string(), "undocumented");
    }
}
