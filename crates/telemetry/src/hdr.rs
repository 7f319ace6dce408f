//! Highest-density-region analysis of SNR traces.
//!
//! The paper characterises SNR stability by the *highest density region*
//! (HDR): "the smallest interval in which 95% or more of the SNR values are
//! concentrated". The HDR separates routine micro-noise from rare dramatic
//! events: a link whose HDR is 1.5 dB wide but whose range is 12 dB is a
//! stable link that suffered an outage, not a noisy link.

use crate::analysis::grid_db;
use crate::trace::SnrTrace;
use rwc_util::simd::grid_bin;
use rwc_util::stats::highest_density_interval;
use rwc_util::units::Db;
use serde::{Deserialize, Serialize};

/// The paper's HDR coverage level.
pub const PAPER_COVERAGE: f64 = 0.95;

/// An HDR of a trace: the interval plus its coverage level.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Hdr {
    /// Lower edge of the interval.
    pub low: Db,
    /// Upper edge of the interval.
    pub high: Db,
    /// Fraction of samples the interval was required to cover.
    pub coverage: f64,
}

impl Hdr {
    /// The HDR of a trace's readings on the 0.1 dB instrument grid at the
    /// given coverage: the bins are sorted and scanned for the narrowest
    /// window. Bin numbers are small integers, so every width the scan
    /// compares is exact.
    pub(crate) fn of_trace(trace: &SnrTrace, coverage: f64) -> Hdr {
        let mut bins: Vec<f64> = trace.values().iter().map(|&v| grid_bin(v) as f64).collect();
        bins.sort_by(f64::total_cmp);
        let (low, high) = highest_density_interval(&bins, coverage);
        Self::of_bins(low as usize, high as usize, coverage)
    }

    /// The HDR spanning grid bins `low..=high`.
    pub(crate) fn of_bins(low: usize, high: usize, coverage: f64) -> Hdr {
        Hdr { low: grid_db(low), high: grid_db(high), coverage }
    }

    /// The paper's 95% HDR.
    pub fn paper(trace: &SnrTrace) -> Hdr {
        Self::of_trace(trace, PAPER_COVERAGE)
    }

    /// Width of the interval — the x-axis of Fig. 2a's red curve — in
    /// whole grid steps, so a 20-step HDR is exactly 2 dB (`16.4 − 14.4`
    /// in `f64` is 1.9999999999999982).
    pub fn width(&self) -> Db {
        grid_db((grid_bin(self.high.value()) - grid_bin(self.low.value())) as usize)
    }

    /// The lower edge — the SNR the paper encodes against in Fig. 2b
    /// ("the feasible capacity for each link based on the lower SNR limit of
    /// its highest density region").
    pub fn feasibility_floor(&self) -> Db {
        self.low
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_util::time::{SimDuration, SimTime};

    fn trace(samples: Vec<f64>) -> SnrTrace {
        SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples)
    }

    #[test]
    fn stable_link_with_one_outage() {
        // 97 healthy samples around 12.5 dB, 3 outage samples near zero:
        // the 95% HDR must ignore the outage; the range must not.
        let mut samples: Vec<f64> = (0..97).map(|i| 12.3 + 0.004 * i as f64).collect();
        samples.extend([0.2, 0.15, 0.25]);
        let t = trace(samples);
        let hdr = Hdr::paper(&t);
        assert!(hdr.low.value() > 12.0, "hdr={hdr:?}");
        assert!(hdr.width().value() < 0.5);
        assert!(t.range().value() > 12.0);
    }

    #[test]
    fn noisy_link_has_wide_hdr() {
        // Alternating samples 4 dB apart: no narrow interval covers 95%.
        let samples: Vec<f64> =
            (0..200).map(|i| if i % 2 == 0 { 10.0 } else { 14.0 }).collect();
        let hdr = Hdr::paper(&trace(samples));
        assert!(hdr.width().value() >= 4.0 - 1e-9);
    }

    #[test]
    fn floor_drives_feasibility() {
        let samples: Vec<f64> = (0..100).map(|i| 11.2 + 0.002 * i as f64).collect();
        let hdr = Hdr::paper(&trace(samples));
        let table = rwc_optics::ModulationTable::paper_default();
        // Floor ~11.2 dB → 175 G feasible, 200 G not.
        assert_eq!(
            table.feasible(hdr.feasibility_floor()),
            Some(rwc_optics::Modulation::Hybrid175)
        );
    }

    #[test]
    fn full_coverage_equals_range() {
        let t = trace(vec![1.0, 5.0, 9.0, 2.0]);
        let hdr = Hdr::of_trace(&t, 1.0);
        assert_eq!(hdr.width(), t.range());
    }
}
