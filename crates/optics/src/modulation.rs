//! The modulation / capacity ladder and its SNR thresholds.
//!
//! The paper's hardware exposes five capacity denominations above the legacy
//! rate — 100, 125, 150, 175 and 200 Gbps — plus a 50 Gbps fallback
//! (§2.2 notes 3.0 dB suffices for 50 Gbps). Each rate has a *required SNR*
//! below which the receiver cannot hold the target pre-FEC error rate and
//! the link is declared down.
//!
//! The 6.5 dB (100 G) and 3.0 dB (50 G) anchors are stated in the paper; the
//! intermediate thresholds follow the ~1.5 dB-per-25-Gbps spacing the ladder
//! implies and are validated against closed-form symbol-error-rate models in
//! [`crate::ber`]. The paper stresses the thresholds are hardware-specific;
//! [`ModulationTable::with_margin`] therefore adds an operator guard margin.

use rwc_util::units::{Db, Gbps};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A modulation format / capacity step of the BVT ladder.
///
/// Dual-polarisation coherent formats; the 125 and 175 Gbps steps are
/// time-interleaved hybrids of the neighbouring pure formats, which is how
/// flex-rate transceivers of the paper's era realised quarter-steps.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub enum Modulation {
    /// DP-BPSK, 50 Gbps — the paper's "crawl" fallback rate.
    DpBpsk50,
    /// DP-QPSK, 100 Gbps — the fleet-wide static default.
    DpQpsk100,
    /// QPSK/8QAM hybrid, 125 Gbps.
    Hybrid125,
    /// DP-8QAM, 150 Gbps.
    Dp8Qam150,
    /// 8QAM/16QAM hybrid, 175 Gbps.
    Hybrid175,
    /// DP-16QAM, 200 Gbps — the "run" rate.
    Dp16Qam200,
}

impl Modulation {
    /// All formats, slowest to fastest.
    pub const LADDER: [Modulation; 6] = [
        Modulation::DpBpsk50,
        Modulation::DpQpsk100,
        Modulation::Hybrid125,
        Modulation::Dp8Qam150,
        Modulation::Hybrid175,
        Modulation::Dp16Qam200,
    ];

    /// Line rate carried at this format.
    pub const fn capacity(self) -> Gbps {
        match self {
            Modulation::DpBpsk50 => Gbps(50.0),
            Modulation::DpQpsk100 => Gbps(100.0),
            Modulation::Hybrid125 => Gbps(125.0),
            Modulation::Dp8Qam150 => Gbps(150.0),
            Modulation::Hybrid175 => Gbps(175.0),
            Modulation::Dp16Qam200 => Gbps(200.0),
        }
    }

    /// Minimum SNR at which the receiver sustains this rate (the paper's
    /// dashed thresholds; defaults per the DESIGN.md calibration table).
    pub const fn required_snr(self) -> Db {
        match self {
            Modulation::DpBpsk50 => Db(3.0),
            Modulation::DpQpsk100 => Db(6.5),
            Modulation::Hybrid125 => Db(8.0),
            Modulation::Dp8Qam150 => Db(9.5),
            Modulation::Hybrid175 => Db(11.0),
            Modulation::Dp16Qam200 => Db(12.5),
        }
    }

    /// Next step down the ladder, if any.
    pub fn step_down(self) -> Option<Modulation> {
        let idx = Self::LADDER.iter().position(|&m| m == self).unwrap();
        idx.checked_sub(1).map(|i| Self::LADDER[i])
    }
}

impl fmt::Display for Modulation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Modulation::DpBpsk50 => "DP-BPSK (50G)",
            Modulation::DpQpsk100 => "DP-QPSK (100G)",
            Modulation::Hybrid125 => "QPSK/8QAM (125G)",
            Modulation::Dp8Qam150 => "DP-8QAM (150G)",
            Modulation::Hybrid175 => "8QAM/16QAM (175G)",
            Modulation::Dp16Qam200 => "DP-16QAM (200G)",
        };
        f.write_str(name)
    }
}

/// A hardware-specific modulation ladder: formats paired with *operating*
/// SNR thresholds.
///
/// The paper computes feasibility against thresholds "specific to our
/// hardware, fiber length, fiber type, and wavelength"; a table lets
/// operators express exactly that, including guard margins on top of the
/// bare receiver requirements.
///
/// ```
/// use rwc_optics::{Modulation, ModulationTable};
/// use rwc_util::units::Db;
///
/// let table = ModulationTable::paper_default();
/// // 12.8 dB clears every rung; the fastest wins.
/// assert_eq!(table.feasible(Db(12.8)), Some(Modulation::Dp16Qam200));
/// // Below 3 dB nothing holds: the link is down.
/// assert_eq!(table.feasible(Db(2.0)), None);
/// // A conservative operator adds a guard margin to every threshold.
/// let guarded = ModulationTable::with_margin(Db(1.0));
/// assert_eq!(guarded.feasible(Db(12.8)), Some(Modulation::Hybrid175));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModulationTable {
    /// `(format, operating threshold)`, sorted by ascending capacity.
    entries: Vec<(Modulation, Db)>,
}

impl ModulationTable {
    /// The paper's ladder with its published/derived thresholds and no
    /// extra margin.
    pub fn paper_default() -> Self {
        Self {
            entries: Modulation::LADDER
                .iter()
                .map(|&m| (m, m.required_snr()))
                .collect(),
        }
    }

    /// The paper's ladder with a uniform guard margin added to every
    /// threshold (conservative-operator mode).
    pub fn with_margin(margin: Db) -> Self {
        assert!(margin.value() >= 0.0, "guard margin must be non-negative");
        Self {
            entries: Modulation::LADDER
                .iter()
                .map(|&m| (m, m.required_snr() + margin))
                .collect(),
        }
    }

    /// All `(format, threshold)` entries, ascending capacity.
    pub fn entries(&self) -> &[(Modulation, Db)] {
        &self.entries
    }

    /// Operating threshold for a format, if present in this table.
    pub fn threshold(&self, m: Modulation) -> Option<Db> {
        self.entries.iter().find(|(f, _)| *f == m).map(|&(_, t)| t)
    }

    /// The fastest format feasible at the given SNR, or `None` if even the
    /// slowest rate is infeasible (the link is down).
    pub fn feasible(&self, snr: Db) -> Option<Modulation> {
        self.entries
            .iter()
            .rev()
            .find(|&&(_, threshold)| snr >= threshold)
            .map(|&(m, _)| m)
    }

    /// Feasible *capacity* at the given SNR (`0` if the link would be down).
    pub fn feasible_capacity(&self, snr: Db) -> Gbps {
        self.feasible(snr).map_or(Gbps::ZERO, Modulation::capacity)
    }

    /// Whether a link at `snr` can sustain format `m` per this table.
    pub fn supports(&self, snr: Db, m: Modulation) -> bool {
        self.threshold(m).is_some_and(|t| snr >= t)
    }

    /// SNR margin of a link at `snr` operating at format `m`
    /// (negative = the link is below threshold, i.e. down at that rate).
    pub fn margin(&self, snr: Db, m: Modulation) -> Option<Db> {
        self.threshold(m).map(|t| snr - t)
    }

    /// Formats whose capacity strictly exceeds `current` and which are
    /// feasible at `snr` — the upgrade candidates Algorithm 1 turns into
    /// fake links.
    pub fn upgrades(&self, snr: Db, current: Modulation) -> Vec<Modulation> {
        self.entries
            .iter()
            .filter(|&&(m, t)| m.capacity() > current.capacity() && snr >= t)
            .map(|&(m, _)| m)
            .collect()
    }

    /// The slowest format in the table (the "crawl" rate).
    pub fn slowest(&self) -> Modulation {
        self.entries[0].0
    }

    /// The fastest format in the table (the "run" rate).
    pub fn fastest(&self) -> Modulation {
        self.entries.last().unwrap().0
    }
}

impl Default for ModulationTable {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_sorted_and_consistent() {
        for pair in Modulation::LADDER.windows(2) {
            assert!(pair[0].capacity() < pair[1].capacity());
            assert!(pair[0].required_snr() < pair[1].required_snr());
        }
    }

    #[test]
    fn paper_anchor_thresholds() {
        // Both values are stated explicitly in the paper.
        assert_eq!(Modulation::DpQpsk100.required_snr(), Db(6.5));
        assert_eq!(Modulation::DpBpsk50.required_snr(), Db(3.0));
    }

    #[test]
    fn step_up_down_navigation() {
        assert_eq!(Modulation::DpQpsk100.step_down(), Some(Modulation::DpBpsk50));
        assert_eq!(Modulation::DpBpsk50.step_down(), None);
    }

    #[test]
    fn feasible_picks_fastest_supported() {
        let table = ModulationTable::paper_default();
        assert_eq!(table.feasible(Db(12.8)), Some(Modulation::Dp16Qam200));
        assert_eq!(table.feasible(Db(12.4)), Some(Modulation::Hybrid175));
        assert_eq!(table.feasible(Db(6.5)), Some(Modulation::DpQpsk100));
        assert_eq!(table.feasible(Db(3.05)), Some(Modulation::DpBpsk50));
        assert_eq!(table.feasible(Db(2.9)), None);
        assert_eq!(table.feasible(Db(f64::NEG_INFINITY)), None);
    }

    #[test]
    fn feasible_capacity_zero_when_down() {
        let table = ModulationTable::paper_default();
        assert_eq!(table.feasible_capacity(Db(1.0)), Gbps::ZERO);
        assert_eq!(table.feasible_capacity(Db(9.6)), Gbps(150.0));
    }

    #[test]
    fn margin_sign() {
        let table = ModulationTable::paper_default();
        let m = table.margin(Db(8.0), Modulation::DpQpsk100).unwrap();
        assert_eq!(m, Db(1.5));
        let m = table.margin(Db(5.0), Modulation::DpQpsk100).unwrap();
        assert_eq!(m, Db(-1.5));
        assert!(!table.supports(Db(5.0), Modulation::DpQpsk100));
        assert!(table.supports(Db(8.0), Modulation::DpQpsk100));
    }

    #[test]
    fn upgrades_lists_feasible_faster_formats() {
        let table = ModulationTable::paper_default();
        let ups = table.upgrades(Db(11.2), Modulation::DpQpsk100);
        assert_eq!(
            ups,
            vec![Modulation::Hybrid125, Modulation::Dp8Qam150, Modulation::Hybrid175]
        );
        assert!(table.upgrades(Db(5.0), Modulation::DpQpsk100).is_empty());
        assert!(table.upgrades(Db(20.0), Modulation::Dp16Qam200).is_empty());
    }

    #[test]
    fn margin_table_shifts_thresholds() {
        let table = ModulationTable::with_margin(Db(1.0));
        // 12.8 dB clears 200 G at zero margin but not with a 1 dB guard.
        assert_eq!(table.feasible(Db(12.8)), Some(Modulation::Hybrid175));
        assert_eq!(table.threshold(Modulation::DpQpsk100), Some(Db(7.5)));
    }

    #[test]
    fn slowest_and_fastest() {
        let table = ModulationTable::paper_default();
        assert_eq!(table.slowest(), Modulation::DpBpsk50);
        assert_eq!(table.fastest(), Modulation::Dp16Qam200);
    }

    #[test]
    fn display_names() {
        assert_eq!(Modulation::DpQpsk100.to_string(), "DP-QPSK (100G)");
        assert_eq!(Modulation::Dp16Qam200.to_string(), "DP-16QAM (200G)");
    }

    #[test]
    fn serde_round_trip() {
        let table = ModulationTable::paper_default();
        let json = serde_json::to_string(&table).unwrap();
        let back: ModulationTable = serde_json::from_str(&json).unwrap();
        assert_eq!(table, back);
    }
}
