//! Per-link and fleet-wide telemetry analysis.
//!
//! These are the computations behind the paper's measurement figures:
//!
//! - Fig. 2a: per-link SNR **range** and 95% **HDR width** distributions;
//! - Fig. 2b: per-link **feasible capacity** (from the HDR lower edge) and
//!   the fleet-wide capacity gain (the paper's 145 Tbps);
//! - Fig. 3a/3b: **failure episodes** a link would suffer if operated at
//!   each rung of the ladder — count and duration;
//! - Fig. 4c: the **SNR floor** during 100 G failure episodes, which decides
//!   whether a failure could instead have been a flap to a lower rate.

use crate::hdr::Hdr;
use crate::trace::SnrTrace;
use rwc_optics::{Modulation, ModulationTable};
use rwc_util::stats::Ecdf;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::{Db, Gbps};
use serde::{Content, Deserialize, Serialize};
use std::sync::OnceLock;

/// A maximal run of consecutive samples below a threshold — one link
/// failure at the corresponding capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FailureEpisode {
    /// Time of the first below-threshold sample.
    pub start: SimTime,
    /// Episode length (`samples × tick`).
    pub duration: SimDuration,
    /// Lowest SNR observed during the episode — Fig. 4c's x-axis.
    pub floor: Db,
}

/// Finds all failure episodes of a trace at the given SNR threshold.
pub fn episodes_below(trace: &SnrTrace, threshold: Db) -> Vec<FailureEpisode> {
    let mut episodes = Vec::new();
    let mut current: Option<(usize, f64)> = None; // (start index, floor)
    for (i, &v) in trace.values().iter().enumerate() {
        if v < threshold.value() {
            current = match current {
                None => Some((i, v)),
                Some((s, floor)) => Some((s, floor.min(v))),
            };
        } else if let Some((s, floor)) = current.take() {
            episodes.push(FailureEpisode {
                start: trace.time_at(s),
                duration: trace.tick() * (i - s) as u64,
                floor: Db(floor),
            });
        }
    }
    if let Some((s, floor)) = current {
        episodes.push(FailureEpisode {
            start: trace.time_at(s),
            duration: trace.tick() * (trace.len() - s) as u64,
            floor: Db(floor),
        });
    }
    episodes
}

/// Everything the measurement study needs to know about one link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkAnalysis {
    /// Mean SNR over the observation window.
    pub mean: Db,
    /// Minimum SNR.
    pub min: Db,
    /// Maximum SNR.
    pub max: Db,
    /// `max − min` (Fig. 2a blue curve).
    pub range: Db,
    /// 95% highest-density region (Fig. 2a red curve).
    pub hdr: Hdr,
    /// Fastest rung feasible at the HDR lower edge (Fig. 2b), if any.
    pub feasible: Option<Modulation>,
    /// Capacity of `feasible` (zero if none).
    pub feasible_capacity: Gbps,
    /// Gain over the 100 G static default (never negative).
    pub gain_over_static: Gbps,
    /// Failure episodes the link would suffer at each ladder rung
    /// (Fig. 3a counts, Fig. 3b durations, Fig. 4c floors), in ladder order.
    pub failures_per_rung: Vec<(Modulation, Vec<FailureEpisode>)>,
}

/// The fleet's static per-link rate in the paper.
pub const STATIC_CAPACITY: Gbps = Gbps(100.0);

impl LinkAnalysis {
    /// Analyses one link trace against a modulation table.
    pub fn new(trace: &SnrTrace, table: &ModulationTable) -> Self {
        let hdr = Hdr::paper(trace);
        let feasible = table.feasible(hdr.feasibility_floor());
        let feasible_capacity = feasible.map_or(Gbps::ZERO, Modulation::capacity);
        let failures_per_rung = table
            .entries()
            .iter()
            .map(|&(m, threshold)| (m, episodes_below(trace, threshold)))
            .collect();
        Self {
            mean: trace.mean(),
            min: trace.min(),
            max: trace.max(),
            range: trace.range(),
            hdr,
            feasible,
            feasible_capacity,
            gain_over_static: feasible_capacity.saturating_sub(STATIC_CAPACITY),
            failures_per_rung,
        }
    }

    /// Failure episodes at a specific rung.
    pub fn failures_at(&self, m: Modulation) -> &[FailureEpisode] {
        self.failures_per_rung
            .iter()
            .find(|(rung, _)| *rung == m)
            .map(|(_, eps)| eps.as_slice())
            .unwrap_or(&[])
    }
}

/// Per-rung fleet series: the rung plus (failure count per link, duration
/// in hours per episode, floor in dB per episode).
type RungStats = (Modulation, Vec<f64>, Vec<f64>, Vec<f64>);

/// Streaming accumulator of per-link analyses into fleet-level series.
///
/// Push one [`LinkAnalysis`] per link (the generator materialises links one
/// at a time), then read off the figure series. The ECDF views are built
/// lazily on first access and cached until the next `push`/`merge`, so
/// repeated reads (Fig. 2's several series, Fig. 4's floor scans) stop
/// cloning and re-sorting the full per-link vectors each call.
#[derive(Debug, Clone, Default)]
pub struct FleetAccumulator {
    hdr_widths: Vec<f64>,
    ranges: Vec<f64>,
    feasible_caps: Vec<f64>,
    gains: Vec<f64>,
    per_rung: Vec<RungStats>,
    hdr_width_ecdf: OnceLock<Ecdf>,
    range_ecdf: OnceLock<Ecdf>,
    feasible_capacity_ecdf: OnceLock<Ecdf>,
}

impl FleetAccumulator {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of links accumulated.
    pub fn len(&self) -> usize {
        self.hdr_widths.len()
    }

    /// True before the first link is pushed.
    pub fn is_empty(&self) -> bool {
        self.hdr_widths.is_empty()
    }

    /// Folds one link into the fleet statistics.
    pub fn push(&mut self, link: &LinkAnalysis) {
        self.invalidate_ecdfs();
        self.hdr_widths.push(link.hdr.width().value());
        self.ranges.push(link.range.value());
        self.feasible_caps.push(link.feasible_capacity.value());
        self.gains.push(link.gain_over_static.value());
        if self.per_rung.is_empty() {
            self.per_rung = link
                .failures_per_rung
                .iter()
                .map(|&(m, _)| (m, Vec::new(), Vec::new(), Vec::new()))
                .collect();
        }
        for (slot, (m, episodes)) in self.per_rung.iter_mut().zip(&link.failures_per_rung) {
            assert_eq!(slot.0, *m, "links analysed against different tables");
            slot.1.push(episodes.len() as f64);
            // Episode durations/floors follow the paper's Fig. 3b filter:
            // a hypothetical capacity is only evaluated on links whose SNR
            // makes it feasible ("only if the capacity is feasible as per
            // the link's SNR") — otherwise a permanently infeasible rung
            // would register one horizon-long "failure".
            if link.feasible_capacity >= m.capacity() {
                for e in episodes {
                    slot.2.push(e.duration.as_hours_f64());
                    slot.3.push(e.floor.value());
                }
            }
        }
    }

    /// Drops the cached ECDF views; called by every mutation.
    fn invalidate_ecdfs(&mut self) {
        self.hdr_width_ecdf = OnceLock::new();
        self.range_ecdf = OnceLock::new();
        self.feasible_capacity_ecdf = OnceLock::new();
    }

    /// ECDF of 95% HDR widths (Fig. 2a red curve). Built once, cached
    /// until the next `push`/`merge`.
    pub fn hdr_width_ecdf(&self) -> &Ecdf {
        self.hdr_width_ecdf.get_or_init(|| Ecdf::new(self.hdr_widths.clone()))
    }

    /// ECDF of SNR ranges (Fig. 2a blue curve). Cached like
    /// [`hdr_width_ecdf`](Self::hdr_width_ecdf).
    pub fn range_ecdf(&self) -> &Ecdf {
        self.range_ecdf.get_or_init(|| Ecdf::new(self.ranges.clone()))
    }

    /// ECDF of feasible capacities in Gbps (Fig. 2b). Cached like
    /// [`hdr_width_ecdf`](Self::hdr_width_ecdf).
    pub fn feasible_capacity_ecdf(&self) -> &Ecdf {
        self.feasible_capacity_ecdf.get_or_init(|| Ecdf::new(self.feasible_caps.clone()))
    }

    /// Per-link feasible capacities (Gbps) in push order. A single-link
    /// partial (as checkpointed by the serve daemon) exposes its one value
    /// at index 0.
    pub fn feasible_capacities(&self) -> &[f64] {
        &self.feasible_caps
    }

    /// Fraction of links whose HDR is narrower than `width` (the paper: 83%
    /// below 2 dB).
    pub fn fraction_hdr_below(&self, width: Db) -> f64 {
        assert!(!self.is_empty(), "no links accumulated");
        let n = self.hdr_widths.iter().filter(|&&w| w < width.value()).count();
        n as f64 / self.hdr_widths.len() as f64
    }

    /// Fraction of links feasible at `capacity` or higher (the paper: 80%
    /// at ≥175 G).
    pub fn fraction_feasible_at_least(&self, capacity: Gbps) -> f64 {
        assert!(!self.is_empty(), "no links accumulated");
        let n = self.feasible_caps.iter().filter(|&&c| c >= capacity.value()).count();
        n as f64 / self.feasible_caps.len() as f64
    }

    /// Total fleet capacity gain over the static 100 G default (the paper:
    /// ≈145 Tbps for ~2,000 links).
    pub fn total_gain(&self) -> Gbps {
        Gbps(self.gains.iter().sum())
    }

    /// Per-link failure counts at a rung (Fig. 3a's y-values).
    pub fn failure_counts(&self, m: Modulation) -> &[f64] {
        self.rung(m).map(|r| r.1.as_slice()).unwrap_or(&[])
    }

    /// Episode durations in hours at a rung (Fig. 3b's y-values).
    pub fn failure_durations_hours(&self, m: Modulation) -> &[f64] {
        self.rung(m).map(|r| r.2.as_slice()).unwrap_or(&[])
    }

    /// Episode SNR floors in dB at a rung (Fig. 4c input, taken at 100 G).
    pub fn failure_floors_db(&self, m: Modulation) -> &[f64] {
        self.rung(m).map(|r| r.3.as_slice()).unwrap_or(&[])
    }

    /// Fraction of failure episodes at rung `m` whose SNR floor stayed at or
    /// above `floor` — the paper's "25% of failures could run at 50 G".
    pub fn fraction_failures_with_floor_at_least(&self, m: Modulation, floor: Db) -> f64 {
        let floors = self.failure_floors_db(m);
        if floors.is_empty() {
            return 0.0;
        }
        floors.iter().filter(|&&f| f >= floor.value()).count() as f64 / floors.len() as f64
    }

    fn rung(&self, m: Modulation) -> Option<&RungStats> {
        self.per_rung.iter().find(|r| r.0 == m)
    }

    /// Merges another accumulator (e.g. from a parallel worker) into this
    /// one. Both must have been fed links analysed against the same
    /// modulation table.
    pub fn merge(&mut self, other: FleetAccumulator) {
        self.invalidate_ecdfs();
        self.hdr_widths.extend(other.hdr_widths);
        self.ranges.extend(other.ranges);
        self.feasible_caps.extend(other.feasible_caps);
        self.gains.extend(other.gains);
        if self.per_rung.is_empty() {
            self.per_rung = other.per_rung;
        } else if !other.per_rung.is_empty() {
            assert_eq!(self.per_rung.len(), other.per_rung.len(), "different tables");
            for (slot, o) in self.per_rung.iter_mut().zip(other.per_rung) {
                assert_eq!(slot.0, o.0, "different tables");
                slot.1.extend(o.1);
                slot.2.extend(o.2);
                slot.3.extend(o.3);
            }
        }
    }
}

/// Hand-written because the lazy ECDF caches are derived state that must
/// stay out of the serialized form (and the vendored `serde_derive` has no
/// `#[serde(skip)]`). Serializes exactly the accumulated data fields, so
/// two accumulators with equal contents — however their caches differ —
/// produce identical bytes. That is what the kernel-vs-oracle byte-identity
/// tests compare.
impl Serialize for FleetAccumulator {
    fn to_content(&self) -> Content {
        Content::Map(vec![
            ("hdr_widths".into(), self.hdr_widths.to_content()),
            ("ranges".into(), self.ranges.to_content()),
            ("feasible_caps".into(), self.feasible_caps.to_content()),
            ("gains".into(), self.gains.to_content()),
            ("per_rung".into(), self.per_rung.to_content()),
        ])
    }
}

/// The inverse of the hand-written [`Serialize`]: restores the accumulated
/// data fields and leaves the ECDF caches cold, so serializing a restored
/// accumulator reproduces the original bytes exactly. This is what lets
/// checkpointed chunk partials resume byte-identically (rwc-harness).
impl Deserialize for FleetAccumulator {
    fn from_content(content: &Content) -> Result<Self, serde::DeError> {
        let map = content
            .as_map()
            .ok_or_else(|| serde::DeError::expected("map", "FleetAccumulator"))?;
        Ok(Self {
            hdr_widths: Deserialize::from_content(serde::map_field(map, "hdr_widths"))?,
            ranges: Deserialize::from_content(serde::map_field(map, "ranges"))?,
            feasible_caps: Deserialize::from_content(serde::map_field(map, "feasible_caps"))?,
            gains: Deserialize::from_content(serde::map_field(map, "gains"))?,
            per_rung: Deserialize::from_content(serde::map_field(map, "per_rung"))?,
            hdr_width_ecdf: OnceLock::new(),
            range_ecdf: OnceLock::new(),
            feasible_capacity_ecdf: OnceLock::new(),
        })
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
    fn episode_detection_merges_consecutive_samples() {
        let t = trace(vec![12.0, 5.0, 4.0, 6.0, 12.0, 3.0, 12.0]);
        let eps = episodes_below(&t, Db(6.5));
        assert_eq!(eps.len(), 2);
        assert_eq!(eps[0].duration, SimDuration::from_minutes(45));
        assert_eq!(eps[0].floor, Db(4.0));
        assert_eq!(eps[1].duration, SimDuration::from_minutes(15));
        assert_eq!(eps[1].floor, Db(3.0));
        assert_eq!(eps[0].start, SimTime::EPOCH + SimDuration::from_minutes(15));
    }

    #[test]
    fn episode_running_at_trace_end() {
        let t = trace(vec![12.0, 4.0, 4.0]);
        let eps = episodes_below(&t, Db(6.5));
        assert_eq!(eps.len(), 1);
        assert_eq!(eps[0].duration, SimDuration::from_minutes(30));
    }

    #[test]
    fn no_episodes_on_healthy_trace() {
        let t = trace(vec![12.0; 100]);
        assert!(episodes_below(&t, Db(6.5)).is_empty());
    }

    #[test]
    fn boundary_is_strict() {
        // A sample exactly at threshold is NOT a failure (>= holds the link).
        let t = trace(vec![6.5, 6.5]);
        assert!(episodes_below(&t, Db(6.5)).is_empty());
    }

    #[test]
    fn link_analysis_full_pipeline() {
        // 96 samples at ~12.8, 4 outage samples: feasible 200 G from HDR
        // floor; one failure at every rung.
        let mut samples = vec![12.8; 96];
        samples.extend([0.2, 0.2, 0.2, 0.2]);
        let a = LinkAnalysis::new(&trace(samples), &ModulationTable::paper_default());
        assert_eq!(a.feasible, Some(Modulation::Dp16Qam200));
        assert_eq!(a.feasible_capacity, Gbps(200.0));
        assert_eq!(a.gain_over_static, Gbps(100.0));
        assert!(a.range.value() > 12.0);
        assert!(a.hdr.width().value() < 0.1);
        for (_, eps) in &a.failures_per_rung {
            assert_eq!(eps.len(), 1);
            assert_eq!(eps[0].duration, SimDuration::from_minutes(60));
        }
    }

    #[test]
    fn marginal_link_fails_only_at_high_rungs() {
        // Baseline 11.5: above the 175 G threshold (11.0) but a 1 dB wobble
        // crosses it; 200 G (12.5) is permanently infeasible.
        let samples: Vec<f64> =
            (0..100).map(|i| if i % 10 == 0 { 10.8 } else { 11.5 }).collect();
        let a = LinkAnalysis::new(&trace(samples), &ModulationTable::paper_default());
        assert!(a.failures_at(Modulation::DpQpsk100).is_empty());
        assert_eq!(a.failures_at(Modulation::Hybrid175).len(), 10);
        assert!(!a.failures_at(Modulation::Dp16Qam200).is_empty());
    }

    #[test]
    fn accumulator_aggregates() {
        let table = ModulationTable::paper_default();
        let mut acc = FleetAccumulator::new();
        // Link 1: strong (200 G), one outage.
        let mut s1 = vec![13.5; 97];
        s1.extend([0.2, 0.2, 0.2]);
        acc.push(&LinkAnalysis::new(&trace(s1), &table));
        // Link 2: weak (125 G), no failures.
        acc.push(&LinkAnalysis::new(&trace(vec![8.4; 100]), &table));
        assert_eq!(acc.len(), 2);
        assert_eq!(acc.total_gain(), Gbps(125.0)); // 100 + 25
        assert_eq!(acc.fraction_feasible_at_least(Gbps(175.0)), 0.5);
        assert_eq!(acc.fraction_hdr_below(Db(2.0)), 1.0);
        assert_eq!(acc.failure_counts(Modulation::DpQpsk100), &[1.0, 0.0]);
        assert_eq!(acc.failure_durations_hours(Modulation::DpQpsk100).len(), 1);
        // The outage floor is ~0.2 dB, below the 3 dB / 50 G line.
        assert_eq!(
            acc.fraction_failures_with_floor_at_least(Modulation::DpQpsk100, Db(3.0)),
            0.0
        );
    }

    #[test]
    fn accumulator_floor_fraction() {
        let table = ModulationTable::paper_default();
        let mut acc = FleetAccumulator::new();
        // One failure bottoming at 4 dB (flap-able), one at 0.2 (hard down).
        let mut s = vec![12.8; 50];
        s.push(4.0);
        s.extend(vec![12.8; 10]);
        s.push(0.2);
        s.extend(vec![12.8; 38]);
        acc.push(&LinkAnalysis::new(&trace(s), &table));
        let frac = acc.fraction_failures_with_floor_at_least(Modulation::DpQpsk100, Db(3.0));
        assert!((frac - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_equals_sequential() {
        let table = ModulationTable::paper_default();
        let traces: Vec<SnrTrace> = [12.8, 8.4, 13.5, 9.6]
            .iter()
            .map(|&b| trace(vec![b; 100]))
            .collect();
        let mut sequential = FleetAccumulator::new();
        for t in &traces {
            sequential.push(&LinkAnalysis::new(t, &table));
        }
        let mut left = FleetAccumulator::new();
        let mut right = FleetAccumulator::new();
        for t in &traces[..2] {
            left.push(&LinkAnalysis::new(t, &table));
        }
        for t in &traces[2..] {
            right.push(&LinkAnalysis::new(t, &table));
        }
        left.merge(right);
        assert_eq!(left.len(), sequential.len());
        assert_eq!(left.total_gain(), sequential.total_gain());
        assert_eq!(
            left.fraction_feasible_at_least(Gbps(175.0)),
            sequential.fraction_feasible_at_least(Gbps(175.0))
        );
        assert_eq!(
            left.failure_counts(Modulation::DpQpsk100).len(),
            sequential.failure_counts(Modulation::DpQpsk100).len()
        );
    }

    #[test]
    fn merge_into_empty() {
        let table = ModulationTable::paper_default();
        let mut a = FleetAccumulator::new();
        let mut b = FleetAccumulator::new();
        b.push(&LinkAnalysis::new(&trace(vec![12.0; 50]), &table));
        a.merge(b);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn accumulator_json_round_trip_is_byte_identical() {
        let table = ModulationTable::paper_default();
        let mut acc = FleetAccumulator::new();
        let mut s1 = vec![13.5; 97];
        s1.extend([0.2, 0.2, 0.2]);
        acc.push(&LinkAnalysis::new(&trace(s1), &table));
        acc.push(&LinkAnalysis::new(&trace(vec![8.4; 100]), &table));
        // Touch an ECDF cache: derived state must not leak into the bytes.
        let _ = acc.hdr_width_ecdf();
        let json = serde_json::to_string(&acc).unwrap();
        let back: FleetAccumulator = serde_json::from_str(&json).expect("round trip");
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.len(), acc.len());
        assert_eq!(back.total_gain(), acc.total_gain());
        assert_eq!(
            back.failure_counts(Modulation::DpQpsk100),
            acc.failure_counts(Modulation::DpQpsk100)
        );
    }

    #[test]
    fn accumulator_deserialize_rejects_non_map() {
        assert!(serde_json::from_str::<FleetAccumulator>("[1,2]").is_err());
    }

    #[test]
    fn ecdf_series_shapes() {
        let table = ModulationTable::paper_default();
        let mut acc = FleetAccumulator::new();
        for base in [8.4, 9.6, 11.2, 12.8, 13.4] {
            acc.push(&LinkAnalysis::new(&trace(vec![base; 100]), &table));
        }
        let caps = acc.feasible_capacity_ecdf();
        assert_eq!(caps.min(), 125.0);
        assert_eq!(caps.max(), 200.0);
        // 3 of 5 links at >= 175 G.
        assert!((acc.fraction_feasible_at_least(Gbps(175.0)) - 0.6).abs() < 1e-12);
    }
}
