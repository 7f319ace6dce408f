//! Lock-free metrics registry and its serializable snapshots.
//!
//! The registry is immutable after construction: every metric in
//! [`crate::names`] gets its atomic cell up front, and updates are single
//! relaxed atomic ops (plus a short CAS loop for float min/max). A name
//! finds its cell in O(1) through a process-wide slot table: the
//! catalogue is sorted and indexed by an open-addressed hash table once
//! per process ([`OnceLock`]), a hit is confirmed by a full string
//! compare, and a registry holds nothing but its cells — so building one
//! per fleet link costs no sorting or hashing. No locks anywhere on the
//! write path, so scenario ticks and fleet workers can hammer the same
//! registry — or, cheaper, each worker owns a registry and the partials
//! are merged: counter and bucket addition commutes, so the merged
//! snapshot is identical to a single-threaded run no matter the
//! scheduling.
//!
//! Histograms are log-linear: one bucket per ⅛-octave (8 linear
//! sub-buckets per power of two), which holds relative error under 12.5%
//! across the full `f64` range while keeping a histogram at a fixed 513
//! cells. Percentiles come from the bucket lower bound clamped into the
//! observed `[min, max]`, so single-valued histograms report exact
//! percentiles.

use crate::names;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// Linear sub-buckets per octave (power of two).
const SUB: usize = 8;
/// Bucket 0 catches `v < 1` (and NaN/negative, clamped); then 64 octaves
/// of `SUB` sub-buckets each.
const N_BUCKETS: usize = 1 + 64 * SUB;

/// Maps a recorded value to its bucket.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v < 1.0 {
        return 0; // < 1, zero, negative and NaN all land in the catch-all.
    }
    let bits = v.to_bits();
    let exp = ((bits >> 52) & 0x7ff) as i64 - 1023; // unbiased exponent, >= 0 here
    if exp >= 64 {
        return N_BUCKETS - 1; // 2^64 and beyond: saturate.
    }
    let sub = (bits >> (52 - 3)) & 0x7; // top 3 mantissa bits = linear position
    1 + exp as usize * SUB + sub as usize
}

/// Lower bound of a bucket — the representative percentile value.
fn bucket_lower(index: usize) -> f64 {
    if index == 0 {
        return 0.0;
    }
    let exp = (index - 1) / SUB;
    let sub = (index - 1) % SUB;
    (2f64).powi(exp as i32) * (1.0 + sub as f64 / SUB as f64)
}

fn atomic_f64_min(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while f64::from_bits(cur) > v {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

fn atomic_f64_max(cell: &AtomicU64, v: f64) {
    let mut cur = cell.load(Ordering::Relaxed);
    while f64::from_bits(cur) < v {
        match cell.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(c) => cur = c,
        }
    }
}

/// A recorded value as the histogram keeps it: NaN and negatives are 0,
/// +∞ is `f64::MAX`. `v > 0.0` is false for NaN; on x86-64 the body
/// compiles to one `maxsd` and one `minsd`, no branch.
fn clamp(v: f64) -> f64 {
    let kept = if v > 0.0 { v } else { 0.0 };
    kept.min(f64::MAX)
}

/// A gauge value as the registry keeps it: NaN is 0, ±∞ is ±`f64::MAX`.
fn finite(v: f64) -> f64 {
    if v.is_nan() {
        0.0
    } else {
        v.clamp(f64::MIN, f64::MAX)
    }
}

/// A kept value's contribution to the integer sum.
fn sum_units(v: f64) -> u64 {
    v.round().min(u64::MAX as f64) as u64
}

/// One log-linear histogram: bucket counts plus count/sum/min/max.
#[derive(Debug)]
struct Histogram {
    count: AtomicU64,
    /// Sum of recorded values rounded to integer units — integer addition
    /// keeps merged sums exactly equal to single-threaded sums (float
    /// accumulation order would not). All catalogue histograms record
    /// integer-valued units (micros, ticks) anyway.
    sum: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Histogram {
    fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: (0..N_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    fn record(&self, v: f64) {
        let v = clamp(v);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(sum_units(v), Ordering::Relaxed);
        atomic_f64_min(&self.min_bits, v);
        atomic_f64_max(&self.max_bits, v);
    }

    /// [`Histogram::record`] of every value in turn, folded locally
    /// first: one atomic add per touched bucket, then one each for the
    /// count and the (wrapping, like the atomic's) sum, and one min and
    /// one max update. The strict comparisons keep the first of equal
    /// extremes, as the atomic loops do, so the cells end bit-identical.
    fn record_each(&self, values: &[f64]) {
        if values.is_empty() {
            return;
        }
        let mut buckets = [0u64; N_BUCKETS];
        let (mut sum, mut min, mut max) = (0u64, f64::INFINITY, f64::NEG_INFINITY);
        for &v in values {
            let v = clamp(v);
            buckets[bucket_index(v)] += 1;
            sum = sum.wrapping_add(sum_units(v));
            if v < min {
                min = v;
            }
            if v > max {
                max = v;
            }
        }
        for (cell, &c) in self.buckets.iter().zip(&buckets) {
            if c > 0 {
                cell.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.count.fetch_add(values.len() as u64, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        atomic_f64_min(&self.min_bits, min);
        atomic_f64_max(&self.max_bits, max);
    }

    fn absorb(&self, snap: &HistogramSnapshot) {
        if snap.count == 0 {
            return;
        }
        for bc in &snap.buckets {
            self.buckets[bc.bucket as usize].fetch_add(bc.count, Ordering::Relaxed);
        }
        self.count.fetch_add(snap.count, Ordering::Relaxed);
        self.sum.fetch_add(snap.sum, Ordering::Relaxed);
        atomic_f64_min(&self.min_bits, snap.min);
        atomic_f64_max(&self.max_bits, snap.max);
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            // Most of a registry's histograms: skip their 513 cold cells.
            return HistogramSnapshot::EMPTY;
        }
        let min = f64::from_bits(self.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(self.max_bits.load(Ordering::Relaxed));
        let buckets: Vec<BucketCount> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, b)| {
                let c = b.load(Ordering::Relaxed);
                (c > 0).then_some(BucketCount { bucket: i as u32, count: c })
            })
            .collect();
        let mut snap = HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            min,
            max,
            p50: 0.0,
            p90: 0.0,
            p99: 0.0,
            buckets,
        };
        snap.refresh_percentiles();
        snap
    }
}

/// A `(bucket index, count)` pair; only non-empty buckets are kept.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BucketCount {
    /// Index into the fixed log-linear bucket layout.
    pub bucket: u32,
    /// Samples that landed in it.
    pub count: u64,
}

/// Point-in-time view of one histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Total recorded samples.
    pub count: u64,
    /// Sum of samples, rounded to integer units.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: f64,
    /// Largest recorded value (0 when empty).
    pub max: f64,
    /// Median estimate (bucket lower bound, clamped to `[min, max]`).
    pub p50: f64,
    /// 90th percentile estimate.
    pub p90: f64,
    /// 99th percentile estimate.
    pub p99: f64,
    /// Non-empty buckets, ascending by index.
    pub buckets: Vec<BucketCount>,
}

impl HistogramSnapshot {
    const EMPTY: Self =
        Self { count: 0, sum: 0, min: 0.0, max: 0.0, p50: 0.0, p90: 0.0, p99: 0.0, buckets: Vec::new() };

    /// Mean of the recorded samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Nearest-rank percentile over the buckets; `p` in `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p.clamp(0.0, 100.0) / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for bc in &self.buckets {
            seen += bc.count;
            if seen >= rank {
                return bucket_lower(bc.bucket as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds `other` in: counts and sums add, min/max widen, percentiles
    /// are recomputed from the combined buckets. Addition commutes, so
    /// any merge order yields the same snapshot.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        let mut by_index: BTreeMap<u32, u64> =
            self.buckets.iter().map(|b| (b.bucket, b.count)).collect();
        for bc in &other.buckets {
            *by_index.entry(bc.bucket).or_insert(0) += bc.count;
        }
        self.buckets =
            by_index.into_iter().map(|(bucket, count)| BucketCount { bucket, count }).collect();
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.refresh_percentiles();
    }

    fn refresh_percentiles(&mut self) {
        self.p50 = self.percentile(50.0);
        self.p90 = self.percentile(90.0);
        self.p99 = self.percentile(99.0);
    }
}

/// Deterministic, serializable view of a whole registry. `BTreeMap`
/// ordering makes the JSON stable across runs and platforms; a
/// [`MetricsRegistry::snapshot`] carries every catalogue name even when
/// zero, so consumers (the CI obs smoke step) can assert on keys
/// unconditionally. A holder may drop zero entries (the daemon's
/// per-link snapshots do): [`MetricsSnapshot::merge`] treats a missing
/// name as zero.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram digests by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` in: counters and histograms add, gauges keep the
    /// maximum (high-water semantics).
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, v) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += v;
        }
        for (name, v) in &other.gauges {
            let cell = self.gauges.entry(name.clone()).or_insert(f64::NEG_INFINITY);
            *cell = cell.max(*v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// Serializes the snapshot as JSON (the `--obs-json` payload).
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }
}

/// Marks an empty cell of a [`SlotTable`] index.
const NO_SLOT: u16 = u16::MAX;

/// Hashes what tells catalogue names apart: the length plus the first
/// and the last 8 bytes (overlapping, or zero-padded, on shorter names).
/// The final fold brings the high product bits down to the index bits.
fn name_hash(name: &str) -> u64 {
    let b = name.as_bytes();
    let k = b.len().min(8);
    let word = |s: &[u8]| {
        let mut w = [0u8; 8];
        w[..s.len()].copy_from_slice(s);
        u64::from_le_bytes(w)
    };
    let mut h = (b.len() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h = (h ^ word(&b[..k])).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ word(&b[b.len() - k..])).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^ (h >> 32)
}

/// Name → cell index for one metric kind: the names in sorted order (the
/// order snapshots iterate in) and an open-addressed, linearly probed
/// table of indices into them. The table is at most half full, so every
/// probe ends at the name or at an empty cell within a few steps; a hit
/// is only a hit after a full string compare. It is built from the
/// constant catalogue alone and never grows, so a name from outside (an
/// absorbed snapshot) costs at most one pass over it, colliding or not.
#[derive(Debug)]
struct SlotTable {
    names: Vec<&'static str>,
    index: Vec<u16>,
}

impl SlotTable {
    fn new(catalogue: &[&'static str]) -> Self {
        let mut names = catalogue.to_vec();
        names.sort_unstable();
        assert!(names.len() < NO_SLOT as usize, "catalogue outgrew the slot table");
        let mut index = vec![NO_SLOT; (2 * names.len()).next_power_of_two()];
        let mask = index.len() - 1;
        for (slot, name) in names.iter().enumerate() {
            let mut i = name_hash(name) as usize & mask;
            while index[i] != NO_SLOT {
                i = (i + 1) & mask;
            }
            index[i] = slot as u16;
        }
        Self { names, index }
    }

    fn slot(&self, name: &str) -> Option<usize> {
        let mask = self.index.len() - 1;
        let mut i = name_hash(name) as usize & mask;
        loop {
            let slot = self.index[i];
            if slot == NO_SLOT {
                return None;
            }
            if self.names[slot as usize] == name {
                return Some(slot as usize);
            }
            i = (i + 1) & mask;
        }
    }
}

/// The [`names`] catalogue's slot tables: built on first use, shared by
/// every registry in the process.
#[derive(Debug)]
struct Catalogue {
    counters: SlotTable,
    gauges: SlotTable,
    histograms: SlotTable,
}

fn catalogue() -> &'static Catalogue {
    static CATALOGUE: OnceLock<Catalogue> = OnceLock::new();
    CATALOGUE.get_or_init(|| Catalogue {
        counters: SlotTable::new(names::COUNTERS),
        gauges: SlotTable::new(names::GAUGES),
        histograms: SlotTable::new(names::HISTOGRAMS),
    })
}

/// The lock-free registry: one atomic cell per catalogue metric, in the
/// order of the process-wide slot tables.
#[derive(Debug)]
pub struct MetricsRegistry {
    catalogue: &'static Catalogue,
    counters: Vec<AtomicU64>,
    gauges: Vec<AtomicU64>,
    histograms: Vec<Histogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// Builds a registry pre-registered with the full [`names`]
    /// catalogue, all cells zeroed.
    pub fn new() -> Self {
        let catalogue = catalogue();
        Self {
            catalogue,
            counters: catalogue.counters.names.iter().map(|_| AtomicU64::new(0)).collect(),
            gauges: catalogue.gauges.names.iter().map(|_| AtomicU64::new(0f64.to_bits())).collect(),
            histograms: catalogue.histograms.names.iter().map(|_| Histogram::new()).collect(),
        }
    }

    fn slot(table: &SlotTable, name: &str) -> Option<usize> {
        let found = table.slot(name);
        debug_assert!(found.is_some(), "metric `{name}` is not in the names catalogue");
        found
    }

    /// Adds `by` to a counter. Unknown names are ignored (debug builds
    /// assert — add new metrics to [`names`]).
    pub fn incr(&self, name: &str, by: u64) {
        if let Some(i) = Self::slot(&self.catalogue.counters, name) {
            self.counters[i].fetch_add(by, Ordering::Relaxed);
        }
    }

    /// Current value of a counter (0 for unknown names).
    pub fn counter(&self, name: &str) -> u64 {
        Self::slot(&self.catalogue.counters, name)
            .map_or(0, |i| self.counters[i].load(Ordering::Relaxed))
    }

    /// Sets a gauge to `value` (NaN stored as 0, ±∞ as ±`f64::MAX`).
    pub fn gauge_set(&self, name: &str, value: f64) {
        if let Some(i) = Self::slot(&self.catalogue.gauges, name) {
            self.gauges[i].store(finite(value).to_bits(), Ordering::Relaxed);
        }
    }

    /// Records one sample into a histogram.
    pub fn record(&self, name: &str, value: f64) {
        if let Some(i) = Self::slot(&self.catalogue.histograms, name) {
            self.histograms[i].record(value);
        }
    }

    /// Records every value of `values` into a histogram: one name
    /// lookup for the batch, and the same cells as [`Self::record`] per
    /// value would leave.
    pub fn record_each(&self, name: &str, values: &[f64]) {
        if let Some(i) = Self::slot(&self.catalogue.histograms, name) {
            self.histograms[i].record_each(values);
        }
    }

    /// Digest of one histogram (empty snapshot for unknown names).
    pub fn histogram(&self, name: &str) -> HistogramSnapshot {
        Self::slot(&self.catalogue.histograms, name)
            .map_or(HistogramSnapshot::EMPTY, |i| self.histograms[i].snapshot())
    }

    /// Folds a snapshot back into live cells — how per-worker registries
    /// merge after a parallel sweep. Counters and buckets add; gauges
    /// keep the maximum.
    pub fn absorb(&self, snap: &MetricsSnapshot) {
        for (name, v) in &snap.counters {
            if *v > 0 {
                self.incr(name, *v);
            }
        }
        for (name, v) in &snap.gauges {
            if let Some(i) = Self::slot(&self.catalogue.gauges, name) {
                let cur = f64::from_bits(self.gauges[i].load(Ordering::Relaxed));
                if *v > cur {
                    self.gauges[i].store(v.to_bits(), Ordering::Relaxed);
                }
            }
        }
        for (name, h) in &snap.histograms {
            if let Some(i) = Self::slot(&self.catalogue.histograms, name) {
                self.histograms[i].absorb(h);
            }
        }
    }

    /// Renders the whole registry as a deterministic snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .catalogue
                .counters
                .names
                .iter()
                .zip(&self.counters)
                .map(|(n, c)| (n.to_string(), c.load(Ordering::Relaxed)))
                .collect(),
            gauges: self
                .catalogue
                .gauges
                .names
                .iter()
                .zip(&self.gauges)
                .map(|(n, g)| (n.to_string(), f64::from_bits(g.load(Ordering::Relaxed))))
                .collect(),
            histograms: self
                .catalogue
                .histograms
                .names
                .iter()
                .zip(&self.histograms)
                .map(|(n, h)| (n.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_zero_catches_subunit_negative_and_nan() {
        for v in [0.0, 0.5, 0.999, -3.0, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(bucket_index(clamp(v)), 0, "{v}");
        }
        assert_eq!(bucket_lower(0), 0.0);
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        for v in [1.0, 1.1, 2.0, 3.7, 17.0, 1000.0, 1e6, 1e12, 1e300] {
            let i = bucket_index(v);
            let lo = bucket_lower(i);
            assert!(lo <= v, "lower {lo} > {v}");
            if i + 1 < N_BUCKETS {
                let hi = bucket_lower(i + 1);
                assert!(v < hi, "{v} >= next bound {hi}");
                // Log-linear guarantee: bucket width <= 12.5% of its base.
                assert!(hi / lo <= 1.0 + 1.0 / SUB as f64 + 1e-9);
            }
        }
    }

    #[test]
    fn huge_values_saturate_the_last_bucket() {
        assert_eq!(bucket_index(f64::INFINITY), N_BUCKETS - 1);
        assert_eq!(bucket_index(f64::MAX), N_BUCKETS - 1);
        assert_eq!(bucket_index(2f64.powi(70)), N_BUCKETS - 1);
    }

    #[test]
    fn empty_histogram_is_all_zeros() {
        let h = Histogram::new();
        let s = h.snapshot();
        assert_eq!((s.count, s.sum), (0, 0));
        assert_eq!((s.min, s.max, s.p50, s.p99), (0.0, 0.0, 0.0, 0.0));
        assert!(s.buckets.is_empty());
        assert_eq!(s.mean(), 0.0);
    }

    #[test]
    fn single_value_reports_exact_percentiles() {
        let h = Histogram::new();
        h.record(37.0);
        let s = h.snapshot();
        assert_eq!(s.count, 1);
        assert_eq!((s.min, s.max), (37.0, 37.0));
        // One value: every percentile clamps into [min, max] = exactly it.
        assert_eq!(s.p50, 37.0);
        assert_eq!(s.p99, 37.0);
        assert_eq!(s.percentile(0.0), 37.0);
        assert_eq!(s.percentile(100.0), 37.0);
    }

    #[test]
    fn percentiles_are_monotone_and_within_error() {
        let h = Histogram::new();
        for v in 1..=1000 {
            h.record(v as f64);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 1000);
        assert_eq!(s.sum, 500_500);
        assert!(s.p50 <= s.p90 && s.p90 <= s.p99, "{} {} {}", s.p50, s.p90, s.p99);
        // Bucket lower bounds under-estimate by at most one sub-bucket.
        assert!((440.0..=500.0).contains(&s.p50), "p50 {}", s.p50);
        assert!((790.0..=900.0).contains(&s.p90), "p90 {}", s.p90);
        assert!((870.0..=990.0).contains(&s.p99), "p99 {}", s.p99);
        assert_eq!(s.max, 1000.0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one_histogram() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [3.0, 9.5, 100.0, 0.2, 7e9] {
            a.record(v);
            all.record(v);
        }
        for v in [4.0, 9.5, 250_000.0] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let a = Histogram::new();
        a.record(5.0);
        let empty = Histogram::new().snapshot();
        let mut left = a.snapshot();
        left.merge(&empty);
        assert_eq!(left, a.snapshot());
        let mut right = empty.clone();
        right.merge(&a.snapshot());
        assert_eq!(right, a.snapshot());
    }

    #[test]
    fn registry_catalogue_is_complete_and_snapshot_carries_every_name() {
        let r = MetricsRegistry::new();
        let s = r.snapshot();
        assert_eq!(s.counters.len(), names::COUNTERS.len());
        assert_eq!(s.gauges.len(), names::GAUGES.len());
        assert_eq!(s.histograms.len(), names::HISTOGRAMS.len());
        for n in names::COUNTERS {
            assert!(s.counters.contains_key(*n), "{n}");
        }
    }

    #[test]
    fn every_catalogue_name_owns_its_cell() {
        let r = MetricsRegistry::new();
        let bump = |i: usize| (i + 1) as u64;
        for (i, n) in names::COUNTERS.iter().enumerate() {
            r.incr(n, bump(i));
        }
        for (i, n) in names::GAUGES.iter().enumerate() {
            r.gauge_set(n, bump(i) as f64);
        }
        for (i, n) in names::HISTOGRAMS.iter().enumerate() {
            r.record(n, bump(i) as f64);
        }
        let s = r.snapshot();
        let counters: BTreeMap<String, u64> =
            names::COUNTERS.iter().enumerate().map(|(i, n)| (n.to_string(), bump(i))).collect();
        let gauges: BTreeMap<String, f64> = names::GAUGES
            .iter()
            .enumerate()
            .map(|(i, n)| (n.to_string(), bump(i) as f64))
            .collect();
        assert_eq!(s.counters, counters);
        assert_eq!(s.gauges, gauges);
        assert_eq!(s.histograms.len(), names::HISTOGRAMS.len());
        for (i, n) in names::HISTOGRAMS.iter().enumerate() {
            let h = &s.histograms[*n];
            assert_eq!((h.count, h.sum, h.max), (1, bump(i), bump(i) as f64), "{n}");
            assert_eq!(r.histogram(n), *h, "{n}");
        }
        for (i, n) in names::COUNTERS.iter().enumerate() {
            assert_eq!(r.counter(n), bump(i), "{n}");
        }
    }

    #[test]
    fn colliding_names_probe_to_their_own_slots() {
        // Same length, same first and last 8 bytes: one hash for all four,
        // so every lookup after the first walks the probe sequence.
        const NAMES: [&str; 4] =
            ["slot.test.d.collide", "slot.test.b.collide", "slot.test.a.collide", "slot.test.c.collide"];
        let h = name_hash(NAMES[0]);
        assert!(NAMES.iter().all(|n| name_hash(n) == h));
        let table = SlotTable::new(&NAMES);
        for n in NAMES {
            let slot = table.slot(n).unwrap_or_else(|| panic!("{n} not found"));
            assert_eq!(table.names[slot], n);
        }
        // Sorted order is the snapshot order.
        assert_eq!(table.slot("slot.test.a.collide"), Some(0));
        assert_eq!(table.slot("slot.test.d.collide"), Some(3));
        // Absent names sharing the hash, and unrelated ones, miss.
        assert_eq!(name_hash("slot.test.e.collide"), h);
        assert_eq!(table.slot("slot.test.e.collide"), None);
        for n in ["", "x", "slot.test", "slot.test.a.collide.", "fleet.links"] {
            assert_eq!(table.slot(n), None, "{n}");
        }
        assert_eq!(SlotTable::new(&[]).slot("fleet.links"), None);
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn unknown_names_are_ignored() {
        let r = MetricsRegistry::new();
        r.incr("no.such.counter", 5);
        r.gauge_set("no.such.gauge", 3.0);
        r.record("no.such.histogram_micros", 7.0);
        // A misfiled name (a counter's name used as a histogram) is unknown
        // to that kind's table.
        r.record("fleet.links", 7.0);
        assert_eq!(r.counter("no.such.counter"), 0);
        assert_eq!(r.histogram("no.such.histogram_micros").count, 0);
        let other = MetricsRegistry::new();
        other.record("te.solve_micros", 5.0);
        let mut foreign = other.snapshot();
        let h = foreign.histograms.remove("te.solve_micros").expect("catalogued");
        foreign.histograms.insert("no.such.histogram_micros".into(), h);
        foreign.counters.insert("no.such.counter".into(), 9);
        foreign.gauges.insert("no.such.gauge".into(), 9.0);
        r.absorb(&foreign);
        assert_eq!(r.snapshot(), MetricsRegistry::new().snapshot());
    }

    #[test]
    fn registry_updates_land_in_the_snapshot() {
        let r = MetricsRegistry::new();
        r.incr("te.rounds", 3);
        r.gauge_set("te.warm_hit_rate", 0.75);
        r.record("te.solve_micros", 120.0);
        r.record("te.solve_micros", 480.0);
        let s = r.snapshot();
        assert_eq!(s.counters["te.rounds"], 3);
        assert_eq!(s.gauges["te.warm_hit_rate"], 0.75);
        assert_eq!(s.histograms["te.solve_micros"].count, 2);
        assert_eq!(s.histograms["te.solve_micros"].sum, 600);
        assert_eq!(r.counter("te.rounds"), 3);
        assert_eq!(r.histogram("te.solve_micros").count, 2);
    }

    #[test]
    fn absorb_reproduces_a_single_registry() {
        let w1 = MetricsRegistry::new();
        let w2 = MetricsRegistry::new();
        let single = MetricsRegistry::new();
        w1.incr("fleet.links", 10);
        single.incr("fleet.links", 10);
        w1.record("fleet.episode_ticks", 12.0);
        single.record("fleet.episode_ticks", 12.0);
        w2.incr("fleet.links", 4);
        single.incr("fleet.links", 4);
        w2.record("fleet.episode_ticks", 90.0);
        single.record("fleet.episode_ticks", 90.0);
        w2.gauge_set("scenario.availability", 0.999);
        single.gauge_set("scenario.availability", 0.999);
        let merged = MetricsRegistry::new();
        merged.absorb(&w1.snapshot());
        merged.absorb(&w2.snapshot());
        assert_eq!(merged.snapshot(), single.snapshot());
    }

    proptest::proptest! {
        /// The determinism contract behind per-worker registries: however
        /// the samples are partitioned across workers, absorbing the
        /// partial snapshots reproduces the single-registry result
        /// exactly — counters, bucket counts, integer sums, min/max and
        /// the percentiles derived from them.
        #[test]
        fn absorbed_partitions_match_single_threaded(
            ops in proptest::collection::vec((0usize..4, 0.0f64..1e9), 0..200),
        ) {
            let workers: Vec<MetricsRegistry> =
                (0..4).map(|_| MetricsRegistry::new()).collect();
            let single = MetricsRegistry::new();
            for &(w, v) in &ops {
                workers[w].incr("te.rounds", 1);
                workers[w].record("te.solve_micros", v);
                single.incr("te.rounds", 1);
                single.record("te.solve_micros", v);
            }
            let merged = MetricsRegistry::new();
            for w in &workers {
                merged.absorb(&w.snapshot());
            }
            proptest::prop_assert_eq!(merged.snapshot(), single.snapshot());
        }

        /// Histogram merge is order-independent: folding B into A equals
        /// folding A into B, for arbitrary sample sets.
        #[test]
        fn histogram_merge_commutes(
            xs in proptest::collection::vec(0.0f64..1e12, 0..100),
            ys in proptest::collection::vec(0.0f64..1e12, 0..100),
        ) {
            let a = Histogram::new();
            let b = Histogram::new();
            for &v in &xs {
                a.record(v);
            }
            for &v in &ys {
                b.record(v);
            }
            let mut ab = a.snapshot();
            ab.merge(&b.snapshot());
            let mut ba = b.snapshot();
            ba.merge(&a.snapshot());
            proptest::prop_assert_eq!(ab, ba);
        }
    }

    #[test]
    fn snapshot_json_roundtrips() {
        let r = MetricsRegistry::new();
        r.incr("lp.warm_hits", 5);
        r.record("te.round_micros", 333.0);
        let s = r.snapshot();
        let back: MetricsSnapshot =
            serde_json::from_str(&s.to_json()).expect("snapshot deserializes");
        assert_eq!(back, s);
    }
}
