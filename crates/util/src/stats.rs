//! Statistical primitives for the measurement-study reproductions.
//!
//! Every figure in the paper's §2 is a distribution summary: CDFs of SNR
//! variation (Fig. 2a), of feasible capacities (Fig. 2b), of SNR at failure
//! (Fig. 4c), of reconfiguration latency (Fig. 6b), plus percentage shares
//! (Fig. 4a/4b). This module provides the empirical CDF, quantiles,
//! summaries and the highest-density interval those reproductions are
//! built from.

use std::fmt;

/// An empirical cumulative distribution function over `f64` samples.
///
/// Construction sorts the samples once; evaluation is a binary search.
#[derive(Debug, Clone)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds an ECDF from samples. Non-finite samples are rejected.
    ///
    /// Panics if `samples` is empty or contains NaN/infinite values —
    /// distribution figures over no data are always a bug upstream.
    pub fn new(mut samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "ECDF over zero samples");
        assert!(
            samples.iter().all(|x| x.is_finite()),
            "ECDF samples must be finite"
        );
        samples.sort_unstable_by(f64::total_cmp);
        Self { sorted: samples }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Always false (construction rejects empty sample sets).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `P(X <= x)`.
    pub fn cdf(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&s| s <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (`0 <= q <= 1`), using nearest-rank on the sorted
    /// samples.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile q out of [0,1]: {q}");
        if q <= 0.0 {
            return self.sorted[0];
        }
        let rank = (q * self.sorted.len() as f64).ceil() as usize;
        self.sorted[rank.clamp(1, self.sorted.len()) - 1]
    }

    /// Minimum sample.
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Median (0.5-quantile).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Evaluates the ECDF at `n` evenly spaced points across the sample
    /// range, returning `(x, P(X <= x))` pairs — the series a CDF plot needs.
    pub fn series(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "series needs at least two points");
        let (lo, hi) = (self.min(), self.max());
        (0..n)
            .map(|i| {
                let x = lo + (hi - lo) * i as f64 / (n - 1) as f64;
                (x, self.cdf(x))
            })
            .collect()
    }
}

/// Summary statistics of a sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation (population form).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// 25th percentile.
    pub p25: f64,
    /// Median.
    pub median: f64,
    /// 75th percentile.
    pub p75: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum.
    pub max: f64,
}

impl Summary {
    /// Computes a summary of the samples. Panics on empty input.
    pub fn of(samples: &[f64]) -> Summary {
        let ecdf = Ecdf::new(samples.to_vec());
        let mean = ecdf.mean();
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / samples.len() as f64;
        Summary {
            count: samples.len(),
            mean,
            std_dev: var.sqrt(),
            min: ecdf.min(),
            p25: ecdf.quantile(0.25),
            median: ecdf.median(),
            p75: ecdf.quantile(0.75),
            p95: ecdf.quantile(0.95),
            max: ecdf.max(),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} sd={:.3} min={:.3} p25={:.3} med={:.3} p75={:.3} p95={:.3} max={:.3}",
            self.count,
            self.mean,
            self.std_dev,
            self.min,
            self.p25,
            self.median,
            self.p75,
            self.p95,
            self.max
        )
    }
}

/// Percentage shares of category totals, for Fig. 4a/4b-style bar charts.
///
/// Given per-category magnitudes, returns percentages summing to 100
/// (subject to rounding in the caller's presentation).
pub fn percentage_shares(magnitudes: &[f64]) -> Vec<f64> {
    let total: f64 = magnitudes.iter().sum();
    assert!(total > 0.0, "percentage shares of a zero total");
    magnitudes.iter().map(|m| 100.0 * m / total).collect()
}

/// Smallest contiguous interval of sorted samples covering at least
/// `coverage` of them — the 1-D highest-density region the paper uses to
/// characterise SNR stability (Fig. 2a).
///
/// Returns `(low, high)`. For multimodal data this is the narrowest single
/// window, matching the paper's definition ("the smallest interval in which
/// 95% or more of the SNR values are concentrated").
pub fn highest_density_interval(sorted: &[f64], coverage: f64) -> (f64, f64) {
    assert!(!sorted.is_empty(), "HDI of zero samples");
    assert!(
        (0.0..=1.0).contains(&coverage) && coverage > 0.0,
        "coverage out of (0,1]: {coverage}"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0].total_cmp(&w[1]).is_le()),
        "input must be sorted in total order"
    );
    let n = sorted.len();
    let k = ((coverage * n as f64).ceil() as usize).clamp(1, n);
    let mut best = (sorted[0], sorted[n - 1]);
    let mut best_width = f64::INFINITY;
    for start in 0..=(n - k) {
        let width = sorted[start + k - 1] - sorted[start];
        if width < best_width {
            best_width = width;
            best = (sorted[start], sorted[start + k - 1]);
        }
    }
    best
}

/// [`highest_density_interval`] of integer readings given as a
/// histogram, `counts[b]` readings equal to `b`.
/// Returns the lowest and the highest reading of the window, exactly what
/// sorting the readings and scanning them returns, in one pass over the
/// bins.
///
/// A window is fixed by the sorted position of its first reading, and all
/// windows that start in the same bin share their low end, so the first
/// of them has the lowest high end and is the only one the scan's strict
/// `<` can pick. The scan therefore visits one start per non-empty bin,
/// with a second cursor tracking the bin of the window's last reading.
pub fn hdi_of_counts(counts: &[u32], coverage: f64) -> (usize, usize) {
    assert!(
        (0.0..=1.0).contains(&coverage) && coverage > 0.0,
        "coverage out of (0,1]: {coverage}"
    );
    let n: usize = counts.iter().map(|&c| c as usize).sum();
    assert!(n > 0, "HDI of zero samples");
    let k = ((coverage * n as f64).ceil() as usize).clamp(1, n);
    let mut best = (0, 0);
    let mut best_width = usize::MAX;
    // `below` readings precede bin `low`; bins `..=high` hold `through`.
    let (mut below, mut high, mut through) = (0, 0, counts[0] as usize);
    for (low, &c) in counts.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if below > n - k {
            break;
        }
        while through < below + k {
            high += 1;
            through += counts[high] as usize;
        }
        if high - low < best_width {
            best_width = high - low;
            best = (low, high);
        }
        below += c as usize;
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ecdf_basic() {
        let e = Ecdf::new(vec![3.0, 1.0, 2.0, 4.0]);
        assert_eq!(e.len(), 4);
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.min(), 1.0);
        assert_eq!(e.max(), 4.0);
        assert_eq!(e.mean(), 2.5);
    }

    #[test]
    fn ecdf_quantiles_nearest_rank() {
        let e = Ecdf::new((1..=100).map(|i| i as f64).collect());
        assert_eq!(e.quantile(0.0), 1.0);
        assert_eq!(e.quantile(0.25), 25.0);
        assert_eq!(e.quantile(0.5), 50.0);
        assert_eq!(e.quantile(1.0), 100.0);
        assert_eq!(e.median(), 50.0);
    }

    #[test]
    #[should_panic]
    fn ecdf_rejects_empty() {
        Ecdf::new(vec![]);
    }

    #[test]
    #[should_panic]
    fn ecdf_rejects_nan() {
        Ecdf::new(vec![1.0, f64::NAN]);
    }

    #[test]
    fn ecdf_series_is_monotone() {
        let e = Ecdf::new(vec![1.0, 1.5, 2.0, 8.0, 9.0]);
        let s = e.series(50);
        assert_eq!(s.len(), 50);
        assert!(s.windows(2).all(|w| w[0].1 <= w[1].1));
        assert_eq!(s.last().unwrap().1, 1.0);
    }

    #[test]
    fn summary_of_known_data() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        assert!((s.std_dev - 2.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
        assert_eq!(s.median, 4.0);
    }

    #[test]
    fn summary_display_is_parseable() {
        let s = Summary::of(&[1.0, 2.0, 3.0]);
        let text = s.to_string();
        assert!(text.contains("n=3"));
        assert!(text.contains("mean=2.000"));
    }

    #[test]
    fn percentage_shares_sum_to_100() {
        let shares = percentage_shares(&[20.0, 10.0, 45.0, 25.0]);
        let sum: f64 = shares.iter().sum();
        assert!((sum - 100.0).abs() < 1e-9);
        assert!((shares[2] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn hdi_narrow_cluster_with_outliers() {
        // 95 points in [10.0, 10.94], 5 deep outliers near zero: the 95% HDI
        // must hug the cluster, while the range spans everything. This is
        // exactly the Fig. 2a distinction between HDR and range.
        let mut samples: Vec<f64> = (0..95).map(|i| 10.0 + i as f64 * 0.01).collect();
        samples.extend([0.1, 0.2, 0.3, 0.2, 0.1]);
        samples.sort_unstable_by(f64::total_cmp);
        let (lo, hi) = highest_density_interval(&samples, 0.95);
        assert!(lo >= 10.0 && hi <= 10.94 + 1e-9, "({lo},{hi})");
        assert!(hi - lo < 1.0);
    }

    #[test]
    fn hdi_full_coverage_is_range() {
        let samples = vec![1.0, 2.0, 7.0];
        assert_eq!(highest_density_interval(&samples, 1.0), (1.0, 7.0));
    }

    #[test]
    fn hdi_single_sample() {
        assert_eq!(highest_density_interval(&[5.0], 0.95), (5.0, 5.0));
    }

    #[test]
    fn hdi_coverage_respected() {
        // Uniform grid: 95% HDI of n=100 must contain >= 95 points.
        let samples: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let (lo, hi) = highest_density_interval(&samples, 0.95);
        let inside = samples.iter().filter(|&&x| x >= lo && x <= hi).count();
        assert!(inside >= 95);
    }

    /// Deterministic pseudo-random f64s without pulling `rng` into this
    /// module: SplitMix64 over the index, scaled into a signed range.
    fn mixed(i: u64) -> f64 {
        let mut z = i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z as f64 / u64::MAX as f64 - 0.5) * 2e4
    }

    /// Readings `counts` stands for, ascending, as `f64`.
    fn expand(counts: &[u32]) -> Vec<f64> {
        counts
            .iter()
            .enumerate()
            .flat_map(|(b, &c)| std::iter::repeat_n(b as f64, c as usize))
            .collect()
    }

    #[test]
    fn hdi_locator_matches_sorted_scan() {
        // The one-start-per-bin scan must agree with sorting the readings
        // and scanning every window: across coverages, on sparse and
        // dense histograms, on ties between equally narrow windows, and
        // down to one reading.
        for bins in [1usize, 2, 3, 10, 97, 640] {
            for coverage in [0.3, 0.5, 0.8, 0.95, 1.0] {
                for dense in [false, true] {
                    let counts: Vec<u32> = (0..bins as u64)
                        .map(|i| {
                            let m = mixed(i).abs() as u32;
                            if dense { m % 50 } else { (m % 7).saturating_sub(4) * 13 }
                        })
                        .collect();
                    let sorted = expand(&counts);
                    if sorted.is_empty() {
                        continue;
                    }
                    let (lo, hi) = highest_density_interval(&sorted, coverage);
                    assert_eq!(
                        hdi_of_counts(&counts, coverage),
                        (lo as usize, hi as usize),
                        "bins={bins} coverage={coverage} dense={dense}"
                    );
                }
            }
        }
        assert_eq!(hdi_of_counts(&[0, 0, 1], 0.95), (2, 2));
        // Two equally narrow windows: the lower one wins, as in the scan.
        assert_eq!(hdi_of_counts(&[5, 5, 0, 5, 5], 0.5), (0, 1));
    }

    #[test]
    fn hdi_locator_narrow_cluster_with_outliers() {
        // The sorted-scan fixture in 0.01 steps: 95 readings at 1000..1094,
        // five outliers at 10..30. The 95% HDI hugs the cluster.
        let mut counts = vec![0u32; 1095];
        counts[1000..1095].fill(1);
        for b in [10, 20, 30, 20, 10] {
            counts[b] += 1;
        }
        assert_eq!(hdi_of_counts(&counts, 0.95), (1000, 1094));
    }
}
