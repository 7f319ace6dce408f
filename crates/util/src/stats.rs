//! Statistical primitives for the measurement-study reproductions.
//!
//! Every figure in the paper's §2 is a distribution summary: CDFs of SNR
//! variation (Fig. 2a), of feasible capacities (Fig. 2b), of SNR at failure
//! (Fig. 4c), of reconfiguration latency (Fig. 6b), plus percentage shares
//! (Fig. 4a/4b). This module provides the empirical CDF, quantiles,
//! summaries and the highest-density interval those reproductions are
//! built from.

use std::fmt;

/// Below this length an LSD radix sort's histogram setup costs more than a
/// comparison sort of the whole slice; [`sort_f64`] falls back to
/// `sort_unstable_by(f64::total_cmp)`.
const RADIX_CUTOFF: usize = 64;

/// Maps an `f64` onto a `u64` key whose unsigned order equals the IEEE-754
/// *total order* of the float (`-NaN < -inf < … < -0.0 < +0.0 < … < +NaN`):
/// positive floats get their sign bit flipped, negative floats are fully
/// inverted. Monotone and invertible, so a radix sort on the keys is an
/// exact value sort — no epsilon, no NaN panic.
#[inline]
const fn total_order_key(x: f64) -> u64 {
    let bits = x.to_bits();
    bits ^ (((bits as i64 >> 63) as u64) | 0x8000_0000_0000_0000)
}

/// Sorts `values` ascending in IEEE-754 total order.
///
/// Equivalent to `sort_unstable_by(f64::total_cmp)` but O(n) instead of
/// O(n log n): an exact LSD radix sort over the total-order bit keys, one
/// byte per pass, with uniform-digit passes skipped (SNR data spans a few
/// dB, so the exponent bytes are nearly constant and most passes vanish).
/// Unlike the `partial_cmp(..).unwrap()` idiom this never panics on NaN —
/// NaNs deterministically sort to the ends.
pub fn sort_f64(values: &mut [f64]) {
    let mut scratch = Vec::new();
    sort_f64_with_scratch(values, &mut scratch);
}

/// [`sort_f64`] with a caller-owned scratch buffer, for hot loops that sort
/// one trace per link and want zero steady-state allocation. The scratch is
/// resized to `values.len()` once and reused across calls.
pub(crate) fn sort_f64_with_scratch(values: &mut [f64], scratch: &mut Vec<f64>) {
    let n = values.len();
    if n < RADIX_CUTOFF {
        values.sort_unstable_by(f64::total_cmp);
        return;
    }
    scratch.clear();
    scratch.resize(n, 0.0);

    // One prefix scan builds all eight byte histograms, so fully uniform
    // digits (the common case for the high exponent bytes) are detected and
    // their passes skipped without touching the data again.
    let mut hist = [[0usize; 256]; 8];
    for &v in values.iter() {
        let key = total_order_key(v);
        for (byte, h) in hist.iter_mut().enumerate() {
            h[((key >> (8 * byte)) & 0xFF) as usize] += 1;
        }
    }

    // `src` flips between the caller's slice and the scratch each performed
    // pass; a final copy lands the result back in `values` if needed.
    let mut in_values = true;
    for (byte, h) in hist.iter().enumerate() {
        if h.contains(&n) {
            continue; // every key shares this byte — nothing to reorder
        }
        let mut offsets = [0usize; 256];
        let mut running = 0usize;
        for (digit, &count) in h.iter().enumerate() {
            offsets[digit] = running;
            running += count;
        }
        let (src, dst): (&[f64], &mut [f64]) = if in_values {
            (&*values, scratch.as_mut_slice())
        } else {
            (scratch.as_slice(), &mut *values)
        };
        for &v in src.iter() {
            let digit = ((total_order_key(v) >> (8 * byte)) & 0xFF) as usize;
            dst[offsets[digit]] = v;
            offsets[digit] += 1;
        }
        in_values = !in_values;
    }
    if !in_values {
        values.copy_from_slice(scratch);
    }
}

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
        sort_f64(&mut samples);
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

/// An [`HdiLocator`] bucket is the top 22 bits of the total-order key:
/// sign, exponent and the leading 10 mantissa bits, so 1,024 buckets per
/// binade (0.0078 dB wide at 8–16 dB).
const BUCKET_SHIFT: u32 = 42;
/// Key prefix of 1/16 (dB), which maps to bucket 0; every smaller key
/// clamps there too.
const BUCKET_BASE: u64 = total_order_key(0.0625) >> BUCKET_SHIFT;
/// Ten binades, 1/16 to 64 dB, plus the bucket starting at 64. Bucket 0
/// also takes everything below 1/16 and the last one everything above 64,
/// so NaN, ±∞, negatives and subnormals land in the two edge buckets.
const BUCKETS: usize = 10 * 1024 + 1;

/// The bucket of `v`, monotone in `f64::total_cmp` for every bit pattern.
#[inline]
fn bucket_of(v: f64) -> usize {
    (((total_order_key(v) >> BUCKET_SHIFT).saturating_sub(BUCKET_BASE)) as usize).min(BUCKETS - 1)
}

/// First and last total-order key of bucket `b`.
fn bucket_keys(b: usize) -> (u64, u64) {
    let first = if b == 0 { 0 } else { (BUCKET_BASE + b as u64) << BUCKET_SHIFT };
    let last = if b == BUCKETS - 1 {
        u64::MAX
    } else {
        ((BUCKET_BASE + b as u64 + 1) << BUCKET_SHIFT) - 1
    };
    (first, last)
}

/// Least and greatest value bucket `b` can hold; the edge buckets' open
/// sides are ∓∞. Every key between them is positive, so flipping the
/// sign bit back inverts [`total_order_key`].
fn bucket_bounds(b: usize) -> (f64, f64) {
    let (first, last) = bucket_keys(b);
    let positive = |key: u64| f64::from_bits(key ^ (1 << 63));
    let lo = if b == 0 { f64::NEG_INFINITY } else { positive(first) };
    let hi = if b == BUCKETS - 1 { f64::INFINITY } else { positive(last) };
    (lo, hi)
}

/// Window starts `first..end` whose first reading stays in bucket `low`
/// and whose last stays in bucket `high`.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: usize,
    end: usize,
    low: usize,
    high: usize,
    /// Sorted position of the first reading in bucket `low` / `high`.
    low_at: usize,
    high_at: usize,
    /// Bounds on the width of every window in the run.
    narrowest: f64,
    widest: f64,
}

/// [`highest_density_interval`] of *unsorted* readings, found by counting
/// instead of sorting, and bit-identical to sorting first.
///
/// The caller [`add`](Self::add)s every reading — one bucket increment,
/// cheap enough to ride along a scan it already makes — then calls
/// [`locate`](Self::locate) with the same readings in any order. Buckets
/// are ordered like `f64::total_cmp`, so each one is a contiguous run of
/// sorted positions, and prefix sums over the counts tell which bucket
/// holds the first and the last reading of every window. Walking the
/// window starts in runs where both buckets stay the same bounds each
/// run's widths to `[lo(high) − hi(low), hi(high) − lo(low)]`, in f64:
/// subtraction rounds monotonically, so the bounds hold for the rounded
/// widths the scan compares. Let `U` be the least upper bound. The
/// winning window is no wider than `U`, so a run whose lower bound
/// exceeds `U` holds only strictly wider windows and cannot win, not
/// even on the scan's strict-`<` tie rule. Only the readings in the
/// candidate runs' buckets are gathered and sorted (about 1k of 87,648
/// on a 913-day SNR trace at 95 %), and only their windows are scanned.
///
/// Inputs without that structure — full coverage, coverage at or below
/// one half, or no run bounded by a finite width (all readings in an
/// edge bucket, say) — are sorted whole and scanned, inside
/// [`locate`](Self::locate). The counts are zeroed again on return, so
/// one locator serves any number of interval queries. Prefix sums run
/// only between the buckets of the least and greatest reading, so a short
/// trace does not pay for 10k empty counters.
#[derive(Debug, Clone)]
pub struct HdiLocator {
    /// Readings per bucket since the last [`locate`](Self::locate).
    counts: Box<[u32; BUCKETS]>,
    /// Reused buffers: the window runs, the gathered low and high
    /// readings, and the radix sort's scratch.
    runs: Vec<Run>,
    low: Vec<f64>,
    high: Vec<f64>,
    scratch: Vec<f64>,
}

impl Default for HdiLocator {
    fn default() -> Self {
        let counts = vec![0u32; BUCKETS].into_boxed_slice();
        Self {
            counts: counts.try_into().expect("exactly BUCKETS counters"),
            runs: Vec::new(),
            low: Vec::new(),
            high: Vec::new(),
            scratch: Vec::new(),
        }
    }
}

impl HdiLocator {
    /// A locator with no readings counted.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one reading.
    #[inline]
    pub fn add(&mut self, v: f64) {
        self.counts[bucket_of(v)] += 1;
    }

    /// The `coverage` highest-density interval of `values`, which must be
    /// exactly the readings [`add`](Self::add)ed since the last call (at
    /// most `u32::MAX` of them), in any order. Bit-identical to
    /// [`sort_f64`] followed by [`highest_density_interval`].
    ///
    /// `span` is the least and greatest reading as the caller's own fold
    /// saw them (`f64::min` / `f64::max`): the prefix sums start and stop
    /// at their buckets, with no per-reading bookkeeping here. A span that
    /// misses a counted reading (those folds skip NaN) is detected, and
    /// every bucket is walked instead; a wrong span costs time, never
    /// exactness.
    pub fn locate(&mut self, values: &[f64], coverage: f64, span: (f64, f64)) -> (f64, f64) {
        assert!(!values.is_empty(), "HDI of zero samples");
        assert!(
            (0.0..=1.0).contains(&coverage) && coverage > 0.0,
            "coverage out of (0,1]: {coverage}"
        );
        let n = values.len();
        assert!(n <= u32::MAX as usize, "bucket counters hold at most u32::MAX readings");
        let counted = |(lo, hi): (usize, usize)| -> usize {
            self.counts.get(lo..=hi).map_or(0, |c| c.iter().map(|&c| c as usize).sum())
        };
        let hinted = (bucket_of(span.0), bucket_of(span.1));
        let (lowest, highest) = if counted(hinted) == n {
            hinted
        } else {
            let every = (0, BUCKETS - 1);
            assert_eq!(counted(every), n, "locate needs exactly the counted readings");
            every
        };
        let k = ((coverage * n as f64).ceil() as usize).clamp(1, n);
        let tail = n - k;
        let found =
            if tail == 0 || tail >= k { None } else { self.scan_candidates(values, k, lowest) };
        self.counts[lowest..=highest].fill(0);
        found.unwrap_or_else(|| {
            self.low.clear();
            self.low.extend_from_slice(values);
            sort_f64_with_scratch(&mut self.low, &mut self.scratch);
            highest_density_interval(&self.low, coverage)
        })
    }

    /// The window scan over candidate runs for `k`-reading windows, with
    /// `0 < n − k < k` and no reading below bucket `lowest`; `None` when no
    /// run's widths have a finite bound.
    fn scan_candidates(&mut self, values: &[f64], k: usize, lowest: usize) -> Option<(f64, f64)> {
        let Self { counts, runs, low, high, scratch } = self;
        let tail = values.len() - k;

        // Window starts in runs of constant (low, high) bucket. `*_end`
        // is one past the last sorted position in the cursor's bucket.
        runs.clear();
        let mut lb = lowest;
        while counts[lb] == 0 {
            lb += 1;
        }
        let mut lb_end = counts[lb] as usize;
        let (mut hb, mut hb_end) = (lb, lb_end);
        while hb_end < k {
            hb += 1;
            hb_end += counts[hb] as usize;
        }
        let mut first = 0;
        let mut least_widest = f64::INFINITY;
        loop {
            let end = lb_end.min(hb_end + 1 - k).min(tail + 1);
            let (lo_l, hi_l) = bucket_bounds(lb);
            let (lo_h, hi_h) = bucket_bounds(hb);
            let run = Run {
                first,
                end,
                low: lb,
                high: hb,
                low_at: lb_end - counts[lb] as usize,
                high_at: hb_end - counts[hb] as usize,
                narrowest: lo_h - hi_l,
                widest: hi_h - lo_l,
            };
            least_widest = least_widest.min(run.widest);
            runs.push(run);
            if end > tail {
                break;
            }
            first = end;
            while lb_end <= first {
                lb += 1;
                lb_end += counts[lb] as usize;
            }
            while hb_end < first + k {
                hb += 1;
                hb_end += counts[hb] as usize;
            }
        }
        if !least_widest.is_finite() {
            return None;
        }

        // Runs are ordered in both buckets, so the candidates' readings
        // are two contiguous bucket ranges, gathered in one pass by key.
        // Bounds are never NaN: a lower side is finite or −∞, an upper
        // side finite or +∞.
        let candidate = |r: &Run| r.narrowest <= least_widest;
        let first_c = runs.iter().position(candidate)?;
        let last_c = runs.iter().rposition(candidate)?;
        let (a, b) = (runs[first_c], runs[last_c]);
        let (low_from, low_to) = (bucket_keys(a.low).0, bucket_keys(b.low).1);
        let (high_from, high_to) = (bucket_keys(a.high).0, bucket_keys(b.high).1);
        let (low_span, high_span) = (low_to - low_from, high_to - high_from);
        low.clear();
        high.clear();
        for &v in values {
            let key = total_order_key(v);
            if key.wrapping_sub(low_from) <= low_span {
                low.push(v);
            }
            if key.wrapping_sub(high_from) <= high_span {
                high.push(v);
            }
        }
        debug_assert_eq!(low.len(), b.low_at + counts[b.low] as usize - a.low_at);
        debug_assert_eq!(high.len(), b.high_at + counts[b.high] as usize - a.high_at);
        sort_f64_with_scratch(low, scratch);
        sort_f64_with_scratch(high, scratch);

        // `low[i]` sits at sorted position `a.low_at + i`, `high[i]` at
        // `a.high_at + i`: the sorted scan's rule, over candidates only.
        let mut best = (f64::NAN, f64::NAN);
        let mut best_width = f64::INFINITY;
        for r in runs[first_c..=last_c].iter().filter(|r| candidate(r)) {
            let lows = &low[r.first - a.low_at..r.end - a.low_at];
            let highs = &high[r.first + k - 1 - a.high_at..][..lows.len()];
            for (&lo, &hi) in lows.iter().zip(highs) {
                let width = hi - lo;
                if width < best_width {
                    best_width = width;
                    best = (lo, hi);
                }
            }
        }
        debug_assert!(best_width <= least_widest, "the narrowest run was not scanned");
        Some(best)
    }
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
        sort_f64(&mut samples);
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

    #[test]
    fn radix_matches_total_cmp_sort() {
        // Above and below the small-n comparison fallback, signed values,
        // duplicates, and signed zeros.
        for n in [0usize, 1, 2, 17, RADIX_CUTOFF - 1, RADIX_CUTOFF, 500, 4096] {
            let mut values: Vec<f64> = (0..n as u64).map(mixed).collect();
            if n > 4 {
                values[1] = values[3]; // force duplicates
                values[2] = -0.0;
                values[4] = 0.0;
            }
            let mut expected = values.clone();
            expected.sort_unstable_by(f64::total_cmp);
            sort_f64(&mut values);
            let same = values.iter().zip(&expected).all(|(a, b)| a.to_bits() == b.to_bits());
            assert!(same, "radix sort diverged from total_cmp at n={n}");
        }
    }

    #[test]
    fn radix_narrow_band_skips_passes_correctly() {
        // SNR-like data: a few dB of spread, so every exponent byte is
        // uniform and most radix passes are skipped. The skip logic must
        // still produce a fully sorted slice.
        let mut values: Vec<f64> = (0..2000u64).map(|i| 11.0 + (mixed(i).abs() % 3.0)).collect();
        let mut expected = values.clone();
        expected.sort_unstable_by(f64::total_cmp);
        sort_f64(&mut values);
        assert_eq!(values, expected);
    }

    #[test]
    fn radix_handles_nan_and_infinities_without_panicking() {
        // The partial_cmp idiom this replaces panicked here.
        let mut values: Vec<f64> = (0..200u64).map(mixed).collect();
        values[10] = f64::NAN;
        values[20] = -f64::NAN;
        values[30] = f64::INFINITY;
        values[40] = f64::NEG_INFINITY;
        let mut expected = values.clone();
        expected.sort_unstable_by(f64::total_cmp);
        sort_f64(&mut values);
        let same = values.iter().zip(&expected).all(|(a, b)| a.to_bits() == b.to_bits());
        assert!(same, "NaN/inf placement diverged from total order");
        assert!(values[0].is_nan() && values[0].is_sign_negative());
        assert!(values[199].is_nan() && values[199].is_sign_positive());
    }

    #[test]
    fn radix_scratch_reuse_is_clean() {
        // A dirty, oversized scratch from a previous (larger, NaN-laden)
        // sort must not leak into a later, smaller sort.
        let mut scratch = vec![f64::NAN; 1000];
        let mut first: Vec<f64> = (0..600u64).map(mixed).collect();
        first[13] = f64::NAN;
        sort_f64_with_scratch(&mut first, &mut scratch);
        let mut second: Vec<f64> = (0..100u64).map(|i| mixed(i + 7)).collect();
        let mut expected = second.clone();
        expected.sort_unstable_by(f64::total_cmp);
        sort_f64_with_scratch(&mut second, &mut scratch);
        assert_eq!(second, expected);
    }

    /// The least and greatest reading as a caller's `f64::min` / `max`
    /// fold sees them (NaN skipped), the span [`HdiLocator::locate`] takes.
    fn span_of(values: &[f64]) -> (f64, f64) {
        values.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)))
    }

    #[test]
    fn hdi_locator_matches_sorted_scan() {
        // The counting locator must agree bit-for-bit with sorting first
        // and scanning: across coverages on both sides of its degenerate
        // guards, on wide (edge-bucket) and SNR-like (counted) data, on
        // duplicates, and down to one sample. One locator serves every
        // query, so stale counts would show.
        let mut locator = HdiLocator::new();
        for n in [1usize, 2, 3, 10, 97, 1000, 5000] {
            for coverage in [0.3, 0.5, 0.8, 0.95, 1.0] {
                for snr_like in [false, true] {
                    let mut values: Vec<f64> = (0..n as u64)
                        .map(|i| if snr_like { 11.0 + mixed(i).abs() % 3.0 } else { mixed(i) })
                        .collect();
                    if n > 6 {
                        values[1] = values[5]; // duplicates
                        values[2] = values[5];
                    }
                    let mut sorted = values.clone();
                    sort_f64(&mut sorted);
                    let expected = highest_density_interval(&sorted, coverage);
                    values.iter().for_each(|&v| locator.add(v));
                    let got = locator.locate(&values, coverage, span_of(&values));
                    assert!(
                        got.0.to_bits() == expected.0.to_bits()
                            && got.1.to_bits() == expected.1.to_bits(),
                        "HDI diverged at n={n} coverage={coverage} snr_like={snr_like}: \
                         {got:?} vs {expected:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn hdi_locator_without_a_finite_window_keeps_the_sorted_ends() {
        // No window has a finite width (∞ − ∞ and NaN widths never win),
        // so the sorted scan answers its initial (first, last) pair; the
        // locator must sort everything rather than scan nothing.
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let cases: [Vec<f64>; 3] = [
            [vec![-inf; 20], vec![inf; 20]].concat(),
            vec![nan; 40],
            [vec![-nan; 3], vec![12.0; 34], vec![nan; 3]].concat(),
        ];
        let mut locator = HdiLocator::new();
        for values in cases {
            let mut sorted = values.clone();
            sort_f64(&mut sorted);
            let expected = highest_density_interval(&sorted, 0.95);
            values.iter().for_each(|&v| locator.add(v));
            let got = locator.locate(&values, 0.95, span_of(&values));
            assert_eq!(
                (got.0.to_bits(), got.1.to_bits()),
                (expected.0.to_bits(), expected.1.to_bits()),
                "{values:?}"
            );
        }
    }

    #[test]
    fn hdi_locator_survives_a_wrong_span() {
        // A span that misses readings (or is reversed, or is wider than
        // they are) only changes which buckets are walked.
        let values: Vec<f64> = (0..400u64).map(|i| 11.0 + mixed(i).abs() % 3.0).collect();
        let mut sorted = values.clone();
        sort_f64(&mut sorted);
        let expected = highest_density_interval(&sorted, 0.95);
        let mut locator = HdiLocator::new();
        let spans = [(12.0, 13.0), (14.0, 11.0), (5.0, 20.0), (f64::NEG_INFINITY, f64::INFINITY)];
        for span in spans {
            values.iter().for_each(|&v| locator.add(v));
            let got = locator.locate(&values, 0.95, span);
            assert_eq!(got, expected, "span {span:?}");
        }
    }

    #[test]
    fn hdi_locator_narrow_cluster_with_outliers() {
        // Same fixture as the sorted-scan test: the 95% HDI hugs the
        // cluster even though the readings arrive unsorted.
        let mut samples: Vec<f64> = (0..95).map(|i| 10.0 + i as f64 * 0.01).collect();
        samples.extend([0.1, 0.2, 0.3, 0.2, 0.1]);
        let mut locator = HdiLocator::new();
        samples.iter().for_each(|&v| locator.add(v));
        let (lo, hi) = locator.locate(&samples, 0.95, span_of(&samples));
        assert!(lo >= 10.0 && hi <= 10.94 + 1e-9, "({lo},{hi})");
    }

    #[test]
    fn buckets_tile_the_total_order() {
        // Each bucket's bounds are its own least and greatest member, the
        // next float up starts the next bucket, and 1/16 and 64 open the
        // first interior and the last bucket.
        assert_eq!(bucket_of(0.0625), 0);
        assert_eq!(bucket_of(0.0625 * (1.0 + 1.0 / 1024.0)), 1);
        assert_eq!(bucket_of(64.0), BUCKETS - 1);
        for b in [1, 2, 1023, 1024, 5000, BUCKETS - 2] {
            let (lo, hi) = bucket_bounds(b);
            assert_eq!((bucket_of(lo), bucket_of(hi)), (b, b));
            assert_eq!(bucket_of(f64::from_bits(lo.to_bits() - 1)), b - 1);
            assert_eq!(bucket_of(f64::from_bits(hi.to_bits() + 1)), b + 1);
        }
        for v in [f64::NEG_INFINITY, -f64::NAN, -1.0, -0.0, 0.0, 5e-324, 0.0625 - 1e-12] {
            assert_eq!(bucket_of(v), 0, "{v}");
        }
        for v in [64.0, 1e300, f64::INFINITY, f64::NAN] {
            assert_eq!(bucket_of(v), BUCKETS - 1, "{v}");
        }
    }

    #[test]
    fn total_order_key_is_monotone_on_boundary_values() {
        let ordered = [
            f64::NEG_INFINITY,
            f64::MIN,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::MAX,
            f64::INFINITY,
        ];
        for pair in ordered.windows(2) {
            assert!(
                total_order_key(pair[0]) <= total_order_key(pair[1]),
                "key order broke between {} and {}",
                pair[0],
                pair[1]
            );
        }
        // -0.0 and +0.0 are *distinct* in total order — the keys must be too.
        assert!(total_order_key(-0.0) < total_order_key(0.0));
    }
}
