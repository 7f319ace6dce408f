//! Order statistics over timing samples.

/// Nearest-rank percentile of an unsorted sample set (`q` in `[0, 1]`);
/// 0 for an empty set so a layer that never ran reads as "no work".
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Median (nearest rank).
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The median as the mean of the middle fifth of the samples (ranks 40 % to
/// 60 %). For a smooth distribution this is the median; when the median
/// falls on a cliff between two modes — a warm solve that needs no pivot
/// and one that needs a few, a memo hit and a miss — the plain order
/// statistic flips from one mode to the other with the slightest noise
/// (±13 % between identical runs of `te_sweep`), and this does not.
pub fn smoothed_median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let middle = &sorted[n * 2 / 5..(n * 3 / 5).max(n * 2 / 5 + 1)];
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Largest sample, 0 when empty.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// First quartile, median and third quartile the way Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) computes them —
/// the rule the acceptance gate applies to ten runs.
pub fn quartiles(samples: &[f64]) -> [f64; 3] {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return [v; 3];
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta
    };
    [cut(1), cut(2), cut(3)]
}

/// Interquartile range as a share of the median — the gate's "spread".
pub fn spread(samples: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(samples);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_pick_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 5.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(max(&v), 5.0);
    }

    #[test]
    fn smoothed_median_averages_the_middle_fifth() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(smoothed_median(&v), 5.5);
        assert_eq!(smoothed_median(&[7.0]), 7.0);
        assert_eq!(smoothed_median(&[]), 0.0);
        // Two modes, the median on the cliff: one sample moving across it
        // barely moves the estimate.
        let mut cliff = vec![1.0; 50];
        cliff.extend(vec![2.0; 50]);
        let before = smoothed_median(&cliff);
        cliff[49] = 2.0;
        assert!((smoothed_median(&cliff) - before).abs() < 0.06);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }
}
