//! Property tests for the statistical and numeric foundations.

use proptest::prelude::*;
use rwc_util::special::{q_function, q_inverse};
use rwc_util::stats::{hdi_of_counts, highest_density_interval, Ecdf, Summary};
use rwc_util::units::{Db, Gbps};

/// Grid histograms for `hdi_of_counts`: up to 700 bins, each empty, thin
/// or heavy, so runs of empty bins, single readings and ties between
/// equally narrow windows all occur.
fn grid_counts() -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::vec((0u8..4, 0u32..40), 1..700).prop_map(|bins| {
        bins.into_iter()
            .map(|(kind, c)| match kind {
                0 | 1 => 0,
                2 => c % 3,
                _ => c,
            })
            .collect()
    })
}

/// Coverage in (0, 1], weighted towards the paper's 0.95 and full
/// coverage.
fn hdi_coverage() -> impl Strategy<Value = f64> {
    (0u8..4, 0.0f64..=1.0).prop_map(|(pick, c)| match pick {
        0 => 0.95,
        1 => 1.0,
        _ if c > 0.0 => c,
        _ => 1.0,
    })
}

proptest! {
    #[test]
    fn ecdf_is_a_cdf(samples in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let ecdf = Ecdf::new(samples.clone());
        // Bounds.
        prop_assert_eq!(ecdf.cdf(f64::MIN), 0.0);
        prop_assert_eq!(ecdf.cdf(ecdf.max()), 1.0);
        // Monotonicity on a probe grid.
        let (lo, hi) = (ecdf.min(), ecdf.max());
        let mut last = 0.0;
        for i in 0..=20 {
            let x = lo + (hi - lo) * i as f64 / 20.0;
            let p = ecdf.cdf(x);
            prop_assert!(p >= last - 1e-12);
            last = p;
        }
    }

    #[test]
    fn quantiles_bracket_samples(samples in proptest::collection::vec(-1e3f64..1e3, 1..200),
                                 q in 0.0f64..=1.0) {
        let ecdf = Ecdf::new(samples);
        let v = ecdf.quantile(q);
        prop_assert!(v >= ecdf.min() && v <= ecdf.max());
        // Quantiles are monotone in q.
        prop_assert!(ecdf.quantile((q / 2.0).max(0.0)) <= v + 1e-12);
    }

    #[test]
    fn summary_orderings(samples in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
        let s = Summary::of(&samples);
        prop_assert!(s.min <= s.p25 && s.p25 <= s.median);
        prop_assert!(s.median <= s.p75 && s.p75 <= s.p95 && s.p95 <= s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
        prop_assert!(s.std_dev >= 0.0);
    }

    #[test]
    fn hdi_width_shrinks_with_coverage(
        mut samples in proptest::collection::vec(-1e3f64..1e3, 3..200),
        c1 in 0.2f64..0.9,
    ) {
        samples.sort_unstable_by(f64::total_cmp);
        let c2 = (c1 + 0.1).min(1.0);
        let (lo1, hi1) = highest_density_interval(&samples, c1);
        let (lo2, hi2) = highest_density_interval(&samples, c2);
        prop_assert!(hi1 - lo1 <= hi2 - lo2 + 1e-12, "more coverage cannot be narrower");
    }

    #[test]
    fn db_linear_roundtrip(db in -60.0f64..60.0) {
        let back = Db::from_linear(Db(db).to_linear()).value();
        prop_assert!((back - db).abs() < 1e-9);
    }

    #[test]
    fn db_addition_multiplies_ratios(a in -20.0f64..20.0, b in -20.0f64..20.0) {
        let sum = Db(a) + Db(b);
        let product = Db(a).to_linear() * Db(b).to_linear();
        prop_assert!((sum.to_linear() / product - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gbps_saturating_sub_never_negative(a in 0.0f64..1e4, b in 0.0f64..1e4) {
        prop_assert!(Gbps(a).saturating_sub(Gbps(b)) >= Gbps::ZERO);
    }

    #[test]
    fn q_inverse_is_right_inverse(p in 1e-9f64..0.4999) {
        let x = q_inverse(p);
        prop_assert!((q_function(x) / p - 1.0).abs() < 1e-2, "p={p} x={x}");
    }

    #[test]
    fn rng_uniform_in_bounds(seed in 0u64..1000, lo in -1e3f64..0.0, width in 1e-3f64..1e3) {
        let mut rng = rwc_util::rng::Xoshiro256::seed_from_u64(seed);
        let hi = lo + width;
        for _ in 0..100 {
            let u = rng.uniform_in(lo, hi);
            prop_assert!((lo..hi).contains(&u));
        }
    }

    #[test]
    fn rng_below_in_range(seed in 0u64..1000, n in 1usize..10_000) {
        let mut rng = rwc_util::rng::Xoshiro256::seed_from_u64(seed);
        for _ in 0..50 {
            prop_assert!(rng.below(n) < n);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1000))]

    #[test]
    fn hdi_locator_equals_sort_then_scan(
        counts in grid_counts(),
        coverage in hdi_coverage(),
    ) {
        let sorted: Vec<f64> = counts
            .iter()
            .enumerate()
            .flat_map(|(b, &c)| std::iter::repeat_n(b as f64, c as usize))
            .collect();
        prop_assume!(!sorted.is_empty());
        let (lo, hi) = highest_density_interval(&sorted, coverage);
        prop_assert_eq!(hdi_of_counts(&counts, coverage), (lo as usize, hi as usize));
    }
}
