//! Special functions for communication-theory math.
//!
//! The modulation models in `rwc-optics` need the Gaussian error function
//! to compute theoretical symbol-error rates, and its inverse to derive
//! SNR requirements from target error rates. `std` does not provide these,
//! so they are implemented here with well-known rational approximations.

/// Error function `erf(x)`, accurate to about 1.2e-7.
///
/// Uses the Abramowitz & Stegun 7.1.26-style approximation refined by
/// W. J. Cody; adequate for error-rate estimation (we never need more than
/// ~6 significant digits of a BER).
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// Complementary error function `erfc(x) = 1 - erf(x)`.
///
/// Implemented directly (rather than as `1 - erf`) to stay accurate in the
/// deep tail, where symbol error rates live (e.g. `erfc(5) ~ 1.5e-12`).
pub fn erfc(x: f64) -> f64 {
    if x < 0.0 {
        return 2.0 - erfc(-x);
    }
    // Numerical Recipes' erfc approximation (fractional error < 1.2e-7
    // everywhere, relative error small in the tail).
    let z = x;
    let t = 1.0 / (1.0 + 0.5 * z);
    let poly = -z * z - 1.26551223
        + t * (1.00002368
            + t * (0.37409196
                + t * (0.09678418
                    + t * (-0.18628806
                        + t * (0.27886807
                            + t * (-1.13520398
                                + t * (1.48851587
                                    + t * (-0.82215223 + t * 0.17087277))))))));
    t * poly.exp()
}

/// The Gaussian tail probability `Q(x) = P(N(0,1) > x)`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

/// Inverse of the Q-function, computed by bisection on the monotone
/// [`q_function`].
///
/// Accepts probabilities in `(0, 1)`; accurate to ~1e-10 in `x`. Used to
/// convert a target symbol-error rate into a required SNR.
pub fn q_inverse(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "q_inverse domain is (0,1), got {p}");
    let (mut lo, mut hi) = (-40.0, 40.0);
    // 100 bisection steps: interval shrinks to 80 * 2^-100, far below f64 eps.
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if q_function(mid) > p {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        // Reference values from standard tables.
        let cases = [
            (0.0, 0.0),
            (0.5, 0.5204998778),
            (1.0, 0.8427007929),
            (2.0, 0.9953222650),
            (-1.0, -0.8427007929),
        ];
        for (x, want) in cases {
            assert!((erf(x) - want).abs() < 2e-7, "erf({x}) = {} want {want}", erf(x));
        }
    }

    #[test]
    fn erfc_complements_erf() {
        for i in -30..=30 {
            let x = i as f64 / 7.0;
            assert!((erf(x) + erfc(x) - 1.0).abs() < 1e-12, "x={x}");
        }
    }

    #[test]
    fn erfc_tail_is_positive_and_small() {
        let t5 = erfc(5.0);
        assert!(t5 > 0.0 && t5 < 2e-11, "erfc(5)={t5}");
        let t3 = erfc(3.0);
        assert!((t3 - 2.209e-5).abs() < 2e-7, "erfc(3)={t3}");
    }

    #[test]
    fn q_function_known_values() {
        // erfc is a rational approximation: exact to ~1.2e-7, not to ulps.
        assert!((q_function(0.0) - 0.5).abs() < 2e-7);
        // Q(1.6449) ~ 0.05, Q(2.3263) ~ 0.01
        assert!((q_function(1.6448536) - 0.05).abs() < 1e-6);
        assert!((q_function(2.3263479) - 0.01).abs() < 1e-6);
    }

    #[test]
    fn q_inverse_round_trip() {
        for &p in &[0.4, 0.1, 1e-2, 1e-4, 1e-6, 1e-9] {
            let x = q_inverse(p);
            let back = q_function(x);
            assert!(
                (back / p - 1.0).abs() < 1e-3,
                "p={p} x={x} back={back}"
            );
        }
    }

    #[test]
    fn q_inverse_monotone() {
        assert!(q_inverse(1e-6) > q_inverse(1e-3));
        assert!(q_inverse(0.4) > q_inverse(0.5 - 1e-9) - 1.0);
    }

    #[test]
    #[should_panic]
    fn q_inverse_rejects_out_of_domain() {
        q_inverse(0.0);
    }

}
