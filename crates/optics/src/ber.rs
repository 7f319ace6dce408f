//! Closed-form error-rate models.
//!
//! These standard AWGN formulas serve two purposes: they validate the
//! Monte-Carlo channel in [`crate::constellation`], and they justify the
//! spacing of the modulation-threshold ladder — each step up the ladder
//! needs a predictable extra SNR to hold the same pre-FEC error rate.

use rwc_util::special::{q_function, q_inverse};

/// Symbol error rate of M-PSK over AWGN at per-symbol SNR `Es/N0`
/// (tight union-bound approximation; exact for BPSK).
pub fn ser_mpsk(m: usize, es_n0: f64) -> f64 {
    assert!(m >= 2 && m.is_power_of_two(), "M must be a power of two >= 2");
    assert!(es_n0 >= 0.0, "SNR must be non-negative");
    if m == 2 {
        return q_function((2.0 * es_n0).sqrt());
    }
    let arg = (2.0 * es_n0).sqrt() * (std::f64::consts::PI / m as f64).sin();
    (2.0 * q_function(arg)).min(1.0)
}

/// Symbol error rate of square M-QAM over AWGN at per-symbol SNR `Es/N0`.
///
/// `M` must be an even power of two (4, 16, 64, …). The standard
/// nearest-neighbour expression
/// `P ≈ 4(1 − 1/√M)·Q(√(3·Es/N0/(M−1)))` (minus the corner double-count).
pub fn ser_mqam(m: usize, es_n0: f64) -> f64 {
    let sqrt_m = (m as f64).sqrt();
    assert!(
        m >= 4 && m.is_power_of_two() && sqrt_m.fract() == 0.0,
        "M must be a square power of two"
    );
    assert!(es_n0 >= 0.0, "SNR must be non-negative");
    let q = q_function((3.0 * es_n0 / (m as f64 - 1.0)).sqrt());
    let p_sqrt = 2.0 * (1.0 - 1.0 / sqrt_m) * q;
    (2.0 * p_sqrt - p_sqrt * p_sqrt).clamp(0.0, 1.0)
}

/// Approximate SER of star-8QAM using the generic nearest-neighbour union
/// bound `P ≈ N̄·Q(d_min/(2σ))`, with the average kissing number `N̄ = 2.5`
/// and `d_min` of the two-ring layout used in
/// [`crate::constellation::Constellation::qam8`].
pub fn ser_star8qam(es_n0: f64) -> f64 {
    assert!(es_n0 >= 0.0, "SNR must be non-negative");
    // d_min of the normalised two-ring star-8QAM (measured from geometry).
    const D_MIN: f64 = 0.8701;
    let sigma = (1.0 / (2.0 * es_n0)).sqrt();
    (2.5 * q_function(D_MIN / (2.0 * sigma))).min(1.0)
}

/// The per-symbol SNR (linear `Es/N0`) at which square M-QAM reaches a
/// target SER — inverted analytically through the Q-function.
pub fn required_es_n0_mqam(m: usize, target_ser: f64) -> f64 {
    assert!(target_ser > 0.0 && target_ser < 1.0);
    let sqrt_m = (m as f64).sqrt();
    // Invert P = 2p - p² for the per-axis error p, then p = 2(1-1/√M)Q(x).
    let p_axis = 1.0 - (1.0 - target_ser).sqrt();
    let q_target = p_axis / (2.0 * (1.0 - 1.0 / sqrt_m));
    let x = q_inverse(q_target);
    x * x * (m as f64 - 1.0) / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constellation::{awgn_trial, Constellation};
    use rwc_util::rng::Xoshiro256;
    use rwc_util::units::Db;

    #[test]
    fn bpsk_known_point() {
        // BPSK at Es/N0 = 4 (6.02 dB): Q(sqrt(8)) ~ 2.339e-3.
        let ser = ser_mpsk(2, 4.0);
        assert!((ser - 2.339e-3).abs() < 2e-5, "ser={ser}");
    }

    #[test]
    fn qpsk_equals_4qam() {
        // QPSK and square 4-QAM are the same constellation; the two formulas
        // must agree closely.
        for &snr_db in &[6.0, 8.0, 10.0] {
            let es_n0 = Db(snr_db).to_linear();
            let psk = ser_mpsk(4, es_n0);
            let qam = ser_mqam(4, es_n0);
            assert!((psk / qam - 1.0).abs() < 0.05, "snr={snr_db} psk={psk} qam={qam}");
        }
    }

    #[test]
    fn ser_decreases_with_snr() {
        let mut last = 1.0;
        for snr_db in [0, 3, 6, 9, 12, 15, 18] {
            let ser = ser_mqam(16, Db(snr_db as f64).to_linear());
            assert!(ser < last, "snr={snr_db}");
            last = ser;
        }
    }

    #[test]
    fn monte_carlo_matches_theory_qpsk() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let snr = Db(9.0);
        let run = awgn_trial(&Constellation::qpsk(), snr, 400_000, &mut rng);
        let theory = ser_mpsk(4, snr.to_linear());
        assert!(
            (run.symbol_error_rate / theory - 1.0).abs() < 0.15,
            "mc={} theory={theory}",
            run.symbol_error_rate
        );
    }

    #[test]
    fn monte_carlo_matches_theory_16qam() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let snr = Db(14.0);
        let run = awgn_trial(&Constellation::qam16(), snr, 400_000, &mut rng);
        let theory = ser_mqam(16, snr.to_linear());
        assert!(
            (run.symbol_error_rate / theory - 1.0).abs() < 0.15,
            "mc={} theory={theory}",
            run.symbol_error_rate
        );
    }

    #[test]
    fn monte_carlo_matches_theory_star8qam() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let snr = Db(12.0);
        let run = awgn_trial(&Constellation::qam8(), snr, 400_000, &mut rng);
        let theory = ser_star8qam(snr.to_linear());
        // Union bound with an averaged kissing number: generous tolerance.
        assert!(
            (run.symbol_error_rate / theory - 1.0).abs() < 0.35,
            "mc={} theory={theory}",
            run.symbol_error_rate
        );
    }

    #[test]
    fn required_snr_inverts_ser() {
        for &target in &[1e-2, 1e-3, 1e-4] {
            let es_n0 = required_es_n0_mqam(16, target);
            let back = ser_mqam(16, es_n0);
            assert!((back / target - 1.0).abs() < 1e-3, "target={target} back={back}");
        }
    }

    #[test]
    fn ladder_spacing_matches_theory() {
        // At a pre-FEC target of ~2e-2, 16QAM needs ~5.5-7 dB more SNR than
        // QPSK. The paper's table spaces 200 G exactly 6 dB above 100 G
        // (12.5 vs 6.5), consistent with theory.
        let gap =
            Db::from_linear(required_es_n0_mqam(16, 2e-2) / required_es_n0_mqam(4, 2e-2)).value();
        assert!((5.0..8.0).contains(&gap), "gap={gap}");
    }

    #[test]
    #[should_panic]
    fn mqam_rejects_non_square() {
        ser_mqam(8, 10.0);
    }

    #[test]
    #[should_panic]
    fn mpsk_rejects_non_power_of_two() {
        ser_mpsk(3, 10.0);
    }
}
