//! Constellations, AWGN channels and EVM-based SNR estimation.
//!
//! The paper's Fig. 5 shows oscilloscope constellation diagrams of the
//! testbed running QPSK (100 G), 8QAM (150 G) and 16QAM (200 G). We replace
//! the oscilloscope with a simulated coherent channel: unit-energy symbol
//! sets, additive white Gaussian noise at a chosen SNR, minimum-distance
//! detection, and the error-vector-magnitude estimator real transceivers use
//! to report SNR (`SNR ≈ 1/EVM²`).
//!
//! Besides reproducing Fig. 5, this module closes the loop on the
//! modulation-threshold table: Monte-Carlo symbol error rates measured here
//! are checked against the closed-form predictions in [`crate::ber`].

use rwc_util::rng::Xoshiro256;
use rwc_util::units::Db;

/// A complex constellation point (in-phase, quadrature).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Iq {
    /// In-phase component.
    pub i: f64,
    /// Quadrature component.
    pub q: f64,
}

impl Iq {
    /// Constructs a point.
    pub const fn new(i: f64, q: f64) -> Self {
        Self { i, q }
    }

    /// Squared Euclidean distance to another point.
    pub(crate) fn dist2(self, other: Iq) -> f64 {
        (self.i - other.i).powi(2) + (self.q - other.q).powi(2)
    }

    /// Symbol energy `|s|²`.
    pub(crate) fn energy(self) -> f64 {
        self.i * self.i + self.q * self.q
    }
}

/// A unit-average-energy symbol constellation.
#[derive(Debug, Clone, PartialEq)]
pub struct Constellation {
    name: &'static str,
    points: Vec<Iq>,
}

impl Constellation {
    /// QPSK: four points on the unit circle (the paper's 100 G format).
    pub fn qpsk() -> Self {
        let a = std::f64::consts::FRAC_1_SQRT_2;
        Self::normalised(
            "QPSK",
            vec![Iq::new(a, a), Iq::new(-a, a), Iq::new(-a, -a), Iq::new(a, -a)],
        )
    }

    /// Star 8QAM: two QPSK rings with a 45° offset — the ring-ratio used by
    /// flex-rate coherent hardware (the paper's 150 G format).
    pub fn qam8() -> Self {
        let r1 = 1.0;
        let r2 = 1.932; // (1 + sqrt(3)) / sqrt(2), the classic star-8QAM ratio
        let mut pts = Vec::with_capacity(8);
        for k in 0..4 {
            let theta = std::f64::consts::FRAC_PI_2 * k as f64;
            pts.push(Iq::new(r1 * theta.cos(), r1 * theta.sin()));
            let theta2 = theta + std::f64::consts::FRAC_PI_4;
            pts.push(Iq::new(r2 * theta2.cos(), r2 * theta2.sin()));
        }
        Self::normalised("8QAM", pts)
    }

    /// Square 16QAM: a 4×4 grid (the paper's 200 G format).
    pub fn qam16() -> Self {
        let levels = [-3.0, -1.0, 1.0, 3.0];
        let mut pts = Vec::with_capacity(16);
        for &i in &levels {
            for &q in &levels {
                pts.push(Iq::new(i, q));
            }
        }
        Self::normalised("16QAM", pts)
    }

    fn normalised(name: &'static str, mut points: Vec<Iq>) -> Self {
        let avg: f64 = points.iter().map(|p| p.energy()).sum::<f64>() / points.len() as f64;
        let scale = avg.sqrt().recip();
        for p in &mut points {
            p.i *= scale;
            p.q *= scale;
        }
        Self { name, points }
    }

    /// Human-readable format name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Constellation order `M`.
    pub fn order(&self) -> usize {
        self.points.len()
    }

    /// The (unit-average-energy) symbol points.
    pub fn points(&self) -> &[Iq] {
        &self.points
    }

    /// Nearest-point (maximum-likelihood over AWGN) detection.
    pub(crate) fn detect(&self, rx: Iq) -> usize {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (idx, p) in self.points.iter().enumerate() {
            let d = p.dist2(rx);
            if d < best_d {
                best_d = d;
                best = idx;
            }
        }
        best
    }
}

/// One transmitted/received symbol pair from an AWGN trial.
#[derive(Debug, Clone, Copy)]
pub struct SymbolSample {
    /// Index of the transmitted constellation point.
    pub tx_index: usize,
    /// The received (noisy) point.
    pub rx: Iq,
}

/// Result of an AWGN Monte-Carlo run: the received cloud plus quality
/// metrics — the simulated analogue of the paper's Fig. 5 screenshots.
#[derive(Debug, Clone)]
pub struct AwgnRun {
    /// Per-symbol samples (tx index + received point).
    pub samples: Vec<SymbolSample>,
    /// Fraction of symbols detected incorrectly.
    pub symbol_error_rate: f64,
    /// RMS error-vector magnitude, normalised to unit average symbol power.
    pub evm_rms: f64,
}

impl AwgnRun {
    /// The SNR a transceiver DSP would report from this run: `1 / EVM²`.
    pub fn estimated_snr(&self) -> Db {
        Db::from_linear(self.evm_rms.powi(-2))
    }
}

/// Transmits `n_symbols` uniformly random symbols through an AWGN channel at
/// the given per-symbol SNR (`Es/N0`) and detects them.
///
/// Noise is complex circular Gaussian with total variance `N0 = Es/snr`;
/// constellations here have `Es = 1`.
pub fn awgn_trial(
    constellation: &Constellation,
    snr: Db,
    n_symbols: usize,
    rng: &mut Xoshiro256,
) -> AwgnRun {
    assert!(n_symbols > 0, "need at least one symbol");
    let n0 = snr.to_linear().recip();
    let sigma = (n0 / 2.0).sqrt(); // per-dimension noise std-dev
    let mut samples = Vec::with_capacity(n_symbols);
    let mut errors = 0usize;
    let mut err_power = 0.0f64;
    for _ in 0..n_symbols {
        let tx_index = rng.below(constellation.order());
        let tx = constellation.points()[tx_index];
        let rx = Iq::new(tx.i + sigma * rng.standard_normal(), tx.q + sigma * rng.standard_normal());
        if constellation.detect(rx) != tx_index {
            errors += 1;
        }
        err_power += tx.dist2(rx);
        samples.push(SymbolSample { tx_index, rx });
    }
    AwgnRun {
        symbol_error_rate: errors as f64 / n_symbols as f64,
        evm_rms: (err_power / n_symbols as f64).sqrt(),
        samples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all() -> Vec<Constellation> {
        vec![Constellation::qpsk(), Constellation::qam8(), Constellation::qam16()]
    }

    #[test]
    fn unit_average_energy() {
        for c in all() {
            let avg: f64 =
                c.points().iter().map(|p| p.energy()).sum::<f64>() / c.order() as f64;
            assert!((avg - 1.0).abs() < 1e-12, "{}", c.name());
        }
    }

    #[test]
    fn orders_and_bits() {
        let orders: Vec<usize> = all().iter().map(|c| c.order()).collect();
        assert_eq!(orders, vec![4, 8, 16]);
    }

    #[test]
    fn detection_is_identity_without_noise() {
        for c in all() {
            for (idx, &p) in c.points().iter().enumerate() {
                assert_eq!(c.detect(p), idx, "{}", c.name());
            }
        }
    }

    #[test]
    fn high_snr_trial_is_error_free() {
        let mut rng = Xoshiro256::seed_from_u64(1);
        for c in all() {
            let run = awgn_trial(&c, Db(30.0), 5_000, &mut rng);
            assert_eq!(run.symbol_error_rate, 0.0, "{}", c.name());
        }
    }

    #[test]
    fn low_snr_trial_has_errors() {
        let mut rng = Xoshiro256::seed_from_u64(2);
        let run = awgn_trial(&Constellation::qam16(), Db(5.0), 20_000, &mut rng);
        assert!(run.symbol_error_rate > 0.05, "ser={}", run.symbol_error_rate);
    }

    #[test]
    fn denser_formats_err_more_at_equal_snr() {
        let mut rng = Xoshiro256::seed_from_u64(3);
        let snr = Db(10.0);
        let sers: Vec<f64> = all()
            .iter()
            .map(|c| awgn_trial(c, snr, 50_000, &mut rng).symbol_error_rate)
            .collect();
        assert!(sers[0] < sers[1] && sers[1] < sers[2], "{sers:?}");
    }

    #[test]
    fn evm_estimator_recovers_snr() {
        // The transceiver-style EVM→SNR estimate should land within a
        // fraction of a dB of the true channel SNR.
        let mut rng = Xoshiro256::seed_from_u64(4);
        for &snr_db in &[8.0, 12.0, 18.0] {
            let run = awgn_trial(&Constellation::qpsk(), Db(snr_db), 100_000, &mut rng);
            let est = run.estimated_snr().value();
            assert!((est - snr_db).abs() < 0.3, "true={snr_db} est={est}");
        }
    }

    #[test]
    fn awgn_is_deterministic_per_seed() {
        let c = Constellation::qam8();
        let a = awgn_trial(&c, Db(12.0), 1_000, &mut Xoshiro256::seed_from_u64(9));
        let b = awgn_trial(&c, Db(12.0), 1_000, &mut Xoshiro256::seed_from_u64(9));
        assert_eq!(a.symbol_error_rate, b.symbol_error_rate);
        assert_eq!(a.evm_rms, b.evm_rms);
    }
}
