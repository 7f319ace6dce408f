//! Short-horizon SNR forecasting.
//!
//! A natural extension of the paper's controller: instead of reacting when
//! SNR crosses a threshold, anticipate the crossing and schedule the walk-
//! down *before* the link starts dropping frames. This module provides a
//! deliberately simple, streaming forecaster — an exponentially weighted
//! mean + variance with a linear trend term — which is what production
//! telemetry pipelines actually deploy for minutes-ahead horizons.

use rwc_util::units::Db;
use serde::{Deserialize, Serialize};

/// Streaming EWMA mean/variance/trend estimator over an SNR series.
///
/// ```
/// use rwc_telemetry::forecast::SnrForecaster;
/// use rwc_util::units::Db;
///
/// let mut f = SnrForecaster::new(0.3, 0.15);
/// for i in 0..100 {
///     f.observe(Db(12.0 - 0.03 * i as f64)); // steady decay
/// }
/// // The trend points downward and the controller can see the 100 G
/// // threshold coming.
/// assert!(f.predict(40).unwrap() < f.predict(0).unwrap());
/// assert!(f.predicts_crossing(Db(6.5), 96, 1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnrForecaster {
    /// Smoothing factor for level/variance, `0 < alpha <= 1`.
    pub alpha: f64,
    /// Smoothing factor for the trend term.
    pub beta: f64,
    level: Option<f64>,
    trend: f64,
    variance: f64,
    samples: u64,
}

impl SnrForecaster {
    /// A forecaster with the given smoothing factors.
    pub fn new(alpha: f64, beta: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha out of (0,1]");
        assert!(beta > 0.0 && beta <= 1.0, "beta out of (0,1]");
        Self { alpha, beta, level: None, trend: 0.0, variance: 0.0, samples: 0 }
    }

    /// Sensible defaults for 15-minute telemetry: levels adapt over a few
    /// hours, trends a bit slower.
    pub fn telemetry_default() -> Self {
        Self::new(0.2, 0.05)
    }

    /// Number of samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Feeds one observation.
    pub fn observe(&mut self, snr: Db) {
        let x = snr.value();
        match self.level {
            None => {
                self.level = Some(x);
            }
            Some(level) => {
                let err = x - level;
                let new_level = level + self.trend + self.alpha * (x - (level + self.trend));
                self.trend = (1.0 - self.beta) * self.trend
                    + self.beta * (new_level - level);
                self.variance =
                    (1.0 - self.alpha) * self.variance + self.alpha * err * err;
                self.level = Some(new_level);
            }
        }
        self.samples += 1;
    }

    /// Point forecast `steps` ticks ahead (level + trend extrapolation).
    pub fn predict(&self, steps: u64) -> Option<Db> {
        self.level.map(|l| Db(l + self.trend * steps as f64))
    }

    /// Lower confidence bound `steps` ahead: forecast minus `z` estimated
    /// standard deviations — the value a cautious controller compares to
    /// thresholds.
    pub fn lower_bound(&self, steps: u64, z: f64) -> Option<Db> {
        assert!(z >= 0.0, "z must be non-negative");
        self.predict(steps).map(|p| p - Db(z * self.variance.sqrt()))
    }

    /// Estimated per-sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance.sqrt()
    }

    /// Whether the lower bound `steps` ahead falls below `threshold` — the
    /// pre-emptive walk-down signal.
    pub fn predicts_crossing(&self, threshold: Db, steps: u64, z: f64) -> bool {
        self.lower_bound(steps, z).is_some_and(|lb| lb < threshold)
    }
}

impl Default for SnrForecaster {
    fn default() -> Self {
        Self::telemetry_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::SnrProcess;
    use crate::events::EventLog;
    use rwc_util::rng::{CounterRng, Xoshiro256};
    use rwc_util::time::{SimDuration, SimTime};

    #[test]
    fn converges_to_stationary_level() {
        let mut f = SnrForecaster::telemetry_default();
        let process = SnrProcess { diurnal_amp_db: 0.0, ..SnrProcess::default() };
        let trace = process.generate_batch(
            SimTime::EPOCH,
            SimDuration::from_days(30),
            SimDuration::TELEMETRY_TICK,
            &EventLog::new(),
            &CounterRng::keyed(1, 0, 5),
        );
        for (_, snr) in trace.iter() {
            f.observe(snr);
        }
        let pred = f.predict(1).unwrap().value();
        assert!((pred - process.baseline_db).abs() < 0.5, "pred={pred}");
        // Std-dev estimate in the ballpark of the OU sigma.
        assert!((f.std_dev() - process.ou_sigma_db).abs() < 0.25, "sd={}", f.std_dev());
    }

    #[test]
    fn tracks_a_downward_trend() {
        let mut f = SnrForecaster::new(0.3, 0.15);
        // Steady decay: 0.05 dB per tick from 13 dB.
        for i in 0..200 {
            f.observe(Db(13.0 - 0.05 * i as f64));
        }
        let now = f.predict(0).unwrap().value();
        let later = f.predict(20).unwrap().value();
        assert!(later < now - 0.5, "trend not captured: {now} -> {later}");
        // Prediction ~20 ticks out should approximate the true value.
        let truth = 13.0 - 0.05 * 219.0;
        assert!((later - truth).abs() < 1.0, "later={later} truth={truth}");
    }

    #[test]
    fn crossing_predicted_before_it_happens() {
        let mut f = SnrForecaster::new(0.3, 0.15);
        for i in 0..100 {
            f.observe(Db(9.0 - 0.03 * i as f64)); // ends near 6.03 dB
        }
        // Currently above the 100 G threshold minus margin…
        assert!(f.predict(0).unwrap() > Db(6.5) - Db(0.6));
        // …but 32 ticks (8 h) out the lower bound dips below it.
        assert!(f.predicts_crossing(Db(6.5), 32, 1.0));
        assert!(!f.predicts_crossing(Db(3.0), 32, 1.0), "50 G floor is safe");
    }

    #[test]
    fn stable_signal_predicts_no_crossing() {
        let mut f = SnrForecaster::telemetry_default();
        let mut rng = Xoshiro256::seed_from_u64(2);
        for _ in 0..500 {
            f.observe(Db(12.8 + rng.normal(0.0, 0.3)));
        }
        assert!(!f.predicts_crossing(Db(6.5), 96, 3.0));
    }

    #[test]
    fn empty_forecaster_has_no_prediction() {
        let f = SnrForecaster::telemetry_default();
        assert!(f.predict(1).is_none());
        assert!(!f.predicts_crossing(Db(6.5), 1, 1.0));
        assert_eq!(f.samples(), 0);
    }

    #[test]
    fn serde_roundtrip() {
        let mut f = SnrForecaster::telemetry_default();
        f.observe(Db(12.0));
        f.observe(Db(12.5));
        let json = serde_json::to_string(&f).unwrap();
        let back: SnrForecaster = serde_json::from_str(&json).unwrap();
        assert_eq!(f, back);
    }
}
