//! Daemon configuration.

use crate::error::ServeError;
use crate::queue::ShedPolicy;
use rwc_core::controller::ControllerConfig;
use rwc_harness::{ChaosPlan, RetryPolicy};
use rwc_telemetry::FleetConfig;
use std::path::PathBuf;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Where per-shard checkpoints live and how often they are written.
#[derive(Debug, Clone)]
pub struct ServeCheckpointConfig {
    /// Directory holding `shard-<i>.ckpt` (+ rotated `.prev`) files.
    pub dir: PathBuf,
    /// Write a shard's checkpoint after every this many completions
    /// homed to it; a final checkpoint is always written on drain.
    pub every_links: u64,
}

/// Everything the daemon needs to own a fleet.
///
/// Determinism contract: the pipeline result (accumulator + pipeline
/// metrics) is a pure function of `(fleet, controller)` —
/// shard count, queue sizing, shedding, restarts and resume cycles never
/// change a result byte, only the `serve.*` operational counters.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The deterministic fleet the daemon serves.
    pub fleet: FleetConfig,
    /// Controller tuning; its `table` is the ladder every link is
    /// analysed and decided against.
    pub controller: ControllerConfig,
    /// Worker shards (each: kernel + controller + metrics registry).
    pub n_shards: usize,
    /// Bounded ingest-queue capacity per shard.
    pub queue_capacity: usize,
    /// What to do when a shard's queue is full.
    pub shed_policy: ShedPolicy,
    /// Queue residency deadline: items older than this at pop time are
    /// shed (counted, never silently dropped). `None` disables expiry.
    pub deadline: Option<Duration>,
    /// Restart budget + jittered backoff for panicked shards; after
    /// `restart.budget` restarts a shard is marked unhealthy.
    pub restart: RetryPolicy,
    /// Periodic per-shard checkpointing, off by default.
    pub checkpoint: Option<ServeCheckpointConfig>,
    /// Chaos injection: `panic_chunks` holds *link ids* whose first
    /// `poison_attempts` processing attempts panic the owning shard.
    pub chaos: Option<ChaosPlan>,
    /// SIGINT/SIGTERM-equivalent shutdown hook: when set to `true`, the
    /// accept loop stops and shard supervisors begin a graceful drain.
    pub shutdown: Option<Arc<AtomicBool>>,
}

impl ServeConfig {
    /// A small-fleet config for tests and smoke runs.
    pub fn small() -> Self {
        Self::for_fleet(FleetConfig::small())
    }

    /// The paper-scale fleet behind a daemon.
    pub fn paper() -> Self {
        Self::for_fleet(FleetConfig::paper())
    }

    /// Defaults around an arbitrary fleet.
    pub fn for_fleet(fleet: FleetConfig) -> Self {
        Self {
            fleet,
            controller: ControllerConfig::default(),
            n_shards: 4,
            queue_capacity: 64,
            shed_policy: ShedPolicy::RejectNewest,
            deadline: None,
            restart: RetryPolicy::default(),
            checkpoint: None,
            chaos: None,
            shutdown: None,
        }
    }

    /// Total links in the configured fleet.
    pub fn n_links(&self) -> usize {
        self.fleet.n_links()
    }

    /// Rejects nonsense before any thread is spawned — a bad config is a
    /// typed [`ServeError::Config`], not a panic inside a shard.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.n_shards == 0 {
            return Err(ServeError::Config("n_shards must be at least 1".into()));
        }
        if self.queue_capacity == 0 {
            return Err(ServeError::Config("queue_capacity must be at least 1".into()));
        }
        self.fleet.validate().map_err(ServeError::Config)?;
        self.controller.validate().map_err(ServeError::Config)?;
        if !(0.0..=1.0).contains(&self.restart.jitter) {
            return Err(ServeError::Config(format!(
                "restart jitter {} outside [0, 1]",
                self.restart.jitter
            )));
        }
        if let Some(ck) = &self.checkpoint {
            if ck.every_links == 0 {
                return Err(ServeError::Config("checkpoint.every_links must be at least 1".into()));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_util::time::SimDuration;

    #[test]
    fn small_config_validates() {
        assert!(ServeConfig::small().validate().is_ok());
    }

    #[test]
    fn zero_bounds_are_config_errors() {
        let mut c = ServeConfig::small();
        c.n_shards = 0;
        assert!(matches!(c.validate(), Err(ServeError::Config(_))));
        let mut c = ServeConfig::small();
        c.queue_capacity = 0;
        assert!(matches!(c.validate(), Err(ServeError::Config(_))));
        let mut c = ServeConfig::small();
        c.controller.upgrade_margin = rwc_util::units::Db(f64::NAN);
        assert!(matches!(c.validate(), Err(ServeError::Config(_))));
        let mut c = ServeConfig::small();
        c.restart.jitter = 2.0;
        assert!(matches!(c.validate(), Err(ServeError::Config(_))));
        let mut c = ServeConfig::small();
        c.checkpoint =
            Some(ServeCheckpointConfig { dir: std::env::temp_dir(), every_links: 0 });
        assert!(matches!(c.validate(), Err(ServeError::Config(_))));
        // Fleets the generator would panic on, in the caller or in every
        // shard's first link.
        type Breakage = (&'static str, fn(&mut FleetConfig));
        let fleets: [Breakage; 14] = [
            ("zero tick", |f| f.tick = SimDuration::ZERO),
            ("horizon below a tick", |f| f.horizon = SimDuration::from_millis(1)),
            ("noisy fraction 2.0", |f| f.noisy_link_fraction = 2.0),
            ("noisy fraction -0.1", |f| f.noisy_link_fraction = -0.1),
            ("noisy fraction NaN", |f| f.noisy_link_fraction = f64::NAN),
            ("clamp reversed", |f| f.baseline_clamp_db = (17.0, 8.0)),
            ("clamp NaN", |f| f.baseline_clamp_db = (f64::NAN, 17.0)),
            ("clamp narrower than 1 dB", |f| f.baseline_clamp_db = (8.0, 8.5)),
            ("negative quiet sigma", |f| f.quiet_sigma_db = -0.35),
            ("negative noisy sigma", |f| f.noisy_sigma_db = (-1.2, -0.55)),
            ("NaN noisy sigma", |f| f.noisy_sigma_db = (0.55, f64::NAN)),
            ("infinite jitter", |f| f.wavelength_jitter_sd_db = f64::INFINITY),
            ("negative event rate", |f| f.deep_dip_rate = -0.8),
            ("NaN event rate", |f| f.fiber_cut_rate = f64::NAN),
        ];
        for (what, break_fleet) in fleets {
            let mut c = ServeConfig::small();
            break_fleet(&mut c.fleet);
            assert!(matches!(c.validate(), Err(ServeError::Config(_))), "{what}");
        }
    }
}
