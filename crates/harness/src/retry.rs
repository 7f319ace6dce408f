//! Jittered exponential backoff, seeded so a rerun waits the same.

use rwc_util::rng::Xoshiro256;
use std::time::Duration;

/// Restart behaviour after a panic — the controller's jittered backoff
/// shape (`base × 2^(attempt−1) × (1 ± jitter)`, seeded draws). The
/// serve daemon restarts a panicked shard under it.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries after the first attempt. 0 = fail fast.
    pub budget: u32,
    /// Base backoff before the first retry.
    pub base_backoff: Duration,
    /// Fractional jitter in `[0, 1]` on every backoff draw.
    pub jitter: f64,
    /// Seed for the deterministic jitter stream.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self { budget: 2, base_backoff: Duration::from_millis(2), jitter: 0.5, seed: 0x52_57_43 }
    }
}

impl RetryPolicy {
    /// The backoff before retry `attempt` (1-based) of whatever `id`
    /// names (a shard) — deterministic in `(seed, id, attempt)`.
    pub fn backoff(&self, id: u64, attempt: u32) -> Duration {
        let exp = self.base_backoff.as_secs_f64() * f64::from(1u32 << (attempt - 1).min(16));
        if self.jitter == 0.0 {
            return Duration::from_secs_f64(exp);
        }
        let mut rng = Xoshiro256::seed_from_u64(
            self.seed
                .wrapping_add(id.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(u64::from(attempt)),
        );
        let scale = 1.0 + self.jitter * (2.0 * rng.uniform() - 1.0);
        Duration::from_secs_f64((exp * scale).max(0.0))
    }
}
