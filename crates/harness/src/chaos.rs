//! Seeded, deterministic fault injection for the sweep runtime.
//!
//! A [`ChaosPlan`] decides *before the run starts* which chunks will
//! panic, how many attempts stay poisoned, and after how many fresh
//! completions the run is killed mid-flight. Everything derives from the
//! plan's seed, so a chaos experiment is reproducible: the same plan
//! against the same fleet injects the same faults every time.
//!
//! This taxonomy is deliberately disjoint from `crates/faults`: that
//! crate models *network* faults (SNR dips, loss-of-light, flaps) that
//! are part of the simulated world and flow through the telemetry
//! pipeline; chaos here models *runtime* faults (worker panics, kills,
//! corrupted checkpoint files, stalled solves) that the harness must
//! absorb without changing any result bytes.

use rwc_util::rng::Xoshiro256;
use std::collections::BTreeSet;

/// A deterministic fault-injection schedule for one sweep.
#[derive(Debug, Clone, Default)]
pub struct ChaosPlan {
    /// Seed all injection draws derive from.
    pub seed: u64,
    /// Chunk ids whose early attempts panic.
    pub panic_chunks: BTreeSet<u64>,
    /// Kill the run (checkpoint + stop) after this many fresh chunk
    /// completions.
    pub kill_after_chunks: Option<u64>,
    /// How many attempts of a poisoned chunk panic before it succeeds.
    /// The default 1 means: first attempt panics, first retry succeeds.
    pub poison_attempts: u32,
}

impl ChaosPlan {
    /// An empty plan (no injections) with the given seed.
    pub fn new(seed: u64) -> Self {
        Self { seed, panic_chunks: BTreeSet::new(), kill_after_chunks: None, poison_attempts: 1 }
    }

    /// Picks `n` distinct chunks out of `n_chunks` to poison, seeded.
    pub fn with_panics(mut self, n: usize, n_chunks: u64) -> Self {
        let mut rng = Xoshiro256::seed_from_u64(self.seed ^ 0x000C_4A05);
        while self.panic_chunks.len() < n.min(n_chunks as usize) {
            let pick = (rng.uniform() * n_chunks as f64) as u64;
            self.panic_chunks.insert(pick.min(n_chunks.saturating_sub(1)));
        }
        self
    }

    /// Poisons one specific chunk.
    #[cfg(test)]
    pub(crate) fn with_panic_chunk(mut self, chunk: u64) -> Self {
        self.panic_chunks.insert(chunk);
        self
    }

    /// Kills the run after `n` fresh chunk completions.
    pub fn with_kill_after(mut self, n: u64) -> Self {
        self.kill_after_chunks = Some(n);
        self
    }

    /// Keeps poisoned chunks panicking for their first `n` attempts.
    #[cfg(test)]
    pub(crate) fn with_poison_attempts(mut self, n: u32) -> Self {
        self.poison_attempts = n;
        self
    }

    /// Should this `(chunk, attempt)` panic? Attempts are 0-based.
    pub fn should_panic(&self, chunk: u64, attempt: u32) -> bool {
        attempt < self.poison_attempts && self.panic_chunks.contains(&chunk)
    }
}

/// Flips one bit of one seeded byte — models silent on-disk corruption.
/// The result must always be rejected by the checkpoint loader (as a
/// parse error, checksum mismatch, or version mismatch).
pub fn corrupt_bit_flip(text: &str, seed: u64) -> String {
    let mut bytes = text.as_bytes().to_vec();
    if bytes.is_empty() {
        return String::new();
    }
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0xB17_F11);
    let idx = (rng.uniform() * bytes.len() as f64) as usize % bytes.len();
    bytes[idx] ^= 0x01;
    // The flip may produce invalid UTF-8; lossy conversion still yields a
    // string the loader must reject (the checksum no longer matches).
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Truncates the file at a seeded point — models a crash mid-write on a
/// filesystem without the atomic-rename guarantee.
pub fn corrupt_truncate(text: &str, seed: u64) -> String {
    if text.is_empty() {
        return String::new();
    }
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x7A_C47E);
    let keep = 1 + (rng.uniform() * (text.len() - 1) as f64) as usize;
    let mut cut = keep.min(text.len() - 1);
    while cut > 0 && !text.is_char_boundary(cut) {
        cut -= 1;
    }
    text[..cut.max(1)].to_string()
}

/// Rewrites the envelope version to a future one — models a checkpoint
/// from a newer build that this binary must refuse to load.
pub fn corrupt_version_bump(text: &str) -> String {
    let needle = format!("\"version\":{}", crate::checkpoint::CHECKPOINT_VERSION);
    let bumped = format!("\"version\":{}", crate::checkpoint::CHECKPOINT_VERSION + 1);
    text.replacen(&needle, &bumped, 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_is_deterministic_in_seed() {
        let a = ChaosPlan::new(7).with_panics(3, 16);
        let b = ChaosPlan::new(7).with_panics(3, 16);
        assert_eq!(a.panic_chunks, b.panic_chunks);
        assert_eq!(a.panic_chunks.len(), 3);
        assert!(a.panic_chunks.iter().all(|&c| c < 16));
    }

    #[test]
    fn poison_attempts_gate_retries() {
        let plan = ChaosPlan::new(1).with_panic_chunk(4).with_poison_attempts(2);
        assert!(plan.should_panic(4, 0));
        assert!(plan.should_panic(4, 1));
        assert!(!plan.should_panic(4, 2));
        assert!(!plan.should_panic(5, 0));
    }

    #[test]
    fn corruption_helpers_change_the_text() {
        let text = r#"{"version":1,"checksum":"fnv1a64:0000000000000000","payload":{}}"#;
        assert_ne!(corrupt_bit_flip(text, 9), text);
        assert!(corrupt_truncate(text, 9).len() < text.len());
        assert!(corrupt_version_bump(text).contains("\"version\":2"));
    }
}
