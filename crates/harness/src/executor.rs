//! The crash-safe, panic-isolated fleet-sweep executor.
//!
//! Work is the same atomic-counter chunk queue the bench driver always
//! used — `n_chunks ≈ 4 × workers` chunks of consecutive link ids, each
//! worker claiming the next index with a `fetch_add` — but the merge and
//! failure paths are hardened:
//!
//! - **poison-free handoff**: workers send `(chunk id, result)` over an
//!   mpsc channel to a collector instead of writing through a shared
//!   `Mutex` slot vector, so a panicking worker cannot poison anything
//!   another thread will later `.lock()`;
//! - **panic isolation**: each chunk attempt runs under `catch_unwind`; a
//!   panic re-queues the chunk *in place* with a jittered exponential
//!   backoff (the controller's `base × (1 ± jitter)` shape), up to a
//!   retry budget. Only a chunk that exhausts the budget fails the sweep,
//!   and then with a typed [`HarnessError`] naming the chunk;
//! - **checkpointing**: the collector snapshots completed chunks into a
//!   [`SweepCheckpoint`] every `every_chunks` completions, written
//!   atomically off the workers' path (they never wait on the write).
//!
//! Determinism: chunk results depend only on `(seed, link_id)` and the
//! final merge folds slots in ascending chunk order, so the accumulator
//! and merged metrics are byte-identical regardless of thread count,
//! retries, injected panics, or how many kill/resume cycles the sweep
//! went through — the invariant the resume proptests pin.

use crate::chaos::ChaosPlan;
use crate::checkpoint::{
    self, CheckpointError, ChunkCheckpoint, SweepCheckpoint, SweepFingerprint, SWEEP_MODE,
};
use rwc_obs::{Event, MetricsObserver, MetricsSnapshot, Observer};
use rwc_optics::ModulationTable;
use rwc_telemetry::{FleetAccumulator, FleetGenerator, FleetKernel};
use rwc_util::rng::Xoshiro256;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// What to sweep: the fleet, the table, and how.
#[derive(Debug, Clone, Copy)]
pub struct SweepSpec<'a> {
    /// The deterministic fleet.
    pub gen: &'a FleetGenerator,
    /// Ladder the links are analysed against.
    pub table: &'a ModulationTable,
    /// Worker threads.
    pub n_threads: usize,
    /// Collect per-chunk metrics snapshots (kernel counters/events).
    pub collect_metrics: bool,
}

/// Retry behaviour for panicking chunks — the controller's jittered
/// backoff shape (`base × 2^(attempt−1) × (1 ± jitter)`, seeded draws).
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Retries per chunk after the first attempt. 0 = fail fast.
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
    /// The backoff before retry `attempt` (1-based) of `chunk` —
    /// deterministic in `(seed, chunk, attempt)`.
    pub fn backoff(&self, chunk: u64, attempt: u32) -> Duration {
        let exp = self.base_backoff.as_secs_f64() * f64::from(1u32 << (attempt - 1).min(16));
        if self.jitter == 0.0 {
            return Duration::from_secs_f64(exp);
        }
        let mut rng = Xoshiro256::seed_from_u64(
            self.seed
                .wrapping_add(chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15))
                .wrapping_add(u64::from(attempt)),
        );
        let scale = 1.0 + self.jitter * (2.0 * rng.uniform() - 1.0);
        Duration::from_secs_f64((exp * scale).max(0.0))
    }
}

/// Where and how often to checkpoint.
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Checkpoint file (written atomically via temp + rename).
    pub path: PathBuf,
    /// Write after every this many chunk completions (the tick interval);
    /// a final checkpoint is always written when the sweep completes.
    pub every_chunks: u64,
}

/// Runtime knobs for one sweep.
#[derive(Debug, Clone)]
pub struct ExecutorConfig {
    /// Panic-retry policy.
    pub retry: RetryPolicy,
    /// Checkpointing, off by default.
    pub checkpoint: Option<CheckpointConfig>,
    /// Chaos injection, off by default.
    pub chaos: Option<ChaosPlan>,
    /// Sink for `harness.*` counters and events.
    pub observer: Arc<dyn Observer>,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        Self { retry: RetryPolicy::default(), checkpoint: None, chaos: None, observer: rwc_obs::noop() }
    }
}

/// Bookkeeping of one sweep run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Chunks in the sweep.
    pub chunks_total: u64,
    /// Chunks restored from the resume checkpoint.
    pub chunks_resumed: u64,
    /// Panic-triggered chunk retries.
    pub retries: u64,
    /// Checkpoints written (interval + final).
    pub checkpoints_written: u64,
    /// Panics the chaos plan injected.
    pub panics_injected: u64,
}

/// A completed sweep.
#[derive(Debug)]
pub struct SweepResult {
    /// The slot-ordered fleet accumulator.
    pub accumulator: FleetAccumulator,
    /// Merged per-chunk metrics (when `collect_metrics`), chunk order.
    pub metrics: Option<MetricsSnapshot>,
    /// Run bookkeeping.
    pub stats: SweepStats,
}

/// How a sweep ended.
///
/// One value exists per sweep, so the size gap between the completed
/// result and the kill bookkeeping is irrelevant — no point boxing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum SweepOutcome {
    /// Ran (or resumed) to completion.
    Completed(SweepResult),
    /// The chaos plan killed the run mid-sweep; a checkpoint covering
    /// `completed_chunks` was written if checkpointing is configured.
    Killed {
        /// Chunks completed (including restored ones) at the kill.
        completed_chunks: u64,
        /// Run bookkeeping up to the kill.
        stats: SweepStats,
    },
}

/// Why a sweep could not produce a result.
#[derive(Debug)]
pub enum HarnessError {
    /// Checkpoint I/O, corruption, version or fingerprint trouble.
    Checkpoint(CheckpointError),
    /// A chunk kept panicking past its retry budget.
    ChunkFailed {
        /// The chunk that failed.
        chunk: u64,
        /// Attempts spent (first run + retries).
        attempts: u32,
        /// The panic payload of the last attempt.
        message: String,
    },
}

impl fmt::Display for HarnessError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HarnessError::Checkpoint(e) => write!(f, "{e}"),
            HarnessError::ChunkFailed { chunk, attempts, message } => write!(
                f,
                "chunk {chunk} failed after {attempts} attempts (last panic: {message})"
            ),
        }
    }
}

impl std::error::Error for HarnessError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HarnessError::Checkpoint(e) => Some(e),
            HarnessError::ChunkFailed { .. } => None,
        }
    }
}

impl From<CheckpointError> for HarnessError {
    fn from(e: CheckpointError) -> Self {
        HarnessError::Checkpoint(e)
    }
}

/// The chunk size the bench driver has always used: ~4 chunks per worker,
/// at least one link each.
pub fn chunk_size_for(n_links: usize, n_threads: usize) -> usize {
    n_links.div_ceil(n_threads.max(1) * 4).max(1)
}

struct ChunkDone {
    acc: FleetAccumulator,
    metrics: Option<MetricsSnapshot>,
}

enum WorkerMsg {
    Done(usize, Box<ChunkDone>),
    Retry { chunk: usize, attempt: u32, injected: bool },
    Failed { chunk: usize, attempts: u32, message: String },
}

/// Runs one chunk attempt. Panics (including injected ones) unwind out of
/// here and are caught by the worker loop.
fn process_chunk(
    spec: &SweepSpec<'_>,
    kernel: &mut FleetKernel,
    chunk: usize,
    chunk_size: usize,
    attempt: u32,
    chaos: Option<&ChaosPlan>,
    observer: &Arc<dyn Observer>,
) -> ChunkDone {
    if let Some(plan) = chaos {
        if plan.should_panic(chunk as u64, attempt) {
            observer.incr("harness.chaos_panics", 1);
            panic!("chaos: injected panic in chunk {chunk} (attempt {attempt})");
        }
    }
    // A fresh per-attempt observer keeps the metrics of failed attempts
    // out of the sweep: only the successful attempt's counts survive.
    let chunk_obs = spec.collect_metrics.then(|| Arc::new(MetricsObserver::new()));
    match &chunk_obs {
        Some(obs) => kernel.set_observer(obs.clone() as Arc<dyn Observer>),
        None => kernel.set_observer(rwc_obs::noop()),
    }
    let lo = chunk * chunk_size;
    let hi = (lo + chunk_size).min(spec.gen.n_links());
    let mut acc = FleetAccumulator::new();
    for link_id in lo..hi {
        acc.push(&kernel.analyze_generated(spec.gen, link_id, spec.table));
    }
    ChunkDone { acc, metrics: chunk_obs.map(|o| o.snapshot()) }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn build_checkpoint(
    fingerprint: &SweepFingerprint,
    slots: &[Option<ChunkDone>],
) -> SweepCheckpoint {
    let mut cp = SweepCheckpoint::new(fingerprint.clone());
    for (id, slot) in slots.iter().enumerate() {
        if let Some(done) = slot {
            cp.chunks.push(ChunkCheckpoint {
                id: id as u64,
                accumulator: done.acc.clone(),
                metrics: done.metrics.clone(),
            });
        }
    }
    let first_missing =
        slots.iter().position(Option::is_none).unwrap_or(slots.len()) as u64;
    cp.next_link = first_missing * fingerprint.chunk_size;
    cp
}

/// Runs a fleet sweep under the crash-safe runtime. `resume` restores a
/// previously written checkpoint (fingerprint-verified); the returned
/// result is byte-identical to an uninterrupted run.
pub fn run_fleet_sweep(
    spec: &SweepSpec<'_>,
    cfg: &ExecutorConfig,
    resume: Option<&SweepCheckpoint>,
) -> Result<SweepOutcome, HarnessError> {
    let n_links = spec.gen.n_links();
    let workers = spec.n_threads.max(1);
    // Resume replays the checkpoint's chunk boundaries even under a
    // different thread count — chunk ids must mean the same links.
    let chunk_size = match resume {
        Some(cp) => cp.fingerprint.chunk_size as usize,
        None => chunk_size_for(n_links, workers),
    };
    if chunk_size == 0 {
        return Err(CheckpointError::Corrupt("chunk_size 0 in checkpoint".into()).into());
    }
    let fingerprint = SweepFingerprint {
        n_links: n_links as u64,
        chunk_size: chunk_size as u64,
        seed: spec.gen.config().seed,
        mode: SWEEP_MODE.into(),
    };
    let n_chunks = n_links.div_ceil(chunk_size);
    let mut slots: Vec<Option<ChunkDone>> = (0..n_chunks).map(|_| None).collect();
    let mut stats = SweepStats { chunks_total: n_chunks as u64, ..SweepStats::default() };

    if let Some(cp) = resume {
        fingerprint.verify(&cp.fingerprint)?;
        for chunk in &cp.chunks {
            let id = chunk.id as usize;
            if id >= n_chunks {
                return Err(CheckpointError::Corrupt(format!(
                    "chunk id {id} out of range (sweep has {n_chunks} chunks)"
                ))
                .into());
            }
            slots[id] =
                Some(ChunkDone { acc: chunk.accumulator.clone(), metrics: chunk.metrics.clone() });
        }
        stats.chunks_resumed = cp.chunks.len() as u64;
        cfg.observer.incr("harness.resume_verified", 1);
        cfg.observer.event(&Event::ResumeVerified { restored_chunks: stats.chunks_resumed });
    }

    let pending: Vec<usize> =
        (0..n_chunks).filter(|&c| slots[c].is_none()).collect();
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let kill_budget = cfg.chaos.as_ref().and_then(|p| p.kill_after_chunks);

    let mut first_failure: Option<HarnessError> = None;
    let mut killed = false;

    std::thread::scope(|scope| -> Result<(), HarnessError> {
        let (tx, rx) = mpsc::channel::<WorkerMsg>();
        for _ in 0..workers {
            let tx = tx.clone();
            let pending = &pending;
            let next = &next;
            let stop = &stop;
            let cfg = &cfg;
            let spec = &spec;
            scope.spawn(move || {
                let mut kernel = FleetKernel::new();
                loop {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&chunk) = pending.get(idx) else { break };
                    let mut attempt: u32 = 0;
                    loop {
                        let outcome = catch_unwind(AssertUnwindSafe(|| {
                            process_chunk(
                                spec,
                                &mut kernel,
                                chunk,
                                chunk_size,
                                attempt,
                                cfg.chaos.as_ref(),
                                &cfg.observer,
                            )
                        }));
                        match outcome {
                            Ok(done) => {
                                tx.send(WorkerMsg::Done(chunk, Box::new(done))).ok();
                                break;
                            }
                            Err(payload) => {
                                let message = panic_message(payload);
                                let injected = message.starts_with("chaos:");
                                if attempt >= cfg.retry.budget {
                                    tx.send(WorkerMsg::Failed {
                                        chunk,
                                        attempts: attempt + 1,
                                        message,
                                    })
                                    .ok();
                                    break;
                                }
                                attempt += 1;
                                tx.send(WorkerMsg::Retry { chunk, attempt, injected }).ok();
                                std::thread::sleep(
                                    cfg.retry.backoff(chunk as u64, attempt),
                                );
                            }
                        }
                    }
                }
            });
        }
        drop(tx);

        // The collector owns the slots and the checkpoint file; workers
        // never block on either.
        let mut completed = stats.chunks_resumed;
        let mut fresh_completed: u64 = 0;
        let mut since_checkpoint: u64 = 0;
        for msg in rx {
            match msg {
                WorkerMsg::Done(chunk, done) => {
                    if killed {
                        continue; // drain without recording past the kill
                    }
                    slots[chunk] = Some(*done);
                    completed += 1;
                    fresh_completed += 1;
                    since_checkpoint += 1;
                    if let Some(kill_after) = kill_budget {
                        if fresh_completed >= kill_after {
                            killed = true;
                            stop.store(true, Ordering::Relaxed);
                            cfg.observer.incr("harness.chaos_kills", 1);
                            if let Some(ckpt) = &cfg.checkpoint {
                                let cp = build_checkpoint(&fingerprint, &slots);
                                checkpoint::write_atomic(&ckpt.path, &cp)?;
                                stats.checkpoints_written += 1;
                                cfg.observer.incr("harness.checkpoints_written", 1);
                                cfg.observer.event(&Event::CheckpointWritten {
                                    completed_chunks: completed,
                                });
                            }
                            continue;
                        }
                    }
                    if let Some(ckpt) = &cfg.checkpoint {
                        if since_checkpoint >= ckpt.every_chunks && completed < n_chunks as u64 {
                            since_checkpoint = 0;
                            let cp = build_checkpoint(&fingerprint, &slots);
                            checkpoint::write_atomic(&ckpt.path, &cp)?;
                            stats.checkpoints_written += 1;
                            cfg.observer.incr("harness.checkpoints_written", 1);
                            cfg.observer.event(&Event::CheckpointWritten {
                                completed_chunks: completed,
                            });
                        }
                    }
                }
                WorkerMsg::Retry { chunk, attempt, injected } => {
                    stats.retries += 1;
                    if injected {
                        stats.panics_injected += 1;
                    }
                    cfg.observer.incr("harness.chunk_retries", 1);
                    cfg.observer.event(&Event::ChunkRetried {
                        chunk: chunk as u64,
                        attempt: u64::from(attempt),
                    });
                }
                WorkerMsg::Failed { chunk, attempts, message } => {
                    if first_failure.is_none() {
                        cfg.observer.incr("harness.chunk_failures", 1);
                        first_failure = Some(HarnessError::ChunkFailed {
                            chunk: chunk as u64,
                            attempts,
                            message,
                        });
                    }
                    stop.store(true, Ordering::Relaxed);
                }
            }
        }
        Ok(())
    })?;

    if let Some(err) = first_failure {
        return Err(err);
    }
    if killed {
        let completed_chunks = slots.iter().filter(|s| s.is_some()).count() as u64;
        return Ok(SweepOutcome::Killed { completed_chunks, stats });
    }

    // Final checkpoint: a completed run leaves a full snapshot behind so a
    // re-launch can verify instead of recompute.
    if let Some(ckpt) = &cfg.checkpoint {
        let cp = build_checkpoint(&fingerprint, &slots);
        checkpoint::write_atomic(&ckpt.path, &cp)?;
        stats.checkpoints_written += 1;
        cfg.observer.incr("harness.checkpoints_written", 1);
        cfg.observer
            .event(&Event::CheckpointWritten { completed_chunks: n_chunks as u64 });
    }

    // Slot-ordered merge: identical to a sequential pass over link ids.
    let mut accumulator = FleetAccumulator::new();
    let mut metrics: Option<MetricsSnapshot> = None;
    for (chunk, slot) in slots.into_iter().enumerate() {
        // An empty slot past the kill/failure gates above means the
        // executor lost track of a chunk — surface it as a typed failure
        // rather than poisoning whoever embeds the harness.
        let Some(done) = slot else {
            return Err(HarnessError::ChunkFailed {
                chunk: chunk as u64,
                attempts: 0,
                message: "chunk never completed despite a clean sweep".to_string(),
            });
        };
        accumulator.merge(done.acc);
        if let Some(m) = done.metrics {
            match &mut metrics {
                None => metrics = Some(m),
                Some(merged) => merged.merge(&m),
            }
        }
    }
    Ok(SweepOutcome::Completed(SweepResult { accumulator, metrics, stats }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_telemetry::FleetConfig;

    fn tiny_fleet() -> FleetGenerator {
        FleetGenerator::new(FleetConfig {
            n_fibers: 2,
            wavelengths_per_fiber: 8,
            horizon: rwc_util::time::SimDuration::from_days(20),
            ..FleetConfig::paper()
        })
    }

    fn spec<'a>(
        gen: &'a FleetGenerator,
        table: &'a ModulationTable,
        threads: usize,
    ) -> SweepSpec<'a> {
        SweepSpec { gen, table, n_threads: threads, collect_metrics: true }
    }

    fn completed(outcome: SweepOutcome) -> SweepResult {
        match outcome {
            SweepOutcome::Completed(r) => r,
            SweepOutcome::Killed { .. } => panic!("unexpected kill"),
        }
    }

    #[test]
    fn sweep_matches_sequential_fleet_analysis() {
        let gen = tiny_fleet();
        let table = ModulationTable::paper_default();
        let sequential = gen.fleet_analysis(&table);
        // Metrics reference: one kernel publishing into one observer.
        let seq_obs = Arc::new(MetricsObserver::new());
        let mut kernel = FleetKernel::with_observer(Arc::clone(&seq_obs) as Arc<dyn Observer>);
        for link_id in 0..gen.n_links() {
            kernel.analyze_generated(&gen, link_id, &table);
        }
        let seq_metrics = seq_obs.snapshot().to_json();
        for threads in [1, 2, 3, 5] {
            let out = run_fleet_sweep(&spec(&gen, &table, threads), &ExecutorConfig::default(), None)
                .unwrap();
            let result = completed(out);
            assert_eq!(
                serde_json::to_string(&result.accumulator).unwrap(),
                serde_json::to_string(&sequential).unwrap(),
                "threads={threads}"
            );
            assert_eq!(
                result.metrics.as_ref().map(MetricsSnapshot::to_json).as_deref(),
                Some(seq_metrics.as_str()),
                "per-chunk metrics merge diverged at threads={threads}"
            );
        }
    }

    #[test]
    fn injected_panic_degrades_to_retry_not_failure() {
        let gen = tiny_fleet();
        let table = ModulationTable::paper_default();
        let reference = completed(
            run_fleet_sweep(&spec(&gen, &table, 2), &ExecutorConfig::default(), None).unwrap(),
        );
        let cfg = ExecutorConfig {
            chaos: Some(ChaosPlan::new(11).with_panic_chunk(1)),
            ..ExecutorConfig::default()
        };
        let result = completed(run_fleet_sweep(&spec(&gen, &table, 2), &cfg, None).unwrap());
        assert!(result.stats.retries >= 1);
        assert!(result.stats.panics_injected >= 1);
        assert_eq!(
            serde_json::to_string(&result.accumulator).unwrap(),
            serde_json::to_string(&reference.accumulator).unwrap(),
        );
        assert_eq!(
            result.metrics.as_ref().map(MetricsSnapshot::to_json),
            reference.metrics.as_ref().map(MetricsSnapshot::to_json),
        );
    }

    #[test]
    fn exhausted_retry_budget_is_a_typed_error() {
        let gen = tiny_fleet();
        let table = ModulationTable::paper_default();
        let cfg = ExecutorConfig {
            retry: RetryPolicy { budget: 1, ..RetryPolicy::default() },
            // Poison more attempts than the budget allows.
            chaos: Some(ChaosPlan::new(5).with_panic_chunk(0).with_poison_attempts(5)),
            ..ExecutorConfig::default()
        };
        match run_fleet_sweep(&spec(&gen, &table, 2), &cfg, None) {
            Err(HarnessError::ChunkFailed { chunk, attempts, message }) => {
                assert_eq!(chunk, 0);
                assert_eq!(attempts, 2);
                assert!(message.contains("chaos"), "message: {message}");
            }
            other => panic!("expected ChunkFailed, got {other:?}"),
        }
    }

    #[test]
    fn kill_then_resume_is_byte_identical() {
        let gen = tiny_fleet();
        let table = ModulationTable::paper_default();
        let reference = completed(
            run_fleet_sweep(&spec(&gen, &table, 2), &ExecutorConfig::default(), None).unwrap(),
        );
        let path = std::env::temp_dir()
            .join(format!("rwc_exec_resume_{}.json", std::process::id()));
        let cfg = ExecutorConfig {
            checkpoint: Some(CheckpointConfig { path: path.clone(), every_chunks: 1 }),
            chaos: Some(ChaosPlan::new(3).with_kill_after(2)),
            ..ExecutorConfig::default()
        };
        match run_fleet_sweep(&spec(&gen, &table, 2), &cfg, None).unwrap() {
            SweepOutcome::Killed { completed_chunks, .. } => {
                assert!(completed_chunks >= 2);
            }
            SweepOutcome::Completed(_) => panic!("chaos kill did not fire"),
        }
        let cp = checkpoint::load(&path).unwrap();
        assert!(!cp.chunks.is_empty());
        // Resume with a *different* thread count: chunk boundaries come
        // from the checkpoint, so identity must still hold.
        let resume_cfg = ExecutorConfig {
            checkpoint: Some(CheckpointConfig { path: path.clone(), every_chunks: 4 }),
            ..ExecutorConfig::default()
        };
        let resumed =
            completed(run_fleet_sweep(&spec(&gen, &table, 5), &resume_cfg, Some(&cp)).unwrap());
        assert!(resumed.stats.chunks_resumed >= 2);
        assert_eq!(
            serde_json::to_string(&resumed.accumulator).unwrap(),
            serde_json::to_string(&reference.accumulator).unwrap(),
        );
        assert_eq!(
            resumed.metrics.as_ref().map(MetricsSnapshot::to_json),
            reference.metrics.as_ref().map(MetricsSnapshot::to_json),
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn resume_rejects_serial_generation_checkpoints() {
        // A checkpoint written under the retired serial sampler says
        // "fused" or "legacy"; its chunks carry byte-different traces, so
        // it must not resume even when fleet, seed and chunking all match.
        let gen = tiny_fleet();
        let table = ModulationTable::paper_default();
        let n_links = gen.n_links() as u64;
        let chunk_size = chunk_size_for(n_links as usize, 2) as u64;
        let fingerprint = |mode: &str| SweepFingerprint {
            n_links,
            chunk_size,
            seed: gen.config().seed,
            mode: mode.into(),
        };
        let cp = SweepCheckpoint::new(fingerprint(SWEEP_MODE));
        run_fleet_sweep(&spec(&gen, &table, 2), &ExecutorConfig::default(), Some(&cp))
            .expect("the current label resumes");
        for mode in ["fused", "legacy"] {
            let cp = SweepCheckpoint::new(fingerprint(mode));
            match run_fleet_sweep(&spec(&gen, &table, 2), &ExecutorConfig::default(), Some(&cp)) {
                Err(HarnessError::Checkpoint(CheckpointError::ConfigMismatch(_))) => {}
                other => panic!("{mode}: expected ConfigMismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn resume_rejects_foreign_fingerprint() {
        let gen = tiny_fleet();
        let table = ModulationTable::paper_default();
        let mut cp = SweepCheckpoint::new(SweepFingerprint {
            n_links: 999,
            chunk_size: 3,
            seed: 1,
            mode: SWEEP_MODE.into(),
        });
        cp.chunks.clear();
        match run_fleet_sweep(&spec(&gen, &table, 2), &ExecutorConfig::default(), Some(&cp)) {
            Err(HarnessError::Checkpoint(CheckpointError::ConfigMismatch(_))) => {}
            other => panic!("expected ConfigMismatch, got {other:?}"),
        }
    }
}
