//! # rwc-harness — the crash-safe sweep runtime
//!
//! Fleet sweeps in this repo are embarrassingly parallel and fully
//! deterministic: every link is generated independently from
//! `(seed, link_id)` and merges are slot-ordered. This crate turns that
//! determinism into *robustness*:
//!
//! - [`checkpoint`] — a versioned, checksummed, atomically written
//!   snapshot of sweep progress at chunk granularity; a resumed run is
//!   byte-identical to an uninterrupted one.
//! - [`executor`] — panic-isolated workers with poison-free mpsc merge
//!   handoff, jittered retry of failed chunks, and interval
//!   checkpointing off the workers' hot path.
//! - [`chaos`] — seeded deterministic fault injection (worker panics,
//!   mid-run kills, checkpoint corruption) used by the `repro chaos`
//!   experiment and CI's chaos-smoke job to prove the two modules above
//!   actually hold.
//!
//! The crate sits below `rwc-bench` (which drives it from the `repro`
//! binary) and above telemetry/obs: it knows how to run a fleet sweep,
//! not what the sweep is for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod executor;

pub use chaos::{corrupt_bit_flip, corrupt_truncate, corrupt_version_bump, ChaosPlan};
pub use checkpoint::{
    CheckpointEpoch, CheckpointError, CheckpointStore, ChunkCheckpoint, StoreLoad,
    SweepCheckpoint, SweepFingerprint, CHECKPOINT_VERSION, SWEEP_MODE,
};
pub use executor::{
    chunk_size_for, run_fleet_sweep, CheckpointConfig, ExecutorConfig, HarnessError, RetryPolicy,
    SweepOutcome, SweepResult, SweepSpec, SweepStats,
};
