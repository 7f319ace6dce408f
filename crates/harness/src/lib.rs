//! # rwc-harness — what makes a fleet sweep crash-safe
//!
//! Fleet sweeps in this repo are embarrassingly parallel and fully
//! deterministic: every link is generated independently from
//! `(seed, link_id)` and merges are slot-ordered. The one engine that runs
//! them in parallel is the `rwc-serve` daemon; this crate holds the parts
//! it builds its crash safety from:
//!
//! - [`checkpoint`] — a versioned, checksummed, atomically written
//!   snapshot of sweep progress, plus the two-epoch [`CheckpointStore`];
//!   a resumed run is byte-identical to an uninterrupted one.
//! - [`retry`] — the seeded, jittered backoff a panicked shard restarts
//!   under.
//! - [`chaos`] — seeded deterministic fault injection (worker panics,
//!   checkpoint corruption) used by the `repro chaos` experiment and CI's
//!   chaos-smoke job to prove the daemon actually holds.
//! - [`scratch`] — unique, self-removing scratch directories for the
//!   checkpoint stores of tests and the chaos campaign.
//!
//! The crate sits below `rwc-serve` and above telemetry/obs: it knows how
//! a sweep survives, not what the sweep is for.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod checkpoint;
pub mod retry;
pub mod scratch;

pub use chaos::{corrupt_bit_flip, corrupt_truncate, corrupt_version_bump, ChaosPlan};
pub use checkpoint::{
    CheckpointEpoch, CheckpointError, CheckpointStore, ChunkCheckpoint, StoreLoad,
    SweepCheckpoint, SweepFingerprint, CHECKPOINT_VERSION, SWEEP_MODE,
};
pub use retry::RetryPolicy;
pub use scratch::ScratchDir;
