//! # rwc-util
//!
//! Shared foundations for the `rwc` workspace (a reproduction of
//! *Run, Walk, Crawl: Towards Dynamic Link Capacities*, HotNets 2017).
//!
//! This crate deliberately has no heavy dependencies; it provides:
//!
//! - [`rng`]: deterministic, seedable PRNGs — the serial [`rng::Xoshiro256`]
//!   behind link profiles, tickets, demands and channels, and the
//!   counter-based [`rng::CounterRng`] (Philox-2×64) whose sample *k* is a
//!   pure function of `(seed, stream, domain, k)`, which makes SNR trace
//!   generation embarrassingly parallel — plus the sampling routines the simulators need (normal,
//!   lognormal, exponential, Poisson, Pareto). The stochastic SNR processes
//!   and failure generators must be bit-reproducible across machines and
//!   crate upgrades, so the generators and all distributions are implemented
//!   here rather than pulled from `rand_distr`.
//! - [`simd`]: vectorized bulk-sampling kernels (runtime-dispatched
//!   AVX2/SSE2 with a bit-identical scalar fallback) for the batch
//!   generation pipeline.
//! - [`time`]: a simulated clock. Nothing in the workspace reads wall-clock
//!   time; every experiment is replayable.
//! - [`units`]: strongly typed decibels ([`units::Db`]) and capacities
//!   ([`units::Gbps`]) so signal-quality math cannot silently mix linear and
//!   logarithmic quantities.
//! - [`stats`]: empirical CDFs, quantiles, histograms and summary statistics
//!   used by every figure reproduction.
//! - [`special`]: `erf`/`erfc`/Q-function used by the theoretical
//!   symbol-error-rate models in `rwc-optics`.

// `deny` rather than `forbid`: the SIMD kernels in [`simd`] need a scoped
// `#[allow(unsafe_code)]` for `core::arch` intrinsics (same policy as the
// counting allocator in `rwc-bench`). Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod rng;
pub mod simd;
pub mod special;
pub mod stats;
pub mod time;
pub mod units;

pub use rng::{CounterRng, Xoshiro256};
pub use time::{SimDuration, SimTime};
pub use units::{Db, Gbps};
