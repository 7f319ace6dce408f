//! # rwc-bench
//!
//! The figure-reproduction harness: one experiment per table/figure of the
//! paper, run by the `repro` binary, which prints the series and writes CSV
//! artifacts; plus the `rwc-serve` daemon and `loadgen` binaries. It
//! reproduces and checks. Performance is measured by the standalone
//! `benchmark/` package at the repository root, and by nothing here.
//!
//! Run everything:
//!
//! ```text
//! cargo run -p rwc-bench --release --bin repro -- all
//! cargo run -p rwc-bench --release --bin repro -- --full fig2a   # paper-scale fleet
//! ```

// `deny` rather than `forbid`: the counting allocator in [`alloc`] needs a
// scoped `allow` for its `GlobalAlloc` forwarding; everything else stays
// unsafe-free.
#![deny(unsafe_code)]

pub mod alloc;
pub mod cli;
pub mod experiments;
pub mod parallel;
pub mod report;

pub use report::{Report, Scale};
