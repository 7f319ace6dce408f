//! # rwc-telemetry
//!
//! Synthetic SNR telemetry for the *Run, Walk, Crawl* reproduction.
//!
//! The paper studies the SNR of 2,000+ production WAN links sampled every
//! 15 minutes for 2.5 years. That dataset is proprietary, so this crate
//! generates a statistically equivalent fleet: each link's SNR is a
//! link-budget baseline plus an Ornstein–Uhlenbeck micro-noise process, a
//! small diurnal ripple, and a sparse schedule of *events* — transient dips
//! (maintenance, amplifier trouble), step degradations (component aging)
//! and loss-of-light outages (fiber cuts, hardware death). Wavelengths on
//! the same fiber share fiber-level events, reproducing the correlated dips
//! of the paper's Fig. 1.
//!
//! Calibration targets (see DESIGN.md §5) are the paper's fleet aggregates:
//! 95% highest-density region narrower than 2 dB for ~83% of links, mean
//! baseline SNR ≈ 12.8 dB, ~80% of links feasible at ≥ 175 Gbps, a fleet
//! capacity gain of ≈ 145 Tbps, and ≥ ~25% of failures bottoming out above
//! the 3 dB / 50 Gbps floor.
//!
//! Memory: a full 2.5-year link trace is ~88k samples (≈700 kB).
//! [`generator::FleetGenerator::link`] materialises one link at a time, and
//! the fleet path holds no trace at all: [`kernel::FleetKernel`] folds each
//! generated group of up to 4,096 readings into a 0.1 dB histogram.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod events;
pub mod generator;
pub mod hdr;
pub mod kernel;
pub mod process;
pub mod trace;

pub use analysis::{FleetAccumulator, LinkAnalysis};
pub use generator::{FleetConfig, FleetGenerator, LinkProfile, LinkTelemetry};
pub use kernel::FleetKernel;
pub use process::{BatchCursor, BatchScratch, SnrProcess};
pub use trace::SnrTrace;
