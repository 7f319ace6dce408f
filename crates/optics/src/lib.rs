//! # rwc-optics
//!
//! Physical-layer substrate for the *Run, Walk, Crawl* reproduction: the
//! optical concepts the paper measures and programs against.
//!
//! - [`modulation`]: the capacity ladder (50–200 Gbps) and its SNR
//!   thresholds — the dashed horizontal lines of the paper's Fig. 1 and the
//!   basis of every feasible-capacity computation.
//! - [`snr`]: SNR/OSNR conversions and margin helpers on top of
//!   [`rwc_util::units::Db`].
//! - [`link_budget`]: a span/EDFA link-budget model producing a baseline SNR
//!   from fiber length and amplifier noise — the physical grounding for the
//!   synthetic telemetry in `rwc-telemetry`.
//! - [`constellation`]: QPSK/8QAM/16QAM symbol sets, an AWGN channel and
//!   EVM-based SNR estimation (the paper's Fig. 5 testbed measurement).
//! - [`ber`]: closed-form symbol-error-rate models used to validate the
//!   threshold table against communication theory.
//! - [`bvt`]: a bandwidth-variable transceiver state machine with an
//!   MDIO-style register interface and the two reconfiguration procedures
//!   the paper compares in Fig. 6b (legacy ≈ 68 s vs efficient ≈ 35 ms).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ber;
pub mod bvt;
pub mod constellation;
pub mod fec;
pub mod link_budget;
pub mod modulation;
pub mod snr;

pub use bvt::{Bvt, ReconfigProcedure, ReconfigReport};
pub use link_budget::LinkBudget;
pub use modulation::{Modulation, ModulationTable};
pub use rwc_util::units::{Db, Gbps};
