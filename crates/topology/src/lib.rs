//! # rwc-topology
//!
//! WAN topology substrate for the *Run, Walk, Crawl* reproduction.
//!
//! The paper's abstraction operates on an IP-layer topology whose links are
//! optical wavelengths (one wavelength = one IP link). This crate provides:
//!
//! - [`graph`]: the [`NodeId`] every layer indexes sites by;
//! - [`wan`]: the WAN model: named sites, fiber cables, and wavelength
//!   links with lengths, SNR and current modulation;
//! - [`builders`]: hard-coded research topologies (Abilene, a B4-like
//!   graph, the paper's own Fig. 7 four-node example) and regular families
//!   (ring, grid, full mesh);
//! - [`random`]: Waxman and geometric random WANs over North-America-like
//!   coordinates;
//! - [`export`]: Graphviz DOT export;
//! - JSON import/export via `serde` on all types.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
pub mod export;
pub mod graph;
pub mod random;
pub mod wan;

pub use graph::NodeId;
pub use wan::{WanLink, WanNode, WanTopology};
