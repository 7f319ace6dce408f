//! # rwc-flow
//!
//! Flow-algorithm substrate for the *Run, Walk, Crawl* reproduction.
//!
//! Theorem 1 of the paper reduces TE-with-dynamic-capacities to **min-cost
//! max-flow** on an augmented graph. These are the single-commodity
//! solvers that theorem is checked with, written from scratch (the Rust
//! ecosystem's optimisation support is thin, per the calibration notes);
//! multicommodity TE is not here — it is the one LP behind
//! `rwc_te::TeSolver`.
//!
//! - [`network`]: the shared [`network::FlowNetwork`] representation and
//!   residual graph;
//! - [`maxflow`]: Dinic's algorithm, and the widest single path;
//! - [`mincost`]: successive shortest paths with Johnson potentials
//!   (Bellman–Ford bootstrap, Dijkstra iterations).
//!
//! All capacities/costs are `f64`; comparisons use the crate-wide
//! [`EPS`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod maxflow;
pub mod mincost;
pub mod network;

pub use maxflow::{max_flow, widest_path};
pub use mincost::min_cost_max_flow;
pub use network::FlowNetwork;

/// Tolerance for flow comparisons.
pub const EPS: f64 = 1e-9;
