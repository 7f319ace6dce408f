//! # rwc-te
//!
//! Traffic-engineering layer for the *Run, Walk, Crawl* reproduction.
//!
//! §4's entire point is that TE algorithms stay **unmodified**: they
//! consume a topology + demands and emit flow, never knowing whether an
//! edge is real or one of Algorithm 1's fake upgrade links. This crate
//! provides faithful reconstructions of the controllers the paper names:
//!
//! - [`swan`]: SWAN-style priority-class multicommodity allocation
//!   (interactive > elastic > background), each class solved as MCF on the
//!   residual of the classes above it;
//! - [`b4`]: B4-style max-min fair allocation over k-shortest-path tunnel
//!   groups with quantised progressive filling;
//! - [`cspf`]: an MPLS-TE-like constrained-shortest-path-first baseline
//!   (sequential, order-dependent);
//! - [`formulation`]: the TE objective zoo — max-throughput, TROD-style
//!   min-MLU over traffic-matrix envelopes, max-concurrent-flow fairness,
//!   the paper's Fig. 8 unsplittable gadget (its node-splitting lowering
//!   lives in the private `gadget` module), and capacity reduction —
//!   each lowered to the sparse LP `rwc-lp` solves and certifies;
//! - [`solver`]: the unified [`solver::TeSolver`] front-end (builder,
//!   warm-start policy, watchdog, observer) over the whole zoo;
//! - [`demand`]: demand matrices and a gravity-model generator;
//! - [`problem`]: the topology→flow-network bridge all solvers share;
//! - [`updates`]: a consistent-update planner for draining links whose
//!   capacity is about to change;
//! - [`metrics`]: throughput/utilisation/churn accounting.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod b4;
pub mod cspf;
pub mod demand;
#[cfg(test)]
mod flows;
pub mod formulation;
mod gadget;
pub mod metrics;
pub mod problem;
pub mod solver;
pub mod srlg;
pub mod swan;
pub mod updates;

pub use demand::{Demand, DemandMatrix, Priority};
pub use formulation::{LoweredTe, TeFormulation, TeObjective, TeSolve};
pub use problem::{TeProblem, TeSolution, TeValidationError};
pub use solver::{TeSolver, TeSolverBuilder, WarmStartPolicy};

use std::fmt;

/// A typed solver failure — what used to be a panic in the hot path.
///
/// The run/walk/crawl controller reacts to these by falling back to the
/// last feasible allocation instead of tearing the network down, so every
/// variant carries enough context to log the decision.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TeError {
    /// The optimiser stopped without converging: its iteration/pivot
    /// budget ran out, the watchdog fired, or the simplex stalled on a
    /// numerical fault (a singular cold basis, a ratio test nothing
    /// blocked).
    SolverTimeout {
        /// Name of the algorithm that timed out.
        algorithm: &'static str,
        /// Human-readable context.
        detail: String,
    },
    /// The solver aborted: the optimum answers nothing (a min-MLU envelope
    /// with no path, `λ* = 0`), or an internal invariant failed.
    SolverAbort {
        /// Name of the algorithm that aborted.
        algorithm: &'static str,
        /// Human-readable context.
        detail: String,
    },
    /// The algorithm was constructed with parameters it cannot run with.
    InvalidConfig {
        /// Name of the misconfigured algorithm.
        algorithm: &'static str,
        /// Human-readable context.
        detail: String,
    },
}

impl fmt::Display for TeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TeError::SolverTimeout { algorithm, detail } => {
                write!(f, "{algorithm}: solver timed out: {detail}")
            }
            TeError::SolverAbort { algorithm, detail } => {
                write!(f, "{algorithm}: solver aborted: {detail}")
            }
            TeError::InvalidConfig { algorithm, detail } => {
                write!(f, "{algorithm}: invalid configuration: {detail}")
            }
        }
    }
}

impl std::error::Error for TeError {}

/// A traffic-engineering algorithm: topology + demands in, flows out.
///
/// Implementations must treat the problem as opaque — no peeking at which
/// edges are "real", which is exactly the property the paper's abstraction
/// relies on.
pub trait TeAlgorithm {
    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
    /// Solves the problem, surfacing solver failures as [`TeError`]
    /// instead of panicking. Callers that treat a failed solve as fatal
    /// say so at the call site with `?` or `.expect`.
    fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError>;
    /// Warm-start counters, for algorithms that keep solver state across
    /// rounds (see [`solver::TeSolver`]). Stateless algorithms return
    /// `None`.
    fn warm_stats(&self) -> Option<rwc_lp::SolverStats> {
        None
    }
    /// Fingerprint of everything beyond the algorithm *name* that changes
    /// what a solve means — objective, weights. The round
    /// engine's memo key folds this in so cached solutions never leak
    /// across differently-configured solvers sharing a name. Algorithms
    /// with exactly one configuration keep the default `0`.
    fn solve_fingerprint(&self) -> u64 {
        0
    }
}
