//! # rwc-lp
//!
//! A small, exact linear-programming solver — a sparse revised simplex
//! with bounded variables, LU-factorised bases and warm starts — plus an
//! optimality-certificate checker and encoders that express flow problems
//! as LPs.
//!
//! Why build one: the reproduction's headline theorem says min-cost
//! max-flow on the augmented graph equals max-flow on the dynamic-capacity
//! graph. The combinatorial solvers in `rwc-flow` cover the
//! single-commodity side; multicommodity TE is solved here, exactly, and
//! this crate is also the *ground truth* those solvers and the path-based
//! TE heuristics are validated against in tests and benchmarks (the Rust
//! ecosystem's optimisation offerings are thin, per the calibration notes,
//! so this is written from scratch on `std` only).
//!
//! - [`model`]: the LP model ([`model::LinearProgram`], built via
//!   [`model::LpBuilder`]);
//! - [`sparse`]: CSC computational form + bound-absorbing lowering;
//! - [`revised`]: the sparse revised-simplex solver and its result types;
//! - [`certificate`]: [`certify`] — primal feasibility, dual feasibility
//!   and duality gap of a point and the solver's own multipliers, in
//!   O(nnz), with no second solver;
//! - [`flows`]: max-flow / min-cost-max-flow / multicommodity encoders.
//!
//! There is one engine. A dense two-phase tableau survives under
//! `#[cfg(test)]` only, as the independent oracle for what a certificate
//! cannot say (`Infeasible` / `Unbounded`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod flows;
mod lu;
pub mod model;
mod pricing;
pub mod revised;
#[cfg(test)]
mod simplex;
pub mod sparse;

pub use certificate::{certify, Certificate, CertificateError, CERTIFICATE_TOL};
pub use model::{LinearProgram, LpBuilder, Relation};
pub use revised::{
    solve, solve_with_budget, LpOutcome, Solution, SolverStats, SparseSimplexSolver,
};
pub use sparse::{CscMatrix, SparseLp, SparseLpBuilder};
