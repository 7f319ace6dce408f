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
//! - [`certificate`]: one proof per verdict, each checked in O(nnz) from
//!   the solver's own vectors — [`certify`] an optimum from its
//!   multipliers, [`certify_infeasible`] a Farkas vector (Phase I's final
//!   multipliers), [`certify_unbounded`] a ray;
//! - [`flows`]: max-flow / min-cost-max-flow / multicommodity encoders.
//!
//! There is one engine and no second solver: every outcome but
//! [`LpOutcome::Stalled`] is believed on its certificate alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
pub mod flows;
mod lu;
pub mod model;
mod pricing;
pub mod revised;
pub mod sparse;

pub use certificate::{
    certify, certify_infeasible, certify_unbounded, Certificate, CertificateError,
    CERTIFICATE_TOL,
};
pub use model::{LinearProgram, LpBuilder, Relation};
pub use revised::{
    solve, solve_with_budget, LpOutcome, Solution, SolverStats, SparseSimplexSolver,
};
pub use sparse::{CscMatrix, SparseLp, SparseLpBuilder};
