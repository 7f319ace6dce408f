//! # rwc-lp
//!
//! A small, exact linear-programming solver — a sparse revised simplex
//! with bounded variables, LU-factorised bases and warm starts — for the
//! programs TE lowers, plus an optimality-certificate checker.
//!
//! Why build one: the reproduction's headline theorem says min-cost
//! max-flow on the augmented graph equals max-flow on the dynamic-capacity
//! graph. The combinatorial solvers in `rwc-flow` cover the
//! single-commodity side; multicommodity TE is solved here, exactly, on
//! the LP `rwc-te` lowers, and tests hold that lowering to Dinic and the
//! min-cost solver on one-commodity problems (the Rust ecosystem's
//! optimisation offerings are thin, so this is written from scratch on
//! `std` only).
//!
//! Every program is feasible at `x = 0`: `≤` rows with rhs ≥ 0, `=` rows
//! with rhs 0, as every TE lowering is. [`SparseLp::validate`] refuses
//! anything else, so a cold solve starts at the origin with no Phase I, and
//! the only verdicts are [`LpOutcome::Optimal`] and [`LpOutcome::Stalled`].
//!
//! - [`sparse`]: the one LP model, [`SparseLp`] (CSC matrix over bounded
//!   variables), built with [`SparseLpBuilder`];
//! - [`revised`]: the sparse revised-simplex solver and its result types;
//! - [`certificate`]: [`certify`], the proof of an optimum, checked in
//!   O(nnz) from the solver's own multipliers.
//!
//! There is one engine and no second solver: an optimum is believed on
//! its certificate alone.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod certificate;
mod lu;
mod pricing;
pub mod revised;
pub mod sparse;

pub use certificate::{certify, Certificate, CertificateError, CERTIFICATE_TOL};
pub use revised::{LpOutcome, Solution, SolverStats, SparseSimplexSolver};
pub use sparse::{CscMatrix, Relation, SparseLp, SparseLpBuilder};
