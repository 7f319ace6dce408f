//! LP optimality certificates: proof that a point is optimal, from the
//! point and the solver's own multipliers, with no second solver.
//!
//! For `max c·x  s.t.  A x {≤,=,≥} b,  0 ≤ x ≤ u` a pair `(x, y)` is
//! optimal exactly when three things hold:
//!
//! 1. **primal feasibility** — every row by its relation, `0 ≤ x ≤ u`;
//! 2. **dual feasibility** — `y_r ≥ 0` on `≤` rows, `≤ 0` on `≥` rows,
//!    and the reduced cost `d_j = c_j − y·A_j` is `≤ 0` where `x_j` rests
//!    at zero, `≥ 0` where it rests at `u_j`, and zero strictly between
//!    (the bound status is read off `x` itself, not taken on trust);
//! 3. **no duality gap** — `c·x = y·b + Σ_j u_j·max(d_j, 0)`.
//!
//! [`certify`] checks them in plain loops over the CSC columns — O(nnz),
//! no factorisation, no solver state. Residuals are *relative*: rows to
//! `1 + |b_r|`, bounds to `1 + u_j`, multipliers and reduced costs to
//! `1 + ‖c‖∞`, the gap to `1 + |c·x|`. The TE objectives weigh their
//! headline quantity at `1e6`, so an absolute tolerance would either
//! refuse every correct solve or accept wrong ones.

use crate::model::Relation;
use crate::sparse::SparseLp;
use std::fmt;

/// Largest relative residual [`certify`] accepts. The revised simplex
/// lands three to six orders of magnitude below it on every TE fixture.
pub const CERTIFICATE_TOL: f64 = 1e-9;

/// The three worst relative residuals of a checked `(x, y)` pair.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Certificate {
    /// Worst row or bound violation.
    pub primal: f64,
    /// Worst multiplier-sign or reduced-cost violation.
    pub dual: f64,
    /// `|c·x − (y·b + Σ u_j·max(d_j, 0))|`, primal against dual objective.
    pub gap: f64,
}

impl fmt::Display for Certificate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "primal {:.3e}, dual {:.3e}, gap {:.3e}",
            self.primal, self.dual, self.gap
        )
    }
}

/// Why a pair `(x, y)` does not certify. The residual-carrying variants
/// hold all three residuals; the variant names the first one over
/// [`CERTIFICATE_TOL`], in the order primal → dual → gap.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// `x` or `y` has the wrong length for the program.
    Shape {
        /// `"x"` or `"y"`.
        vector: &'static str,
        /// Columns (for `x`) or rows (for `y`) of the program.
        expected: usize,
        /// Length received.
        got: usize,
    },
    /// `x` or `y` holds a NaN or an infinity.
    NonFinite {
        /// `"x"` or `"y"`.
        vector: &'static str,
        /// First offending index.
        index: usize,
    },
    /// A row or a bound is violated: `x` is not a feasible point.
    PrimalInfeasible(Certificate),
    /// A multiplier has the wrong sign for its row, or a reduced cost the
    /// wrong sign for where `x_j` rests: `x` is not optimal, or `y` does
    /// not belong to it.
    DualInfeasible(Certificate),
    /// Both sides are feasible but their objectives differ.
    Gap(Certificate),
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::Shape {
                vector,
                expected,
                got,
            } => {
                write!(f, "{vector} has length {got}, the program needs {expected}")
            }
            CertificateError::NonFinite { vector, index } => {
                write!(f, "{vector}[{index}] is not finite")
            }
            CertificateError::PrimalInfeasible(c) => write!(f, "primal infeasible ({c})"),
            CertificateError::DualInfeasible(c) => write!(f, "dual infeasible ({c})"),
            CertificateError::Gap(c) => write!(f, "duality gap open ({c})"),
        }
    }
}

impl std::error::Error for CertificateError {}

fn check_vector(vector: &'static str, v: &[f64], expected: usize) -> Result<(), CertificateError> {
    if v.len() != expected {
        return Err(CertificateError::Shape {
            vector,
            expected,
            got: v.len(),
        });
    }
    match v.iter().position(|e| !e.is_finite()) {
        Some(index) => Err(CertificateError::NonFinite { vector, index }),
        None => Ok(()),
    }
}

/// Checks that `x` (one value per column) is an optimal point of `lp` and
/// `y` (one multiplier per row) proves it; see the module docs for the
/// three conditions and their scaling. `lp` must pass
/// [`SparseLp::validate`], as it must for the solver.
pub fn certify(lp: &SparseLp, x: &[f64], y: &[f64]) -> Result<Certificate, CertificateError> {
    let (n, m) = (lp.n_vars(), lp.n_rows());
    check_vector("x", x, n)?;
    check_vector("y", y, m)?;
    let c_scale = 1.0 + lp.objective.iter().fold(0.0f64, |s, c| s.max(c.abs()));

    let mut cert = Certificate::default();
    let mut ax = vec![0.0; m];
    let mut primal_objective = 0.0;
    let mut dual_objective = 0.0;
    for (j, &xj) in x.iter().enumerate() {
        let (rows, vals) = lp.a.col(j);
        let u = lp.upper[j];
        let mut d = lp.objective[j];
        for (&r, &v) in rows.iter().zip(vals) {
            ax[r] += v * xj;
            d -= y[r] * v;
        }
        primal_objective += lp.objective[j] * xj;
        let at_lower = xj <= CERTIFICATE_TOL;
        let at_upper = u.is_finite() && xj >= u - CERTIFICATE_TOL * (1.0 + u);
        cert.primal = cert.primal.max(-xj);
        if u.is_finite() {
            cert.primal = cert.primal.max((xj - u) / (1.0 + u));
            dual_objective += u * d.max(0.0);
        }
        let wrong = match (at_lower, at_upper) {
            (true, true) => 0.0,
            (true, false) => d.max(0.0),
            (false, true) => (-d).max(0.0),
            (false, false) => d.abs(),
        };
        cert.dual = cert.dual.max(wrong / c_scale);
    }
    for r in 0..m {
        let (b, over) = (lp.rhs[r], ax[r] - lp.rhs[r]);
        let (violation, wrong_sign) = match lp.rel[r] {
            Relation::Le => (over.max(0.0), (-y[r]).max(0.0)),
            Relation::Ge => ((-over).max(0.0), y[r].max(0.0)),
            Relation::Eq => (over.abs(), 0.0),
        };
        cert.primal = cert.primal.max(violation / (1.0 + b.abs()));
        cert.dual = cert.dual.max(wrong_sign / c_scale);
        dual_objective += y[r] * b;
    }
    cert.gap = (primal_objective - dual_objective).abs() / (1.0 + primal_objective.abs());

    if cert.primal > CERTIFICATE_TOL {
        Err(CertificateError::PrimalInfeasible(cert))
    } else if cert.dual > CERTIFICATE_TOL {
        Err(CertificateError::DualInfeasible(cert))
    } else if cert.gap > CERTIFICATE_TOL || cert.gap.is_nan() {
        Err(CertificateError::Gap(cert))
    } else {
        Ok(cert)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::revised::tests::{mcf, mcf_inputs};
    use crate::revised::{LpOutcome, SparseSimplexSolver};
    use crate::sparse::SparseLpBuilder;

    /// `max 3x + 5y  s.t.  3x + 2y ≤ 18,  x ≤ 4,  y ≤ 6` with its optimum
    /// `x* = (2, 6)` and multiplier `y* = 1`: `d_x = 0` strictly inside
    /// its bounds, `d_y = 3` at its upper bound, both objectives 36.
    fn textbook() -> (SparseLp, Vec<f64>, Vec<f64>) {
        let mut b = SparseLpBuilder::new(1);
        b.set_row(0, Relation::Le, 18.0);
        b.push_col(3.0, 4.0, &[(0, 3.0)]);
        b.push_col(5.0, 6.0, &[(0, 2.0)]);
        (b.build(), vec![2.0, 6.0], vec![1.0])
    }

    #[test]
    fn hand_optimum_certifies_exactly() {
        let (lp, x, y) = textbook();
        assert_eq!(certify(&lp, &x, &y), Ok(Certificate::default()));
    }

    #[test]
    fn infeasible_point_is_refused_as_primal() {
        // The row 3x + 2y ≤ 18 over by 1e-3.
        let (lp, mut x, y) = textbook();
        x[0] += 1e-3 / 3.0;
        match certify(&lp, &x, &y) {
            Err(CertificateError::PrimalInfeasible(c)) => {
                assert!((c.primal - 1e-3 / 19.0).abs() < 1e-12, "{c}")
            }
            other => panic!("{other:?}"),
        }
        // A bound, and the sign constraint, count as well.
        for bad in [[2.0, 6.001], [-0.001, 6.0]] {
            assert!(matches!(
                certify(&lp, &bad, &y),
                Err(CertificateError::PrimalInfeasible(_))
            ));
        }
    }

    #[test]
    fn wrong_signed_multiplier_is_refused_as_dual() {
        let (lp, x, _) = textbook();
        match certify(&lp, &x, &[-1.0]) {
            Err(CertificateError::DualInfeasible(c)) => assert!(c.dual >= 1.0 / 6.0, "{c}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn reduced_cost_on_an_interior_variable_is_refused_as_dual() {
        // y = 1.1 is a feasible multiplier, but it prices x (strictly
        // between its bounds) at d_x = −0.3: (x, y) is not an optimal pair.
        let (lp, x, _) = textbook();
        match certify(&lp, &x, &[1.1]) {
            Err(CertificateError::DualInfeasible(c)) => {
                assert!((c.dual - 0.3 / 6.0).abs() < 1e-12, "{c}")
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn slack_row_with_a_live_multiplier_is_refused_as_gap() {
        // x = (0, 6) is feasible and y = 2.5 dual-feasible for it (d_x < 0
        // at zero, d_y = 0), yet the row is 6 short of tight: the only
        // thing wrong is the 15 between the two objectives.
        let (lp, _, _) = textbook();
        match certify(&lp, &[0.0, 6.0], &[2.5]) {
            Err(CertificateError::Gap(c)) => {
                assert_eq!((c.primal, c.dual), (0.0, 0.0));
                assert!((c.gap - 15.0 / 31.0).abs() < 1e-12, "{c}");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_vectors_are_typed_errors() {
        let (lp, x, y) = textbook();
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(
                certify(&lp, &[2.0, bad], &y),
                Err(CertificateError::NonFinite {
                    vector: "x",
                    index: 1
                })
            );
            assert_eq!(
                certify(&lp, &x, &[bad]),
                Err(CertificateError::NonFinite {
                    vector: "y",
                    index: 0
                })
            );
        }
        assert_eq!(
            certify(&lp, &x[..1], &y),
            Err(CertificateError::Shape {
                vector: "x",
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            certify(&lp, &x, &[1.0, 0.0]),
            Err(CertificateError::Shape {
                vector: "y",
                expected: 1,
                got: 2
            })
        );
    }

    #[test]
    fn static_optimum_padded_onto_the_augmented_program_is_refused() {
        // Theorem 1's G ⊆ G′: the static optimum, fake flows at zero, is a
        // feasible *vertex* of the augmented program — and not its optimum
        // when the fake capacity is worth using. Its own multipliers price
        // a fake column above zero while the column rests at zero.
        let (demands, caps, fakes) = mcf_inputs(5, 3, 1);
        let base = mcf(5, &demands, &caps, &[]);
        let augmented = mcf(5, &demands, &caps, &fakes);
        let mut solver = SparseSimplexSolver::new();
        let LpOutcome::Optimal(first) = solver.solve_sparse(&base) else {
            panic!()
        };
        certify(&base, &first.x, solver.duals()).unwrap();
        let mut x = first.x.clone();
        x.resize(augmented.n_vars(), 0.0);
        let mut y = solver.duals().to_vec();
        y.resize(augmented.n_rows(), 0.0);
        match certify(&augmented, &x, &y) {
            Err(CertificateError::DualInfeasible(c)) => assert!(c.primal <= CERTIFICATE_TOL, "{c}"),
            other => panic!("{other:?}"),
        }
        let LpOutcome::Optimal(second) = solver.solve_sparse(&augmented) else {
            panic!()
        };
        assert!(
            second.objective > first.objective + 1.0,
            "the fake capacity is worth using"
        );
        certify(&augmented, &second.x, solver.duals()).unwrap();
    }

    #[test]
    fn duals_certify_after_every_exit_of_the_solver() {
        // Cold, mapped warm start, fast resolve, dual-repaired fast
        // resolve: the four ways `solve_sparse_with_budget` reaches
        // `Optimal`, each leaving its own multipliers in `duals()`.
        let (demands, caps, fakes) = mcf_inputs(5, 3, 2);
        let mut solver = SparseSimplexSolver::new();
        let mut solve = |lp: &SparseLp| {
            let LpOutcome::Optimal(s) = solver.solve_sparse(lp) else {
                panic!()
            };
            certify(lp, &s.x, solver.duals()).unwrap_or_else(|e| panic!("{e}"));
            solver.stats()
        };
        let cold = solve(&mcf(5, &demands, &caps, &[]));
        assert_eq!((cold.cold_solves, cold.warm_attempts), (1, 0));
        let mapped = solve(&mcf(5, &demands, &caps, &fakes));
        assert_eq!(
            (mapped.warm_hits, mapped.refactorizations),
            (1, cold.refactorizations + 1)
        );
        // Demands drift up: rhs only, the retained vertex stays feasible.
        let grown: Vec<f64> = demands.iter().map(|d| d * 1.05).collect();
        let fast = solve(&mcf(5, &grown, &caps, &fakes));
        assert_eq!(
            (fast.warm_hits, fast.refactorizations),
            (2, mapped.refactorizations)
        );
        assert_eq!(fast.repair_pivots, 0);
        // Capacities collapse under the flows the vertex carries.
        let cut: Vec<f64> = caps.iter().map(|c| c * 0.6).collect();
        let cut_fakes: Vec<(usize, f64)> = fakes.iter().map(|&(e, c)| (e, c * 0.6)).collect();
        let repaired = solve(&mcf(5, &grown, &cut, &cut_fakes));
        assert_eq!(
            (repaired.warm_hits, repaired.cold_solves),
            (3, 1),
            "{repaired:?}"
        );
        assert!(
            repaired.repair_pivots > 0 && repaired.repair_aborts == 0,
            "{repaired:?}"
        );
    }
}
