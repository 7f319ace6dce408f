//! LP certificates: a proof for every verdict the solver reaches but
//! `Stalled`, checked from the solver's own vectors with no second solver.
//!
//! For `max c·x  s.t.  A x {≤,=,≥} b,  0 ≤ x ≤ u`:
//!
//! - **Optimal** — [`certify`]`(lp, x, y)` holds when
//!   1. *primal feasibility*: every row by its relation, `0 ≤ x ≤ u`;
//!   2. *dual feasibility*: `y_r ≥ 0` on `≤` rows, `≤ 0` on `≥` rows, and
//!      the reduced cost `d_j = c_j − y·A_j` is `≤ 0` where `x_j` rests at
//!      zero, `≥ 0` where it rests at `u_j`, and zero strictly between
//!      (the bound status is read off `x` itself, not taken on trust);
//!   3. *no duality gap*: `c·x = y·b + Σ_j u_j·max(d_j, 0)`.
//! - **Infeasible** — [`certify_infeasible`]`(lp, y)`, a Farkas vector: the
//!   dual side of 2–3 with `c = 0`. `y` signed by relation as above,
//!   `−y·A_j ≤ 0` wherever `u_j = ∞`, and the *reach*
//!   `y·b + Σ_j u_j·max(−y·A_j, 0) < 0`. Every feasible `x` has
//!   `y·A x ≤ y·b`, yet every `x` in the box has
//!   `y·A x ≥ −Σ_j u_j·max(−y·A_j, 0) > y·b`: no `x` is both.
//! - **Unbounded** — [`certify_unbounded`]`(lp, x, d)`, a ray: `x` feasible,
//!   `d ≥ 0` with `d_j = 0` wherever `u_j` is finite, `A d` `≤ 0`, `≥ 0` or
//!   `= 0` by row relation, and `c·d > 0`: `x + t·d` stays feasible for
//!   every `t ≥ 0` while its objective grows without bound.
//!
//! All three are plain loops over the CSC columns — O(nnz), no
//! factorisation, no solver state — and the first two share the dual-side
//! loop. Residuals are *relative*. [`certify`] scales rows to `1 + |b_r|`,
//! bounds to `1 + u_j`, multipliers and reduced costs to `1 + ‖c‖∞`, and
//! the gap to one plus the magnitudes both objectives are summed from:
//! `|c_j·x_j|`, `|y_r·b_r|`, and for each bound term `u_j·d_j` the
//! magnitudes `|c_j|` and `|y_r·a_rj|` its reduced cost cancels. The TE
//! objectives weigh their headline quantity at `1e6`, so an absolute
//! tolerance would either refuse every correct solve or accept wrong
//! ones; nor may the gap's scale shrink with `c·x`, since at a zero
//! optimum the bound terms still round to `1e-16·1e6`, not 0. A Farkas
//! vector and a ray have no scale of their own, so each of their sums is
//! measured against `‖y‖∞` (or `‖d‖∞`) plus the magnitudes of its terms:
//! the verdict does not move when either vector is multiplied by a
//! positive constant.

use crate::sparse::{Relation, SparseLp};
use std::fmt;

/// Largest relative residual a certificate may carry. The revised simplex
/// lands three to six orders of magnitude below it on every TE fixture.
pub const CERTIFICATE_TOL: f64 = 1e-9;

/// The worst relative residuals of a checked certificate and its
/// objective test.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Certificate {
    /// Worst row or bound violation: of `x`, and for a ray of `d` as well.
    pub primal: f64,
    /// Worst multiplier-sign or reduced-cost violation.
    pub dual: f64,
    /// The objective test, relative. [`certify`]: the duality gap
    /// `|c·x − (y·b + Σ u_j·max(d_j, 0))|` over the magnitudes both sides
    /// are summed from, at most the tolerance.
    /// [`certify_infeasible`]: the reach, below minus the tolerance.
    /// [`certify_unbounded`]: the ascent `c·d`, above the tolerance.
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

/// Why a certificate is refused. The residual-carrying variants hold all
/// three residuals; the variant names the first test that failed, in the
/// order primal → dual → objective.
#[derive(Debug, Clone, PartialEq)]
pub enum CertificateError {
    /// A vector has the wrong length for the program.
    Shape {
        /// `"x"`, `"y"` or `"d"`.
        vector: &'static str,
        /// Columns (for `x`, `d`) or rows (for `y`) of the program.
        expected: usize,
        /// Length received.
        got: usize,
    },
    /// A vector holds a NaN or an infinity.
    NonFinite {
        /// `"x"`, `"y"` or `"d"`.
        vector: &'static str,
        /// First offending index.
        index: usize,
    },
    /// A row or a bound is violated: `x` is not a feasible point, or `x + t·d`
    /// leaves the feasible set.
    PrimalInfeasible(Certificate),
    /// A multiplier has the wrong sign for its row, or a reduced cost the
    /// wrong sign for where `x_j` rests (for a Farkas vector: is positive
    /// on a column without an upper bound).
    DualInfeasible(Certificate),
    /// Both sides are feasible but their objectives differ.
    Gap(Certificate),
    /// The reach of a Farkas vector is not negative: `y` does not separate
    /// `b` from what `0 ≤ x ≤ u` can reach, so it proves nothing.
    NotSeparating(Certificate),
    /// `c·d` is not positive: moving along the ray does not raise the
    /// objective.
    NoAscent(Certificate),
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
            CertificateError::NotSeparating(c) => write!(f, "reach not negative ({c})"),
            CertificateError::NoAscent(c) => write!(f, "ray does not ascend ({c})"),
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

/// `‖v‖∞`, never zero, so that it can divide.
fn scale_of(v: &[f64]) -> f64 {
    v.iter().fold(f64::MIN_POSITIVE, |s, e| s.max(e.abs()))
}

/// How far a row whose `a·x − b` is `over` breaks `rel`.
fn violation(rel: Relation, over: f64) -> f64 {
    match rel {
        Relation::Le => over.max(0.0),
        Relation::Ge => (-over).max(0.0),
        Relation::Eq => over.abs(),
    }
}

/// Scatters `x_j·A_j` into `ax` and returns how far `x_j` leaves
/// `[0, u_j]`, relative to `1 + u_j`. Inlined for the reason
/// [`dual_side`] is.
#[inline(always)]
fn primal_column(lp: &SparseLp, j: usize, xj: f64, ax: &mut [f64]) -> f64 {
    let (rows, vals) = lp.a.col(j);
    for (&r, &v) in rows.iter().zip(vals) {
        ax[r] += v * xj;
    }
    let u = lp.upper[j];
    if u.is_finite() {
        (-xj).max((xj - u) / (1.0 + u))
    } else {
        -xj
    }
}

/// Worst row violation of a point whose `A x` is `ax`, relative to
/// `1 + |b_r|`.
fn primal_rows(lp: &SparseLp, ax: &[f64]) -> f64 {
    ax.iter().enumerate().fold(0.0f64, |worst, (r, &a)| {
        let b = lp.rhs[r];
        worst.max(violation(lp.rel[r], a - b) / (1.0 + b.abs()))
    })
}

/// The dual side of a program, as [`dual_side`] measures it.
struct DualSide {
    /// Worst wrong-signed multiplier, absolute.
    wrong_sign: f64,
    /// The dual objective `y·b + Σ_j u_j·max(d_j, 0)`.
    objective: f64,
    /// The sum of the magnitudes of `objective`'s terms.
    magnitude: f64,
    /// `magnitude` with each bound term `u_j·d_j` counted at the
    /// magnitudes its reduced cost is summed from,
    /// `u_j·(|c_j| + Σ_r |y_r·a_rj|)`: what rounding in `objective` scales
    /// with when `d_j` cancels large numbers.
    summands: f64,
}

/// What [`certify`] (objective `c`) and [`certify_infeasible`] (`c = 0`,
/// `objective` is `None`) share: one walk over the columns, handing
/// `column(j, d_j)` each reduced cost `d_j = c_j − y·A_j`, then one over
/// the rows. Inlined so that the closure's accumulators stay in
/// registers: as a call it costs `certify` a quarter of its time.
#[inline(always)]
fn dual_side(
    lp: &SparseLp,
    objective: Option<&[f64]>,
    y: &[f64],
    mut column: impl FnMut(usize, f64),
) -> DualSide {
    let mut side = DualSide {
        wrong_sign: 0.0,
        objective: 0.0,
        magnitude: 0.0,
        summands: 0.0,
    };
    for j in 0..lp.n_vars() {
        let (rows, vals) = lp.a.col(j);
        let mut d = objective.map_or(0.0, |c| c[j]);
        let mut terms = d.abs();
        for (&r, &v) in rows.iter().zip(vals) {
            d -= y[r] * v;
            terms += (y[r] * v).abs();
        }
        let u = lp.upper[j];
        if u.is_finite() {
            side.objective += u * d.max(0.0);
            side.magnitude += u * d.max(0.0);
            if d > 0.0 {
                side.summands += u * terms;
            }
        }
        column(j, d);
    }
    for (r, &yr) in y.iter().enumerate() {
        let wrong = match lp.rel[r] {
            Relation::Le => (-yr).max(0.0),
            Relation::Ge => yr.max(0.0),
            Relation::Eq => 0.0,
        };
        side.wrong_sign = side.wrong_sign.max(wrong);
        side.objective += yr * lp.rhs[r];
        side.magnitude += (yr * lp.rhs[r]).abs();
        side.summands += (yr * lp.rhs[r]).abs();
    }
    side
}

/// Checks that `x` (one value per column) is an optimal point of `lp` and
/// `y` (one multiplier per row) proves it; see the module docs for the
/// three conditions and their scaling. `lp` must pass
/// [`SparseLp::validate`], as it must for the solver.
pub fn certify(lp: &SparseLp, x: &[f64], y: &[f64]) -> Result<Certificate, CertificateError> {
    check_vector("x", x, lp.n_vars())?;
    check_vector("y", y, lp.n_rows())?;
    let c_scale = 1.0 + lp.objective.iter().fold(0.0f64, |s, c| s.max(c.abs()));
    let mut ax = vec![0.0; lp.n_rows()];
    let (mut primal, mut dual) = (0.0f64, 0.0f64);
    let (mut primal_objective, mut primal_summands) = (0.0, 0.0);
    let side = dual_side(lp, Some(&lp.objective), y, |j, d| {
        let (xj, u) = (x[j], lp.upper[j]);
        primal = primal.max(primal_column(lp, j, xj, &mut ax));
        primal_objective += lp.objective[j] * xj;
        primal_summands += (lp.objective[j] * xj).abs();
        let at_lower = xj <= CERTIFICATE_TOL;
        let at_upper = u.is_finite() && xj >= u - CERTIFICATE_TOL * (1.0 + u);
        let wrong = match (at_lower, at_upper) {
            (true, true) => 0.0,
            (true, false) => d.max(0.0),
            (false, true) => (-d).max(0.0),
            (false, false) => d.abs(),
        };
        dual = dual.max(wrong / c_scale);
    });
    let primal = primal.max(primal_rows(lp, &ax));
    let cert = Certificate {
        primal,
        dual: dual.max(side.wrong_sign / c_scale),
        gap: (primal_objective - side.objective).abs()
            / (1.0 + primal_summands + side.summands),
    };
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

/// Checks that `y` (one multiplier per row) is a Farkas vector proving
/// `lp` has no feasible point; see the module docs. Signs are measured
/// against `‖y‖∞` plus the magnitudes of the column's terms `|y_r·a_rj|`,
/// the reach against the magnitudes of its own terms.
pub fn certify_infeasible(lp: &SparseLp, y: &[f64]) -> Result<Certificate, CertificateError> {
    check_vector("y", y, lp.n_rows())?;
    let scale = scale_of(y);
    let mut dual = 0.0f64;
    let side = dual_side(lp, None, y, |j, d| {
        if lp.upper[j].is_infinite() && d > 0.0 {
            let (rows, vals) = lp.a.col(j);
            let terms: f64 = rows.iter().zip(vals).map(|(&r, &v)| (y[r] * v).abs()).sum();
            dual = dual.max(d / (scale + terms));
        }
    });
    let reach = if side.magnitude > 0.0 {
        side.objective / side.magnitude
    } else {
        0.0
    };
    let cert = Certificate {
        primal: 0.0,
        dual: dual.max(side.wrong_sign / scale),
        gap: reach,
    };
    if cert.dual > CERTIFICATE_TOL {
        Err(CertificateError::DualInfeasible(cert))
    } else if cert.gap >= -CERTIFICATE_TOL || cert.gap.is_nan() {
        Err(CertificateError::NotSeparating(cert))
    } else {
        Ok(cert)
    }
}

/// Checks that `x` is a feasible point of `lp` and `d` (one entry per
/// column) a ray from it along which the objective grows without bound;
/// see the module docs. `x` is scaled as in [`certify`]; the bounds on `d`
/// against `‖d‖∞`, each row of `A d` and the ascent `c·d` against `‖d‖∞`
/// plus the magnitudes of their terms.
pub fn certify_unbounded(
    lp: &SparseLp,
    x: &[f64],
    d: &[f64],
) -> Result<Certificate, CertificateError> {
    check_vector("x", x, lp.n_vars())?;
    check_vector("d", d, lp.n_vars())?;
    let scale = scale_of(d);
    let mut ax = vec![0.0; lp.n_rows()];
    let mut ad = vec![0.0; lp.n_rows()];
    let mut ad_terms = vec![0.0; lp.n_rows()];
    let (mut primal, mut ascent, mut ascent_terms) = (0.0f64, 0.0, 0.0);
    for (j, &dj) in d.iter().enumerate() {
        primal = primal.max(primal_column(lp, j, x[j], &mut ax));
        let (rows, vals) = lp.a.col(j);
        for (&r, &v) in rows.iter().zip(vals) {
            ad[r] += v * dj;
            ad_terms[r] += (v * dj).abs();
        }
        ascent += lp.objective[j] * dj;
        ascent_terms += (lp.objective[j] * dj).abs();
        let off_bounds = if lp.upper[j].is_finite() {
            dj.abs()
        } else {
            (-dj).max(0.0)
        };
        primal = primal.max(off_bounds / scale);
    }
    primal = primal.max(primal_rows(lp, &ax));
    for (r, (&a, &terms)) in ad.iter().zip(&ad_terms).enumerate() {
        primal = primal.max(violation(lp.rel[r], a) / (scale + terms));
    }
    let cert = Certificate {
        primal,
        dual: 0.0,
        gap: ascent / (scale + ascent_terms),
    };
    if cert.primal > CERTIFICATE_TOL {
        Err(CertificateError::PrimalInfeasible(cert))
    } else if cert.gap <= CERTIFICATE_TOL || cert.gap.is_nan() {
        Err(CertificateError::NoAscent(cert))
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
        // thing wrong is the 15 between the two objectives, 30 and 45,
        // each a single term (no bound term: d_y is not positive).
        let (lp, _, _) = textbook();
        match certify(&lp, &[0.0, 6.0], &[2.5]) {
            Err(CertificateError::Gap(c)) => {
                assert_eq!((c.primal, c.dual), (0.0, 0.0));
                assert!((c.gap - 15.0 / (1.0 + 30.0 + 45.0)).abs() < 1e-12, "{c}");
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

    /// `x ≤ 1, x + z ≥ 6` with `z ≤ 3` and `x` unbounded: `x + z` reaches 4
    /// at most. `y = (1, −1)` prices `x` at 0 and `z` at 1, so its reach is
    /// `y·b + 3·1 = −5 + 3 = −2`, over the magnitudes `1 + 6 + 3`.
    fn stranded(rhs: f64) -> (SparseLp, Vec<f64>) {
        let mut b = SparseLpBuilder::new(2);
        b.set_row(0, Relation::Le, 1.0);
        b.set_row(1, Relation::Ge, rhs);
        b.push_col(0.0, f64::INFINITY, &[(0, 1.0), (1, 1.0)]);
        b.push_col(0.0, 3.0, &[(1, 1.0)]);
        (b.build(), vec![1.0, -1.0])
    }

    #[test]
    fn hand_farkas_vector_certifies() {
        let (lp, y) = stranded(6.0);
        let proof = certify_infeasible(&lp, &y).unwrap();
        assert_eq!((proof.primal, proof.dual), (0.0, 0.0));
        assert!((proof.gap + 0.2).abs() < 1e-15, "{proof}");
        // Any positive multiple proves the same.
        assert_eq!(certify_infeasible(&lp, &[1e6, -1e6]), Ok(proof));
    }

    #[test]
    fn tampered_farkas_vectors_are_refused() {
        let (lp, _) = stranded(6.0);
        // A flipped sign on the `≤` row.
        assert!(matches!(
            certify_infeasible(&lp, &[-1.0, -1.0]),
            Err(CertificateError::DualInfeasible(c)) if c.dual == 1.0
        ));
        // Right signs, but prices the unbounded `x` above zero: x → ∞
        // escapes the bound the reach assumes.
        assert!(matches!(
            certify_infeasible(&lp, &[0.0, -1.0]),
            Err(CertificateError::DualInfeasible(_))
        ));
        // y = 0, and a program that is feasible after all (x + z ≥ 4).
        for (rhs, y) in [(6.0, [0.0, 0.0]), (4.0, [1.0, -1.0])] {
            let (lp, _) = stranded(rhs);
            assert!(matches!(
                certify_infeasible(&lp, &y),
                Err(CertificateError::NotSeparating(c)) if c.gap == 0.0
            ));
        }
    }

    /// `max 2x − w  s.t.  x − w ≤ 1,  x + z ≥ 1` with `z ≤ 2`: from
    /// `x = (1, 0, 0)` the ray `d = (1, 0, 1)` keeps both rows and every
    /// bound and gains `c·d = 1` per step, over the magnitudes `1 + 2 + 1`.
    fn runaway() -> (SparseLp, Vec<f64>, Vec<f64>) {
        let mut b = SparseLpBuilder::new(2);
        b.set_row(0, Relation::Le, 1.0);
        b.set_row(1, Relation::Ge, 1.0);
        b.push_col(2.0, f64::INFINITY, &[(0, 1.0), (1, 1.0)]);
        b.push_col(0.0, 2.0, &[(1, 1.0)]);
        b.push_col(-1.0, f64::INFINITY, &[(0, -1.0)]);
        (b.build(), vec![1.0, 0.0, 0.0], vec![1.0, 0.0, 1.0])
    }

    #[test]
    fn hand_ray_certifies() {
        let (lp, x, d) = runaway();
        let proof = certify_unbounded(&lp, &x, &d).unwrap();
        assert_eq!((proof.primal, proof.dual, proof.gap), (0.0, 0.0, 0.25));
        assert_eq!(certify_unbounded(&lp, &x, &[3.0, 0.0, 3.0]), Ok(proof));
    }

    #[test]
    fn tampered_rays_are_refused() {
        let (lp, x, _) = runaway();
        let refused = |d: &[f64]| certify_unbounded(&lp, &x, d).unwrap_err();
        // w outruns x: feasible, but c·d = 0.
        assert!(matches!(refused(&[1.0, 0.0, 2.0]), CertificateError::NoAscent(c) if c.gap == 0.0));
        // z has a finite bound, so it cannot move along a ray.
        assert!(matches!(
            refused(&[1.0, 1.0, 1.0]),
            CertificateError::PrimalInfeasible(c) if c.primal == 1.0
        ));
        // A flipped sign, and a direction that breaks the `≤` row.
        for d in [[-1.0, 0.0, -1.0], [1.0, 0.0, 0.0]] {
            assert!(matches!(refused(&d), CertificateError::PrimalInfeasible(_)));
        }
        // The start is not feasible.
        assert!(matches!(
            certify_unbounded(&lp, &[2.0, 0.0, 0.0], &[1.0, 0.0, 1.0]),
            Err(CertificateError::PrimalInfeasible(_))
        ));
    }

    #[test]
    fn malformed_proofs_are_typed_errors() {
        let (lp, _) = stranded(6.0);
        assert_eq!(
            certify_infeasible(&lp, &[1.0]),
            Err(CertificateError::Shape {
                vector: "y",
                expected: 2,
                got: 1
            })
        );
        assert_eq!(
            certify_infeasible(&lp, &[1.0, f64::NAN]),
            Err(CertificateError::NonFinite {
                vector: "y",
                index: 1
            })
        );
        let (lp, x, _) = runaway();
        assert_eq!(
            certify_unbounded(&lp, &x, &[1.0, 0.0]),
            Err(CertificateError::Shape {
                vector: "d",
                expected: 3,
                got: 2
            })
        );
        assert_eq!(
            certify_unbounded(&lp, &x, &[1.0, 0.0, f64::INFINITY]),
            Err(CertificateError::NonFinite {
                vector: "d",
                index: 2
            })
        );
    }
}
