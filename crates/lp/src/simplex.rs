//! Two-phase dense tableau simplex — the test oracle.
//!
//! Compiled only under `#[cfg(test)]`, inside this crate: the shipped
//! engine is [`crate::revised`], and an optimal outcome of it is proved by
//! [`crate::certificate::certify`], not by agreement with a second
//! solver. What a certificate cannot say is that a program has *no*
//! optimum; this tableau is the independent implementation the revised
//! simplex is compared against on `Infeasible` / `Unbounded` (and, while
//! it is there, on the objective) over random programs.
//!
//! It is deliberately cold: every solve loads the program and runs Phase I
//! and Phase II from the slack/artificial basis. No warm start, no
//! watchdog, no retained state — an oracle with nothing to get stale.
//! Pivot selection is Dantzig's rule with a numerically stable ratio test
//! (ties broken by the largest pivot magnitude, pivot elements below
//! `PIVOT_TOL` never eligible); a long degenerate streak switches to
//! Bland's rule, and a pivot budget turns a residual stall into
//! [`LpOutcome::Stalled`].

use crate::model::{LinearProgram, Relation};
use crate::revised::{LpOutcome, Solution};

const TOL: f64 = 1e-9;
/// Minimum magnitude for a ratio-test pivot element.
const PIVOT_TOL: f64 = 1e-7;
/// Consecutive non-improving pivots before switching to Bland's rule.
const DEGENERATE_STREAK: u64 = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OptimiseOutcome {
    Optimal,
    Unbounded,
    Stalled,
}

/// The dense tableau and its scratch buffers.
#[derive(Debug, Clone, Default)]
pub struct SimplexSolver {
    /// Row-major m × n_total constraint matrix.
    a: Vec<f64>,
    /// Right-hand sides (≥ 0 after normalisation).
    b: Vec<f64>,
    /// Reduced-cost row, length n_total.
    obj: Vec<f64>,
    /// Current objective value.
    obj_val: f64,
    /// basis[row] = column index of the basic variable.
    basis: Vec<usize>,
    /// Columns eligible to enter (artificials are frozen in Phase II).
    allowed: Vec<bool>,
    /// Scratch copy of the pivot row (lets row updates iterate two
    /// disjoint slices without re-borrowing the tableau).
    pivot_row: Vec<f64>,
    /// Artificial column indices of the current layout.
    artificial_cols: Vec<usize>,
    n: usize,
    m: usize,
    n_total: usize,
}

impl SimplexSolver {
    /// An empty tableau.
    pub fn new() -> Self {
        Self::default()
    }

    /// Solves `lp` from scratch with the default pivot budget.
    pub fn solve(&mut self, lp: &LinearProgram) -> LpOutcome {
        let m = lp.n_constraints() as u64;
        let n = lp.n_vars() as u64;
        // Generous: typical solves take O(m) pivots; the budget only
        // trips on numerical stalls or adversarial degeneracy.
        self.solve_with_budget(lp, 100_000u64.max(50 * (m + n)))
    }

    /// Solves `lp` from scratch with an explicit per-phase pivot budget.
    pub fn solve_with_budget(&mut self, lp: &LinearProgram, max_pivots: u64) -> LpOutcome {
        lp.validate().expect("invalid LP");
        self.load(lp);
        self.cold(lp, max_pivots)
    }

    /// Lowers `lp` into the flat tableau: normalises negative rhs rows by
    /// negation (coefficients are copied straight out of the borrowed
    /// constraints — no per-constraint clone), assigns slack/surplus/
    /// artificial columns and the initial (slack + artificial) basis.
    fn load(&mut self, lp: &LinearProgram) {
        let n = lp.n_vars();
        let m = lp.n_constraints();
        self.n = n;
        self.m = m;
        // Relation per row once a negative rhs has been negated away.
        let layout: Vec<Relation> = lp
            .constraints
            .iter()
            .map(|c| match c.op {
                Relation::Le if c.rhs < 0.0 => Relation::Ge,
                Relation::Ge if c.rhs < 0.0 => Relation::Le,
                op => op,
            })
            .collect();
        let n_slack = layout.iter().filter(|&&op| op == Relation::Le).count();
        let n_surplus = layout.iter().filter(|&&op| op == Relation::Ge).count();
        let n_artificial = layout.iter().filter(|&&op| op != Relation::Le).count();
        let n_total = n + n_slack + n_surplus + n_artificial;
        self.n_total = n_total;

        self.a.clear();
        self.a.resize(m * n_total, 0.0);
        self.b.clear();
        self.b.resize(m, 0.0);
        self.basis.clear();
        self.basis.resize(m, 0);
        self.artificial_cols.clear();
        self.pivot_row.clear();
        self.pivot_row.resize(n_total, 0.0);
        // Sized here for a program with no artificials, where Phase II
        // is the first to price it.
        self.obj.clear();
        self.obj.resize(n_total, 0.0);

        let (mut slack_i, mut surplus_i, mut art_i) = (0, 0, 0);
        for (r, c) in lp.constraints.iter().enumerate() {
            let row = &mut self.a[r * n_total..(r + 1) * n_total];
            let negate = c.rhs < 0.0;
            if negate {
                for (dst, &src) in row[..n].iter_mut().zip(&c.coeffs) {
                    *dst = -src;
                }
            } else {
                row[..n].copy_from_slice(&c.coeffs);
            }
            self.b[r] = c.rhs.abs();
            match layout[r] {
                Relation::Le => {
                    let col = n + slack_i;
                    slack_i += 1;
                    row[col] = 1.0;
                    self.basis[r] = col;
                }
                Relation::Ge => {
                    let scol = n + n_slack + surplus_i;
                    surplus_i += 1;
                    row[scol] = -1.0;
                    let acol = n + n_slack + n_surplus + art_i;
                    art_i += 1;
                    row[acol] = 1.0;
                    self.basis[r] = acol;
                    self.artificial_cols.push(acol);
                }
                Relation::Eq => {
                    let acol = n + n_slack + n_surplus + art_i;
                    art_i += 1;
                    row[acol] = 1.0;
                    self.basis[r] = acol;
                    self.artificial_cols.push(acol);
                }
            }
        }
        self.obj_val = 0.0;
    }

    /// Phase I drives the artificials out, Phase II optimises the real
    /// objective.
    fn cold(&mut self, lp: &LinearProgram, max_pivots: u64) -> LpOutcome {
        if !self.artificial_cols.is_empty() {
            // Phase 1: maximise -(sum of artificials).
            self.obj.clear();
            self.obj.resize(self.n_total, 0.0);
            for i in 0..self.artificial_cols.len() {
                self.obj[self.artificial_cols[i]] = -1.0;
            }
            self.obj_val = 0.0;
            // Price out basic artificials: reduced row = c + Σ(artificial-
            // basic rows), objective value = −Σ of their rhs.
            for r in 0..self.m {
                if self.artificial_cols.contains(&self.basis[r]) {
                    let row = r * self.n_total;
                    for c in 0..self.n_total {
                        self.obj[c] += self.a[row + c];
                    }
                    self.obj_val -= self.b[r];
                }
            }
            self.allowed.clear();
            self.allowed.resize(self.n_total, true);
            match self.optimise(max_pivots) {
                OptimiseOutcome::Optimal => {}
                OptimiseOutcome::Stalled => return LpOutcome::Stalled,
                OptimiseOutcome::Unbounded => unreachable!("phase 1 cannot be unbounded"),
            }
            if self.obj_val < -1e-7 {
                return LpOutcome::Infeasible;
            }
            // Pivot remaining artificials out of the basis where possible.
            let n_real = self.n_total - self.artificial_cols.len();
            for r in 0..self.m {
                if self.artificial_cols.contains(&self.basis[r]) {
                    let row = r * self.n_total;
                    if let Some(col) =
                        (0..n_real).find(|&c| self.a[row + c].abs() > PIVOT_TOL)
                    {
                        self.pivot(r, col);
                    }
                    // Near-zero row: harmless, leave the artificial basic
                    // at value 0 (pivoting on a tiny element would be
                    // worse).
                }
            }
        }
        self.phase_two(lp, max_pivots)
    }

    /// Phase II from the current (feasible) basis: price out the real
    /// objective, optimise with artificials frozen, extract the solution.
    fn phase_two(&mut self, lp: &LinearProgram, max_pivots: u64) -> LpOutcome {
        self.obj.clear();
        self.obj.resize(self.n_total, 0.0);
        self.obj[..self.n].copy_from_slice(&lp.objective);
        self.obj_val = 0.0;
        // Price out the current basis.
        for r in 0..self.m {
            let bc = self.basis[r];
            let coeff = self.obj[bc];
            if coeff.abs() > TOL {
                let row = r * self.n_total;
                for c in 0..self.n_total {
                    self.obj[c] -= coeff * self.a[row + c];
                }
                self.obj_val += coeff * self.b[r];
            }
        }
        self.allowed.clear();
        self.allowed.resize(self.n_total, true);
        for i in 0..self.artificial_cols.len() {
            self.allowed[self.artificial_cols[i]] = false;
        }
        match self.optimise(max_pivots) {
            OptimiseOutcome::Optimal => {}
            OptimiseOutcome::Stalled => return LpOutcome::Stalled,
            OptimiseOutcome::Unbounded => return LpOutcome::Unbounded,
        }

        let mut x = vec![0.0; self.n];
        for r in 0..self.m {
            if self.basis[r] < self.n {
                x[self.basis[r]] = self.b[r];
            }
        }
        LpOutcome::Optimal(Solution { x, objective: self.obj_val })
    }

    /// One Gauss-Jordan pivot on (row, col) over the flat tableau.
    fn pivot(&mut self, row: usize, col: usize) {
        let nt = self.n_total;
        let start = row * nt;
        let p = self.a[start + col];
        debug_assert!(p.abs() > TOL, "pivot on ~zero element");
        for x in &mut self.a[start..start + nt] {
            *x /= p;
        }
        self.b[row] /= p;
        // Snapshot the normalised pivot row so other rows can be updated
        // with plain disjoint slice iteration.
        self.pivot_row.copy_from_slice(&self.a[start..start + nt]);
        let pivot_b = self.b[row];
        for r in 0..self.m {
            if r == row {
                continue;
            }
            let rstart = r * nt;
            let factor = self.a[rstart + col];
            if factor.abs() > TOL {
                for (x, &pv) in
                    self.a[rstart..rstart + nt].iter_mut().zip(&self.pivot_row)
                {
                    *x -= factor * pv;
                }
                self.b[r] -= factor * pivot_b;
                if self.b[r] < 0.0 && self.b[r] > -TOL {
                    self.b[r] = 0.0;
                }
            }
        }
        let factor = self.obj[col];
        if factor.abs() > TOL {
            for (o, &pv) in self.obj.iter_mut().zip(&self.pivot_row) {
                *o -= factor * pv;
            }
            // Entering `factor > 0` worth of reduced cost at level b[row]
            // raises the objective.
            self.obj_val += factor * pivot_b;
        }
        self.basis[row] = col;
    }

    /// Runs simplex to optimality (maximisation: stop when all reduced
    /// costs ≤ tol). `self.allowed` masks columns eligible to enter;
    /// `max_pivots` bounds the total work.
    fn optimise(&mut self, max_pivots: u64) -> OptimiseOutcome {
        let nt = self.n_total;
        let mut pivots = 0u64;
        let mut degenerate_streak = 0u64;
        loop {
            pivots += 1;
            if pivots > max_pivots {
                return OptimiseOutcome::Stalled;
            }
            // Entering column: Dantzig (largest reduced cost) normally;
            // Bland (lowest index) after a long degenerate streak, for
            // its termination guarantee.
            let bland = degenerate_streak >= DEGENERATE_STREAK;
            let mut col: Option<usize> = None;
            for (c, &ok) in self.allowed.iter().enumerate().take(nt) {
                if ok && self.obj[c] > TOL {
                    if bland {
                        col = Some(c);
                        break;
                    }
                    if col.is_none_or(|best| self.obj[c] > self.obj[best]) {
                        col = Some(c);
                    }
                }
            }
            let Some(col) = col else {
                return OptimiseOutcome::Optimal;
            };
            // Ratio test. Pivot elements below PIVOT_TOL are ineligible:
            // a degenerate pivot on a near-zero element blows the tableau
            // up numerically. Ties on the minimum ratio go to the row
            // with the largest pivot magnitude (or lowest basis index
            // under Bland).
            let mut best: Option<(f64, usize)> = None;
            for r in 0..self.m {
                let p = self.a[r * nt + col];
                if p > PIVOT_TOL {
                    let ratio = self.b[r] / p;
                    let better = match best {
                        None => true,
                        Some((br, brow)) => {
                            ratio < br - TOL
                                || (ratio < br + TOL
                                    && if bland {
                                        self.basis[r] < self.basis[brow]
                                    } else {
                                        p > self.a[brow * nt + col]
                                    })
                        }
                    };
                    if better {
                        best = Some((ratio, r));
                    }
                }
            }
            let Some((ratio, row)) = best else {
                // No eligible pivot row. If some column entries are in the
                // numerically grey zone (TOL, PIVOT_TOL] we cannot honestly
                // certify unboundedness; call it a stall.
                if (0..self.m).any(|r| self.a[r * nt + col] > TOL) {
                    return OptimiseOutcome::Stalled;
                }
                return OptimiseOutcome::Unbounded;
            };
            if ratio.abs() <= TOL {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
            self.pivot(row, col);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LpBuilder;

    /// The tableau itself, one-shot: these tests keep the oracle honest.
    fn solve(lp: &LinearProgram) -> LpOutcome {
        SimplexSolver::new().solve(lp)
    }

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    #[test]
    fn textbook_two_var() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 → x=2, y=6, z=36.
        let mut b = LpBuilder::new();
        let x = b.add_var(3.0);
        let y = b.add_var(5.0);
        b.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        b.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        b.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 36.0);
        assert_near(s.x[0], 2.0);
        assert_near(s.x[1], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // max x + y st x + y = 5, x <= 3 → z = 5 (x=3,y=2 or any split).
        let mut b = LpBuilder::new();
        let x = b.add_var(1.0);
        let y = b.add_var(1.0);
        b.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
        b.add_constraint(&[(x, 1.0)], Relation::Le, 3.0);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 5.0);
        assert_near(s.x[0] + s.x[1], 5.0);
    }

    #[test]
    fn ge_constraints() {
        // min x + 2y st x + y >= 4, y >= 1 (as max of negation)
        // → x=3, y=1, cost 5.
        let mut b = LpBuilder::new();
        let x = b.add_var(-1.0);
        let y = b.add_var(-2.0);
        b.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
        b.add_constraint(&[(y, 1.0)], Relation::Ge, 1.0);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, -5.0);
        assert_near(s.x[0], 3.0);
        assert_near(s.x[1], 1.0);
    }

    #[test]
    fn infeasible_detected() {
        // x <= 1 and x >= 2.
        let mut b = LpBuilder::new();
        let x = b.add_var(1.0);
        b.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        b.add_constraint(&[(x, 1.0)], Relation::Ge, 2.0);
        assert_eq!(solve(&b.build()), LpOutcome::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut b = LpBuilder::new();
        let x = b.add_var(1.0);
        b.add_constraint(&[(x, -1.0)], Relation::Le, 1.0);
        assert_eq!(solve(&b.build()), LpOutcome::Unbounded);
    }

    #[test]
    fn negative_rhs_normalised() {
        // -x <= -2 means x >= 2; max -x → x = 2.
        let mut b = LpBuilder::new();
        let x = b.add_var(-1.0);
        b.add_constraint(&[(x, -1.0)], Relation::Le, -2.0);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.x[0], 2.0);
        assert_near(s.objective, -2.0);
    }

    #[test]
    fn degenerate_vertices_terminate() {
        // Classic degeneracy: redundant constraints meeting at a vertex.
        let mut b = LpBuilder::new();
        let x = b.add_var(1.0);
        let y = b.add_var(1.0);
        b.add_constraint(&[(x, 1.0)], Relation::Le, 1.0);
        b.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
        b.add_constraint(&[(x, 2.0), (y, 1.0)], Relation::Le, 2.0);
        b.add_constraint(&[(y, 1.0)], Relation::Le, 1.0);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 1.0);
    }

    #[test]
    fn zero_objective_finds_feasible_point() {
        let mut b = LpBuilder::new();
        let x = b.add_var(0.0);
        b.add_constraint(&[(x, 1.0)], Relation::Eq, 7.0);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.x[0], 7.0);
        assert_near(s.objective, 0.0);
    }

    #[test]
    fn solution_satisfies_all_constraints() {
        // Random-ish LP; verify feasibility of the returned point.
        let mut b = LpBuilder::new();
        let vars: Vec<usize> = (0..4).map(|i| b.add_var([2.0, -1.0, 3.0, 0.5][i])).collect();
        b.add_constraint(&[(vars[0], 1.0), (vars[1], 1.0), (vars[2], 1.0)], Relation::Le, 10.0);
        b.add_constraint(&[(vars[2], 1.0), (vars[3], 2.0)], Relation::Le, 8.0);
        b.add_constraint(&[(vars[0], 1.0), (vars[3], -1.0)], Relation::Ge, 1.0);
        b.add_constraint(&[(vars[1], 1.0), (vars[2], 1.0)], Relation::Eq, 4.0);
        let lp = b.build();
        let s = solve(&lp).expect_optimal();
        for c in &lp.constraints {
            let lhs: f64 = c.coeffs.iter().zip(&s.x).map(|(a, x)| a * x).sum();
            match c.op {
                Relation::Le => assert!(lhs <= c.rhs + 1e-6, "{lhs} <= {}", c.rhs),
                Relation::Ge => assert!(lhs >= c.rhs - 1e-6, "{lhs} >= {}", c.rhs),
                Relation::Eq => assert!((lhs - c.rhs).abs() < 1e-6, "{lhs} = {}", c.rhs),
            }
        }
        assert!(s.x.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn maximum_matches_hand_dual() {
        // max 4x + 3y st 2x + y <= 10, x + 3y <= 15 → x=3, y=4, z=24.
        let mut b = LpBuilder::new();
        let x = b.add_var(4.0);
        let y = b.add_var(3.0);
        b.add_constraint(&[(x, 2.0), (y, 1.0)], Relation::Le, 10.0);
        b.add_constraint(&[(x, 1.0), (y, 3.0)], Relation::Le, 15.0);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 24.0);
        assert_near(s.x[0], 3.0);
        assert_near(s.x[1], 4.0);
    }
}
