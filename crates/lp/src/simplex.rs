//! Two-phase primal simplex over a flat, reusable tableau, with
//! basis warm-starting.
//!
//! The tableau is a contiguous row-major `Vec<f64>` (one allocation, one
//! cache-friendly stride per row) instead of a `Vec<Vec<f64>>`, and all
//! working storage lives in a [`SimplexSolver`] so repeated solves reuse
//! the same buffers. Pivot selection is Dantzig's rule with a numerically
//! stable ratio test (ties broken by the largest pivot magnitude, and
//! pivot elements below `PIVOT_TOL` are never eligible — a degenerate
//! pivot on a ~1e-9 element scales the whole tableau by ~1e9 and the
//! solve never recovers). A long degenerate streak switches to Bland's
//! rule for its termination guarantee, and a hard pivot budget turns any
//! residual stall into [`LpOutcome::Stalled`] instead of a hang.
//!
//! ## Warm starting
//!
//! A [`SimplexSolver`] remembers the optimal basis of its last solve.
//! When the next LP has the same shape (variable count and normalised
//! constraint relations — the layout that determines the slack/surplus/
//! artificial column assignment), the solver skips Phase I entirely: it
//! refactorises the old basis against the new coefficients (one
//! Gauss-Jordan pass, `m` pivots) and resumes Phase II from there. A
//! basis left primal-infeasible by rhs drift — a capacity dropped below
//! the flow the basis carried — is repaired with dual simplex pivots
//! (the reduced-cost row is still optimal, so feasibility is a handful
//! of pivots away); only a singular or dual-infeasible basis falls back
//! to a cold two-phase solve. Warm and cold solves of the same LP reach the
//! same optimal *objective* (both certify optimality of the same program;
//! the argmax may differ between degenerate vertices), which is the
//! equivalence the round engine's tests pin down to 1e-6.
//!
//! Built for correctness on the small/medium LPs the reproduction
//! cross-validates against (hundreds of variables), not for industrial
//! scale — but the flat tableau and warm starts make the per-round cost
//! of *re*-solving a slowly drifting LP several times cheaper than
//! solving it from scratch.

use crate::model::{LinearProgram, Relation};
use std::time::{Duration, Instant};

const TOL: f64 = 1e-9;
/// Pivots between wall-clock watchdog checks; a power of two so the test
/// compiles to a mask, keeping `Instant::now()` off the per-pivot path.
const WATCHDOG_STRIDE: u64 = 64;
/// Minimum magnitude for a ratio-test pivot element.
const PIVOT_TOL: f64 = 1e-7;
/// Minimum magnitude for a warm-start refactorisation pivot; below this
/// the saved basis is treated as singular and the solve falls back cold.
const REFACTOR_TOL: f64 = 1e-8;
/// Consecutive non-improving pivots before switching to Bland's rule.
const DEGENERATE_STREAK: u64 = 256;
/// Feasibility slack when accepting a refactorised warm basis.
const WARM_FEAS_TOL: f64 = 1e-7;

/// An optimal solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal variable values.
    pub x: Vec<f64>,
    /// Optimal objective value.
    pub objective: f64,
}

/// Outcome of solving an LP.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// An optimum was found.
    Optimal(Solution),
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// The pivot budget ran out before reaching optimality (numerical
    /// stall or pathological degeneracy). Callers should treat this as
    /// a solver failure, not a property of the model.
    Stalled,
}

impl LpOutcome {
    /// Unwraps the optimal solution; panics otherwise.
    pub fn expect_optimal(self) -> Solution {
        match self {
            LpOutcome::Optimal(s) => s,
            other => panic!("expected optimal solution, got {other:?}"),
        }
    }
}

/// Cumulative counters of a [`SimplexSolver`]'s warm-start behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Solves that ran the cold two-phase path (including warm-start
    /// fallbacks).
    pub cold_solves: u64,
    /// Solves that attempted a warm start from the saved basis.
    pub warm_attempts: u64,
    /// Warm attempts that reached optimality without falling back.
    pub warm_hits: u64,
    /// Total pivots performed (both phases, all solves).
    pub pivots: u64,
    /// Solve attempts aborted by the wall-clock watchdog (each warm or
    /// cold attempt that hit its deadline counts once).
    pub watchdog_aborts: u64,
    /// Product-form eta updates pushed between refactorisations (sparse
    /// backend only; the dense tableau has no factorisation to update).
    pub eta_updates: u64,
    /// Basis refactorisations performed (sparse backend only).
    pub refactorizations: u64,
    /// Candidate-list refill scans over the full column set (sparse
    /// backend only; each scan prices up to the whole matrix once).
    pub pricing_scans: u64,
    /// Warm attempts refused because the mapped basis did not factorise
    /// (sparse backend only).
    pub warm_singular: u64,
    /// Dual repairs that started from a dual-feasible basis and gave up —
    /// pivot bound, no eligible pivot, watchdog — after which the solve
    /// goes cold (sparse backend only).
    pub repair_aborts: u64,
    /// Pivots spent inside dual repair; a subset of `pivots` (sparse
    /// backend only).
    pub repair_pivots: u64,
}

impl SolverStats {
    /// Fraction of warm attempts that stuck, in `[0, 1]`.
    pub fn warm_hit_rate(&self) -> f64 {
        if self.warm_attempts == 0 {
            0.0
        } else {
            self.warm_hits as f64 / self.warm_attempts as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OptimiseOutcome {
    Optimal,
    Unbounded,
    Stalled,
}

/// A reusable simplex engine: flat tableau storage, scratch buffers and
/// the last optimal basis all persist across [`SimplexSolver::solve`]
/// calls, so a sequence of similar LPs (one TE round per capacity tick)
/// pays for allocation and Phase I once, not per round.
#[derive(Debug, Clone, Default)]
pub struct SimplexSolver {
    // --- tableau of the solve in flight -----------------------------
    /// Row-major m × n_total constraint matrix.
    a: Vec<f64>,
    /// Right-hand sides (≥ 0 after cold normalisation).
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
    // --- layout ------------------------------------------------------
    n: usize,
    m: usize,
    n_total: usize,
    /// Normalised relation per row (the thing that fixes the column
    /// layout); compared against the saved signature before warm starts.
    layout: Vec<Relation>,
    // --- warm-start state --------------------------------------------
    saved_basis: Vec<usize>,
    saved_layout: Vec<Relation>,
    saved_n: usize,
    has_saved: bool,
    // --- fast-resolve state ------------------------------------------
    /// True while `a`/`basis`/`obj` still hold the final tableau of the
    /// last optimal solve (cleared by `load`, set by a successful
    /// Phase II). With the fingerprint below it enables rhs-only
    /// resolves that skip loading and refactorisation entirely.
    tableau_valid: bool,
    /// Per row, the column that was this row's +1 unit column at load
    /// (slack for ≤ rows, artificial otherwise). In the final tableau
    /// these columns hold `B⁻¹`, which transforms a fresh rhs.
    unit_cols: Vec<usize>,
    /// Raw (un-normalised) coefficients of the last solved LP, flattened
    /// row-major, plus its objective, relations and rhs-sign pattern —
    /// the fingerprint that decides whether only the rhs changed.
    saved_coeffs: Vec<f64>,
    saved_objective: Vec<f64>,
    saved_ops: Vec<Relation>,
    saved_neg: Vec<bool>,
    stats: SolverStats,
    // --- watchdog -----------------------------------------------------
    /// Wall-clock budget per solve *attempt* (fast-resolve, warm, cold
    /// each get a fresh deadline). `None` disables the watchdog.
    solve_timeout: Option<Duration>,
    /// Deadline of the attempt in flight; transient, armed per attempt.
    deadline: Option<Instant>,
    /// The attempt in flight hit its deadline (distinguishes a watchdog
    /// abort from an ordinary pivot-budget stall).
    deadline_hit: bool,
    /// Chaos hook: artificial per-pivot delay, forcing a solve to run
    /// slow enough that the watchdog fires deterministically in tests.
    pivot_delay: Option<Duration>,
}

impl SimplexSolver {
    /// A solver with no saved basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Warm-start counters accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Drops the saved basis; the next solve runs cold.
    pub fn reset(&mut self) {
        self.has_saved = false;
        self.tableau_valid = false;
    }

    /// Arms (or disarms, with `None`) the solve-deadline watchdog: each
    /// solve attempt that runs past `timeout` of wall-clock time is
    /// aborted at the next stride boundary. An aborted *warm* attempt
    /// falls back to a cold solve with a fresh deadline; an aborted cold
    /// solve returns [`LpOutcome::Stalled`], which the TE layer maps to a
    /// typed timeout error instead of hanging the round.
    pub fn set_solve_timeout(&mut self, timeout: Option<Duration>) {
        self.solve_timeout = timeout;
    }

    /// Chaos hook: sleep this long before every pivot, making a solve
    /// arbitrarily slow so watchdog behaviour can be tested
    /// deterministically. `None` (the default) is a no-op.
    pub fn set_pivot_delay(&mut self, delay: Option<Duration>) {
        self.pivot_delay = delay;
    }

    /// Starts a fresh wall-clock budget for the next solve attempt.
    fn arm_deadline(&mut self) {
        self.deadline = self.solve_timeout.map(|t| Instant::now() + t);
        self.deadline_hit = false;
    }

    /// Checks the deadline (called every [`WATCHDOG_STRIDE`] pivots).
    /// Counts each attempt's abort once.
    fn deadline_expired(&mut self) -> bool {
        if self.deadline_hit {
            return true;
        }
        match self.deadline {
            Some(d) if Instant::now() >= d => {
                self.deadline_hit = true;
                self.stats.watchdog_aborts += 1;
                true
            }
            _ => false,
        }
    }

    /// Solves `lp` with the default pivot budget, warm-starting from the
    /// previous solve's basis when the layouts match.
    pub fn solve(&mut self, lp: &LinearProgram) -> LpOutcome {
        let m = lp.n_constraints() as u64;
        let n = lp.n_vars() as u64;
        // Generous: typical solves take O(m) pivots; the budget only
        // trips on numerical stalls or adversarial degeneracy.
        let budget = 100_000u64.max(50 * (m + n));
        self.solve_with_budget(lp, budget)
    }

    /// Solves `lp` with an explicit per-phase pivot budget.
    pub fn solve_with_budget(&mut self, lp: &LinearProgram, max_pivots: u64) -> LpOutcome {
        lp.validate().expect("invalid LP");

        // Fast resolve: when only the rhs changed since the last optimal
        // solve, the final tableau is still a valid factorisation —
        // transform the new rhs through B⁻¹ (read off the unit columns)
        // and repair feasibility, skipping load + refactorisation.
        if self.fast_resolve_applicable(lp) {
            self.arm_deadline();
            self.stats.warm_attempts += 1;
            match self.try_fast_resolve(lp, max_pivots) {
                // A watchdog-aborted fast resolve is a runaway warm
                // attempt: fall through to the warm/cold paths below,
                // each of which re-arms its own deadline.
                Some(LpOutcome::Stalled) if self.deadline_hit => {}
                Some(outcome) => {
                    self.stats.warm_hits += 1;
                    return outcome;
                }
                None => self.stats.warm_attempts -= 1, // retry via full warm path
            }
        }

        self.load(lp);
        if self.warm_applicable() {
            self.arm_deadline();
            self.stats.warm_attempts += 1;
            match self.try_warm(lp, max_pivots) {
                // Runaway warm solve aborted by the watchdog: reload and
                // let the cold path below try with a fresh deadline
                // instead of surfacing the stall.
                Some(LpOutcome::Stalled) if self.deadline_hit => self.load(lp),
                Some(outcome) => {
                    self.stats.warm_hits += 1;
                    self.save_fingerprint(lp);
                    return outcome;
                }
                None => {
                    // Basis singular/infeasible under the new data: the
                    // tableau was mutated mid-refactorisation, reload and
                    // run the cold path.
                    self.load(lp);
                }
            }
        }
        self.arm_deadline();
        let outcome = self.cold(lp, max_pivots);
        self.save_fingerprint(lp);
        outcome
    }

    /// Remembers the raw LP just solved so the next call can detect an
    /// rhs-only change.
    fn save_fingerprint(&mut self, lp: &LinearProgram) {
        self.saved_coeffs.clear();
        for c in &lp.constraints {
            self.saved_coeffs.extend_from_slice(&c.coeffs);
        }
        self.saved_objective.clear();
        self.saved_objective.extend_from_slice(&lp.objective);
        self.saved_ops.clear();
        self.saved_ops.extend(lp.constraints.iter().map(|c| c.op));
        self.saved_neg.clear();
        self.saved_neg.extend(lp.constraints.iter().map(|c| c.rhs < 0.0));
    }

    /// True when the current tableau is a usable factorisation of `lp`:
    /// the last solve was optimal, its basis is artificial-free, and
    /// `lp` differs from the solved LP in rhs only (same coefficients,
    /// objective, relations and rhs-sign pattern).
    fn fast_resolve_applicable(&self, lp: &LinearProgram) -> bool {
        self.tableau_valid
            && self.has_saved
            && lp.n_vars() == self.n
            && lp.n_constraints() == self.m
            && self
                .saved_basis
                .iter()
                .all(|&c| c < self.n_total - self.artificial_cols.len())
            && lp.objective == self.saved_objective
            && lp
                .constraints
                .iter()
                .zip(self.saved_ops.iter().zip(&self.saved_neg))
                .all(|(c, (&op, &neg))| c.op == op && (c.rhs < 0.0) == neg)
            && lp
                .constraints
                .iter()
                .flat_map(|c| c.coeffs.iter())
                .eq(self.saved_coeffs.iter())
    }

    /// Resolves an rhs-only change in place: `b ← B⁻¹·|rhs|`, dual
    /// repair if drift made the basis infeasible, then Phase II (usually
    /// zero pivots — feasible + still-optimal reduced costs). Returns
    /// `None` when repair fails; the caller reloads and solves normally.
    fn try_fast_resolve(&mut self, lp: &LinearProgram, max_pivots: u64) -> Option<LpOutcome> {
        self.tableau_valid = false;
        let nt = self.n_total;
        self.pivot_row[..self.m].fill(0.0);
        for r in 0..self.m {
            let row = r * nt;
            let mut v = 0.0;
            for (i, &uc) in self.unit_cols.iter().enumerate() {
                let rhs = lp.constraints[i].rhs.abs();
                if rhs != 0.0 {
                    v += self.a[row + uc] * rhs;
                }
            }
            self.pivot_row[r] = v;
        }
        self.b.copy_from_slice(&self.pivot_row[..self.m]);
        if self.b.iter().any(|&v| v < -WARM_FEAS_TOL) && !self.dual_repair(lp, max_pivots) {
            return None;
        }
        for v in self.b.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        Some(self.phase_two(lp, max_pivots))
    }

    /// True when a saved basis exists for this exact layout and contains
    /// no artificial columns (an artificial left basic at zero from a
    /// degenerate cold solve cannot seed a Phase-II-only restart).
    fn warm_applicable(&self) -> bool {
        self.has_saved
            && self.saved_n == self.n
            && self.saved_layout == self.layout
            && self
                .saved_basis
                .iter()
                .all(|&c| c < self.n_total - self.artificial_cols.len())
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
        self.layout.clear();
        self.layout.extend(lp.constraints.iter().map(|c| {
            if c.rhs < 0.0 {
                match c.op {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                }
            } else {
                c.op
            }
        }));

        let n_slack = self.layout.iter().filter(|&&op| op == Relation::Le).count();
        let n_surplus = self.layout.iter().filter(|&&op| op == Relation::Ge).count();
        let n_artificial = self.layout.iter().filter(|&&op| op != Relation::Le).count();
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
        // Zeroed here so warm-path refactorisation pivots (which touch
        // the objective row) see a correctly sized buffer; phase II
        // re-prices it from the LP either way.
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
            match self.layout[r] {
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
        // The initial basis columns are exactly the rows' +1 unit
        // columns — the identity whose final-tableau image is B⁻¹.
        self.unit_cols.clear();
        self.unit_cols.extend_from_slice(&self.basis);
        self.tableau_valid = false;
    }

    /// Warm path: refactorise the saved basis against the freshly loaded
    /// tableau and, if it is still primal-feasible, run Phase II only.
    /// Returns `None` when the basis is singular or infeasible (caller
    /// reloads and goes cold). `Unbounded`/`Stalled` from Phase II are
    /// returned as-is — they are properties of the program / the budget,
    /// not of the starting basis.
    fn try_warm(&mut self, lp: &LinearProgram, max_pivots: u64) -> Option<LpOutcome> {
        // Gauss-Jordan with partial pivoting: make each saved basic
        // column a unit column. The saved row↔column association was
        // relative to the *final* tableau of the previous solve and means
        // nothing in the fresh matrix, so for each basic column pick the
        // not-yet-pivoted row with the largest magnitude. If none exceeds
        // the tolerance the basis matrix is singular under the new data.
        let mut row_done = vec![false; self.m];
        for i in 0..self.saved_basis.len() {
            let col = self.saved_basis[i];
            let mut best: Option<(f64, usize)> = None;
            for (r, &done) in row_done.iter().enumerate() {
                if done {
                    continue;
                }
                let p = self.a[r * self.n_total + col].abs();
                if best.is_none_or(|(bp, _)| p > bp) {
                    best = Some((p, r));
                }
            }
            let (p, r) = best?;
            if p < REFACTOR_TOL {
                return None;
            }
            self.pivot(r, col);
            row_done[r] = true;
        }
        // Primal feasibility of the refactorised basis. Mild
        // infeasibility — a capacity that drifted below the flow the old
        // basis carried — is the common case under per-round drift, and
        // the objective row is typically still dual-feasible, so repair
        // it with dual simplex pivots instead of discarding the basis.
        if self.b.iter().any(|&v| v < -WARM_FEAS_TOL) && !self.dual_repair(lp, max_pivots) {
            return None;
        }
        for v in self.b.iter_mut() {
            if *v < 0.0 {
                *v = 0.0;
            }
        }
        Some(self.phase_two(lp, max_pivots))
    }

    /// Dual simplex: restores primal feasibility of a refactorised warm
    /// basis whose reduced-cost row is still optimal (≤ 0 everywhere).
    /// Returns `false` when the basis is not dual-feasible (constraint
    /// coefficients changed, not just the rhs), no pivot is available,
    /// or the budget runs out — callers fall back to a cold solve.
    fn dual_repair(&mut self, lp: &LinearProgram, max_pivots: u64) -> bool {
        let nt = self.n_total;
        // Price the real objective out against the current basis, the
        // same pricing Phase II performs, so the reduced-cost row is
        // available for the dual ratio test.
        self.obj.clear();
        self.obj.resize(nt, 0.0);
        self.obj[..self.n].copy_from_slice(&lp.objective);
        self.obj_val = 0.0;
        for r in 0..self.m {
            let bc = self.basis[r];
            let coeff = self.obj[bc];
            if coeff.abs() > TOL {
                let row = r * nt;
                for c in 0..nt {
                    self.obj[c] -= coeff * self.a[row + c];
                }
                self.obj_val += coeff * self.b[r];
            }
        }
        self.allowed.clear();
        self.allowed.resize(nt, true);
        for i in 0..self.artificial_cols.len() {
            self.allowed[self.artificial_cols[i]] = false;
        }
        if (0..nt).any(|c| self.allowed[c] && self.obj[c] > TOL) {
            return false;
        }
        let mut pivots = 0u64;
        loop {
            // Leaving row: most negative rhs; none left means repaired.
            let mut worst: Option<(f64, usize)> = None;
            for r in 0..self.m {
                if self.b[r] < -WARM_FEAS_TOL
                    && worst.is_none_or(|(bv, _)| self.b[r] < bv)
                {
                    worst = Some((self.b[r], r));
                }
            }
            let Some((_, row)) = worst else {
                return true;
            };
            pivots += 1;
            if pivots > max_pivots {
                return false;
            }
            if let Some(delay) = self.pivot_delay {
                std::thread::sleep(delay);
            }
            // Watchdog: an expired deadline reports the repair as failed,
            // which sends the caller down the cold-fallback path.
            if (self.pivot_delay.is_some() || pivots & (WATCHDOG_STRIDE - 1) == 0)
                && self.deadline_expired()
            {
                return false;
            }
            // Entering column: dual ratio test over strictly negative
            // pivot elements keeps every reduced cost ≤ 0; ties go to
            // the larger pivot magnitude for stability.
            let rstart = row * nt;
            let mut best: Option<(f64, usize)> = None;
            for c in 0..nt {
                if !self.allowed[c] {
                    continue;
                }
                let p = self.a[rstart + c];
                if p < -PIVOT_TOL {
                    let ratio = self.obj[c] / p; // obj ≤ 0, p < 0 → ratio ≥ 0
                    let better = match best {
                        None => true,
                        Some((br, bc)) => {
                            ratio < br - TOL
                                || (ratio < br + TOL && -p > self.a[rstart + bc].abs())
                        }
                    };
                    if better {
                        best = Some((ratio, c));
                    }
                }
            }
            let Some((_, col)) = best else {
                // No negative entry in an infeasible row: the program may
                // be infeasible, but let the cold path certify that.
                return false;
            };
            self.pivot(row, col);
        }
    }

    /// Cold path: Phase I drives the artificials out, Phase II optimises
    /// the real objective. On optimality the basis is saved for the next
    /// warm start.
    fn cold(&mut self, lp: &LinearProgram, max_pivots: u64) -> LpOutcome {
        self.stats.cold_solves += 1;
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
    /// objective, optimise with artificials frozen, extract the solution
    /// and save the basis for the next warm start.
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

        // Save the optimal basis for warm starts; the tableau itself
        // stays valid for rhs-only fast resolves until the next load.
        self.saved_basis.clear();
        self.saved_basis.extend_from_slice(&self.basis);
        self.saved_layout.clear();
        self.saved_layout.extend_from_slice(&self.layout);
        self.saved_n = self.n;
        self.has_saved = true;
        self.tableau_valid = true;

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
        self.stats.pivots += 1;
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
            if let Some(delay) = self.pivot_delay {
                std::thread::sleep(delay);
            }
            // Watchdog: checked every stride (every pivot under a chaos
            // delay, where strides would outlast the test) so a runaway
            // solve becomes a Stalled outcome instead of a hang.
            if (self.pivot_delay.is_some() || pivots & (WATCHDOG_STRIDE - 1) == 0)
                && self.deadline_expired()
            {
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

/// Which simplex core to run. The sparse revised simplex is the default;
/// the dense tableau remains as an escape hatch (and as the oracle the
/// equivalence proptests pin the sparse backend against, to 1e-6).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LpBackend {
    /// Legacy dense tableau: O(m·n) memory and per-pivot work. Exact and
    /// battle-tested, but does not survive large augmented graphs.
    Dense,
    /// Sparse revised simplex: CSC matrix, LU-factorised basis with
    /// product-form eta updates, bounded variables, partial pricing.
    #[default]
    Sparse,
}

/// Solves an LP (maximisation, `x ≥ 0`) with a pivot budget scaled to
/// the problem size, on the default (sparse) backend. One-shot: use a
/// persistent solver to amortise allocation and warm-start.
pub fn solve(lp: &LinearProgram) -> LpOutcome {
    crate::revised::solve(lp)
}

/// Solves an LP (maximisation, `x ≥ 0`) with an explicit per-phase
/// pivot budget on the default (sparse) backend. Returns
/// [`LpOutcome::Stalled`] when the budget runs out, which callers should
/// surface as a solver error.
pub fn solve_with_budget(lp: &LinearProgram, max_pivots: u64) -> LpOutcome {
    crate::revised::solve_with_budget(lp, max_pivots)
}

/// Solves an LP on an explicitly chosen backend, one-shot.
pub fn solve_with_backend(lp: &LinearProgram, backend: LpBackend) -> LpOutcome {
    match backend {
        LpBackend::Dense => SimplexSolver::new().solve(lp),
        LpBackend::Sparse => crate::revised::solve(lp),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LpBuilder;

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

    // --- warm-start behaviour ----------------------------------------

    /// The textbook LP with adjustable rhs values.
    fn textbook(r1: f64, r2: f64, r3: f64) -> LinearProgram {
        let mut b = LpBuilder::new();
        let x = b.add_var(3.0);
        let y = b.add_var(5.0);
        b.add_constraint(&[(x, 1.0)], Relation::Le, r1);
        b.add_constraint(&[(y, 2.0)], Relation::Le, r2);
        b.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, r3);
        b.build()
    }

    #[test]
    fn warm_resolve_matches_cold_after_rhs_drift() {
        let mut solver = SimplexSolver::new();
        solver.solve(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        assert_eq!(solver.stats().cold_solves, 1);
        for (r1, r2, r3) in [(4.5, 11.0, 18.0), (4.0, 12.0, 17.0), (3.0, 13.0, 19.0)] {
            let lp = textbook(r1, r2, r3);
            let warm = solver.solve(&lp).expect_optimal();
            let cold = solve(&lp).expect_optimal();
            assert_near(warm.objective, cold.objective);
        }
        let stats = solver.stats();
        assert_eq!(stats.warm_attempts, 3);
        assert!(stats.warm_hits >= 1, "drifted rhs should keep the basis: {stats:?}");
    }

    #[test]
    fn dual_repair_rescues_rhs_only_drift() {
        // Pure rhs drift leaves the basis dual-feasible: the warm path
        // must repair it with dual pivots instead of going cold.
        let mut solver = SimplexSolver::new();
        solver.solve(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        // x's capacity collapses below the x=2 the old basis carried.
        let lp = textbook(1.0, 12.0, 18.0);
        let warm = solver.solve(&lp).expect_optimal();
        let cold = solve(&lp).expect_optimal();
        assert_near(warm.objective, cold.objective);
        let stats = solver.stats();
        assert_eq!(stats.warm_attempts, 1);
        assert_eq!(stats.warm_hits, 1, "rhs-only drift must stay warm: {stats:?}");
    }

    #[test]
    fn warm_falls_back_when_basis_goes_infeasible() {
        let mut solver = SimplexSolver::new();
        solver.solve(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        // Collapse the capacities: the old vertex (x=2, y=6) is far
        // outside the new polytope, so either the warm basis refactorises
        // infeasible (fallback) or Phase II walks back — the objective
        // must match a cold solve regardless.
        let lp = textbook(0.5, 1.0, 1.0);
        let warm = solver.solve(&lp).expect_optimal();
        let cold = solve(&lp).expect_optimal();
        assert_near(warm.objective, cold.objective);
    }

    #[test]
    fn layout_change_forces_cold_solve() {
        let mut solver = SimplexSolver::new();
        solver.solve(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        // Different shape entirely (extra Ge row): must not warm start.
        let mut b = LpBuilder::new();
        let x = b.add_var(3.0);
        let y = b.add_var(5.0);
        b.add_constraint(&[(x, 1.0)], Relation::Le, 4.0);
        b.add_constraint(&[(y, 2.0)], Relation::Le, 12.0);
        b.add_constraint(&[(x, 3.0), (y, 2.0)], Relation::Le, 18.0);
        b.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Ge, 1.0);
        let lp = b.build();
        let before = solver.stats().warm_attempts;
        let s = solver.solve(&lp).expect_optimal();
        assert_near(s.objective, 36.0);
        assert_eq!(solver.stats().warm_attempts, before, "layout mismatch must skip warm");
        assert_eq!(solver.stats().cold_solves, 2);
    }

    #[test]
    fn warm_resolve_with_equalities() {
        // Equality rows force Phase I on the cold path; the warm path
        // must skip it and still agree.
        let build = |cap: f64| {
            let mut b = LpBuilder::new();
            let x = b.add_var(1.0);
            let y = b.add_var(1.0);
            b.add_constraint(&[(x, 1.0), (y, 1.0)], Relation::Eq, 5.0);
            b.add_constraint(&[(x, 1.0)], Relation::Le, cap);
            b.build()
        };
        let mut solver = SimplexSolver::new();
        let first = solver.solve(&build(3.0)).expect_optimal();
        assert_near(first.objective, 5.0);
        for cap in [2.5, 2.0, 3.5, 1.0] {
            let warm = solver.solve(&build(cap)).expect_optimal();
            let cold = solve(&build(cap)).expect_optimal();
            assert_near(warm.objective, cold.objective);
        }
    }

    #[test]
    fn stats_accumulate_consistently() {
        let mut solver = SimplexSolver::new();
        for i in 0..5 {
            let lp = textbook(4.0 + i as f64 * 0.1, 12.0, 18.0);
            solver.solve(&lp).expect_optimal();
        }
        let stats = solver.stats();
        assert!(stats.warm_hits <= stats.warm_attempts);
        assert_eq!(stats.cold_solves + stats.warm_hits, 5);
        assert!(stats.pivots > 0);
        assert!(stats.warm_hit_rate() >= 0.0 && stats.warm_hit_rate() <= 1.0);
    }

    #[test]
    fn reset_forces_cold() {
        let mut solver = SimplexSolver::new();
        solver.solve(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        solver.reset();
        solver.solve(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        assert_eq!(solver.stats().warm_attempts, 0);
        assert_eq!(solver.stats().cold_solves, 2);
    }

    #[test]
    fn generous_watchdog_never_fires() {
        let mut solver = SimplexSolver::new();
        solver.set_solve_timeout(Some(Duration::from_secs(60)));
        solver.solve(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        assert_eq!(solver.stats().watchdog_aborts, 0);
    }

    #[test]
    fn watchdog_turns_runaway_cold_solve_into_stalled() {
        let mut solver = SimplexSolver::new();
        solver.set_solve_timeout(Some(Duration::from_millis(1)));
        solver.set_pivot_delay(Some(Duration::from_millis(10)));
        let outcome = solver.solve(&textbook(4.0, 12.0, 18.0));
        assert_eq!(outcome, LpOutcome::Stalled);
        assert_eq!(solver.stats().watchdog_aborts, 1);
    }

    #[test]
    fn watchdog_aborted_warm_attempt_falls_back_to_cold() {
        let mut solver = SimplexSolver::new();
        solver.solve(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        let cold_before = solver.stats().cold_solves;
        // Force slowness: the warm attempt hits its deadline, falls back,
        // and the cold attempt (fresh deadline) then times out too — each
        // abort counted once, and the solve returns Stalled, not a hang.
        solver.set_solve_timeout(Some(Duration::from_millis(1)));
        solver.set_pivot_delay(Some(Duration::from_millis(10)));
        let outcome = solver.solve(&textbook(4.0, 12.0, 17.0));
        assert_eq!(outcome, LpOutcome::Stalled);
        let stats = solver.stats();
        assert!(stats.watchdog_aborts >= 2, "stats: {stats:?}");
        assert_eq!(stats.cold_solves, cold_before + 1);
        // Disarm: the same drifted LP now solves fine.
        solver.set_solve_timeout(None);
        solver.set_pivot_delay(None);
        solver.solve(&textbook(4.0, 12.0, 17.0)).expect_optimal();
    }
}
