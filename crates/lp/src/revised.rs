//! Revised simplex over sparse structures — the LP engine.
//!
//! A dense tableau carries an `m × n_total` matrix and rewrites all of it
//! on every pivot: O(m·n) memory and time per pivot, which does not
//! survive the 10k-link augmented-graph regime. This solver (warm start
//! from the retained basis, dual-simplex repair on rhs drift, Bland's-rule
//! anti-cycling, a stride-64 solve watchdog) only ever touches:
//!
//! - the CSC constraint matrix ([`crate::sparse::SparseLp`]), read-only;
//! - a sparse LU factorisation of the `m × m` basis plus a chain of
//!   product-form eta updates, refactorised every `REFACTOR_EVERY` pivots;
//! - O(m) dense work vectors for ftran/btran.
//!
//! Variables are *bounded* (`0 ≤ x_j ≤ u_j`): capacity rows become plain
//! bounds in the lowering, so a bound-flip pivot costs one vector update
//! and no basis change at all. Entering columns come from candidate-list
//! partial pricing (`CandidateList`) instead of a full Dantzig scan.
//!
//! Every program starts feasible at `x = 0` ([`SparseLp::validate`] refuses
//! one that does not), so the all-logical basis is a feasible vertex and a
//! cold solve is Phase II from it: there is no Phase I. Nor is there an
//! unbounded verdict: a ratio test that nothing blocks is a numerical or
//! lowering fault and ends the solve as [`LpOutcome::Stalled`].
//!
//! A program whose matrix and objective equal the last optimal solve's
//! (compared entry by entry; rhs and bounds may drift) is a fast resolve
//! on the retained factorisation. Otherwise warm starts key on the
//! *structural sparsity pattern* (per-column pattern hashes), not on
//! variable count: augmentation that appends
//! fake-edge columns — and, with more than one commodity, their capacity
//! rows — maps the saved basis through the unchanged prefix and hosts
//! every appended row on its own logical. With the appended columns at
//! zero that basis is the previous optimum itself (Theorem 1: G ⊆ G′), so
//! the augmented solve is one refactorisation plus Phase II, not a cold
//! start.
//!
//! A solve makes one warm attempt, then goes cold. Dual repair inside it
//! is bounded by `m` pivots (repairs that converge take a few dozen; one
//! that has not is wandering through dual-degenerate ties and a cold
//! solve is cheaper), computes the reduced costs once and updates them
//! from each pivot row, and forms that row from a row-major index of `A`
//! over the rows `rho` touches. Why an attempt was refused is counted:
//! [`SolverStats::warm_singular`], [`SolverStats::repair_aborts`],
//! [`SolverStats::repair_pivots`].

use crate::lu::{Eta, LuFactors};
use crate::pricing::CandidateList;
use crate::sparse::{Relation, SparseLp};
use std::time::{Duration, Instant};

const TOL: f64 = 1e-9;
/// Pivots between wall-clock watchdog checks (every pivot under a chaos
/// delay); a power of two so the test compiles to a mask, keeping
/// `Instant::now()` off the per-pivot path.
const WATCHDOG_STRIDE: u64 = 64;
/// Minimum magnitude for a ratio-test pivot element.
const PIVOT_TOL: f64 = 1e-7;
/// Consecutive degenerate pivots before switching to Bland's rule.
const DEGENERATE_STREAK: u64 = 256;
/// Feasibility slack when accepting a warm basis / ending dual repair.
const WARM_FEAS_TOL: f64 = 1e-7;
/// Dual-feasibility slack for the repair precheck.
const DUAL_FEAS_TOL: f64 = 1e-7;
/// Eta-chain length that triggers a refactorisation: long chains cost
/// more per ftran/btran than a fresh factorisation and accumulate drift.
const REFACTOR_EVERY: usize = 64;
/// Entries below this are dropped from eta columns.
const ETA_DROP_TOL: f64 = 1e-12;

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
    /// No optimum was reached: the pivot budget ran out, the watchdog
    /// fired, the cold basis did not factorise, or a ratio test found no
    /// blocking row. Every program starts feasible, so none of these is a
    /// property of the model; callers should treat it as a solver failure.
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

/// Cumulative counters of a [`SparseSimplexSolver`]'s warm-start and
/// factorisation behaviour.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverStats {
    /// Solves that ran the cold path, Phase II from the all-logical
    /// basis (including warm-start fallbacks).
    pub cold_solves: u64,
    /// Solves that attempted a warm start from the saved basis.
    pub warm_attempts: u64,
    /// Warm attempts that reached optimality without falling back.
    pub warm_hits: u64,
    /// Total pivots performed (all solves, dual repair included).
    pub pivots: u64,
    /// Solve attempts aborted by the wall-clock watchdog (each warm or
    /// cold attempt that hit its deadline counts once).
    pub watchdog_aborts: u64,
    /// Product-form eta updates pushed between refactorisations.
    pub eta_updates: u64,
    /// Basis refactorisations performed.
    pub refactorizations: u64,
    /// Candidate-list refill scans over the full column set (each scan
    /// prices up to the whole matrix once).
    pub pricing_scans: u64,
    /// Warm attempts refused because the mapped basis did not factorise.
    pub warm_singular: u64,
    /// Dual repairs that started from a dual-feasible basis and gave up —
    /// pivot bound, no eligible pivot, watchdog — after which the solve
    /// goes cold.
    pub repair_aborts: u64,
    /// Pivots spent inside dual repair; a subset of `pivots`.
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

/// Where a nonbasic variable currently rests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    Basic,
    AtLower,
    AtUpper,
}

/// A saved basis member, stored structurally so it can be re-mapped onto
/// a drifted layout (appended columns/rows keep the prefix meaningful).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SavedRef {
    /// Structural column `j` of the LP.
    Structural(usize),
    /// Logical (slack/surplus) of row `r`.
    Logical(usize),
}

/// The retained optimal basis plus the structural signature it belongs to.
#[derive(Debug, Clone)]
struct SavedBasis {
    n: usize,
    m: usize,
    /// Per-column structural pattern hashes of the solved LP.
    col_hashes: Vec<u64>,
    /// Row relations of the solved LP.
    rels: Vec<Relation>,
    /// Basis members by slot.
    basics: Vec<SavedRef>,
    /// Nonbasic members resting at their upper bound.
    at_upper: Vec<SavedRef>,
}

/// A reusable sparse revised-simplex engine: scratch buffers, the LU
/// factors and the last optimal basis persist across solves, so a
/// sequence of drifting TE rounds pays for factorisation once, not per
/// round.
#[derive(Debug, Clone, Default)]
pub struct SparseSimplexSolver {
    // --- problem of the solve in flight (set by `load`) ---------------
    n: usize,
    m: usize,
    /// Structural + logical column count, `n + m`.
    n_total: usize,
    /// Unified CSC over all columns: structurals, then one +1 logical
    /// per row.
    col_ptr: Vec<usize>,
    col_rows: Vec<usize>,
    col_vals: Vec<f64>,
    /// Upper bound per column; every lower bound is 0 (a `≤` logical
    /// ranges over `[0, ∞)`, an `=` logical is fixed at 0).
    upper: Vec<f64>,
    /// Objective per column (zero on logicals).
    cost: Vec<f64>,
    rhs: Vec<f64>,
    // --- basis state (persists across loads for fast resolves) --------
    /// basis[slot] = column index of the basic variable.
    basis: Vec<usize>,
    /// Per-column rest state.
    vstat: Vec<VStat>,
    /// Value of the basic variable in each slot.
    xb: Vec<f64>,
    lu: LuFactors,
    etas: Vec<Eta>,
    // --- scratch -------------------------------------------------------
    work_rows: Vec<f64>,
    work_slots: Vec<f64>,
    step_buf: Vec<f64>,
    /// ftran image of the entering column, slot space.
    w_col: Vec<f64>,
    /// Dual multipliers, row space.
    y_rows: Vec<f64>,
    /// btran image of a unit slot vector (dual repair), row space.
    rho_rows: Vec<f64>,
    /// Dual repair: reduced costs and the pivot row, column space.
    d_cols: Vec<f64>,
    alpha_cols: Vec<f64>,
    /// Row-major index of the structural columns, see `ensure_row_major`.
    row_ptr: Vec<usize>,
    row_cols: Vec<u32>,
    row_ents: Vec<u32>,
    rows_built: bool,
    fact_ptr: Vec<usize>,
    fact_rows: Vec<usize>,
    fact_vals: Vec<f64>,
    pricing: CandidateList,
    // --- warm-start state ----------------------------------------------
    saved: Option<SavedBasis>,
    /// True while `basis`/`vstat`/`lu`/`etas` still describe the final
    /// state of the last optimal solve — and, until the next `load`, the
    /// column arrays and `cost` its matrix and objective, which the
    /// fast-resolve check compares against (rhs and bounds excluded on
    /// purpose: capacity drift moves those every round).
    fact_valid: bool,
    stats: SolverStats,
    // --- watchdog -------------------------------------------------------
    solve_timeout: Option<Duration>,
    deadline: Option<Instant>,
    deadline_hit: bool,
    pivot_delay: Option<Duration>,
}

impl SparseSimplexSolver {
    /// A solver with no saved basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Warm-start and factorisation counters accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Length of the current eta chain — product-form updates applied on
    /// top of the last factorisation. Bench instrumentation for tuning
    /// the refactorisation policy.
    pub fn eta_chain_len(&self) -> usize {
        self.etas.len()
    }

    /// Stored nonzeros in the current LU factors of the basis.
    pub fn lu_nnz(&self) -> usize {
        self.lu.nnz()
    }

    /// Row multipliers `y = B⁻ᵀ c_B` of the last solve, one per row of the
    /// program it was given. After [`LpOutcome::Optimal`] they are the
    /// optimal dual solution [`crate::certify`] checks `x` against — free:
    /// the last pricing pass computes them to find nothing to enter.
    /// Meaningless after [`LpOutcome::Stalled`].
    pub fn duals(&self) -> &[f64] {
        &self.y_rows[..self.m]
    }

    /// Drops the saved basis; the next solve runs cold.
    pub fn reset(&mut self) {
        self.saved = None;
        self.fact_valid = false;
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

    /// Chaos hook: sleep this long before every pivot (deterministic
    /// watchdog tests). `None` (the default) is a no-op.
    pub fn set_pivot_delay(&mut self, delay: Option<Duration>) {
        self.pivot_delay = delay;
    }

    fn arm_deadline(&mut self) {
        self.deadline = self.solve_timeout.map(|t| Instant::now() + t);
        self.deadline_hit = false;
    }

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

    /// Solves `lp` with a pivot budget scaled to the problem size.
    pub fn solve_sparse(&mut self, lp: &SparseLp) -> LpOutcome {
        self.solve_sparse_with_budget(lp, default_budget(lp))
    }

    /// Solves `lp` with an explicit pivot budget per attempt (dual repair
    /// plus Phase II), warm-starting from the previous solve's basis when
    /// the structural pattern allows it. A spent budget is
    /// [`LpOutcome::Stalled`], which callers should surface as a solver
    /// error. `lp` must pass [`SparseLp::validate`]; a program that does
    /// not, one infeasible at the origin included, panics.
    pub(crate) fn solve_sparse_with_budget(
        &mut self,
        lp: &SparseLp,
        max_pivots: u64,
    ) -> LpOutcome {
        lp.validate().expect("invalid LP");

        // Fast resolve: pattern, matrix values and objective identical to
        // the last optimal solve (rhs and bounds free to drift) — the
        // retained LU + eta chain is still a factorisation of the final
        // basis, so skip loading a fresh basis entirely.
        let fast = self.fast_resolve_applicable(lp);
        self.load(lp, fast);
        // A fast resolve sees the matrix of the last solve bit for bit.
        self.rows_built &= fast;
        // The pattern hashes key the mapped warm start; a fast resolve
        // keeps the saved ones.
        let hashes = (!fast).then(|| lp.column_pattern_hashes());
        let hashes = hashes.as_deref();
        // One warm attempt per solve — the retained factorisation if it
        // still fits, else the saved basis mapped onto the new program
        // (the same basis, were both to apply) — then cold.
        let plan = hashes.and_then(|h| self.warm_plan(lp, h));
        if fast || plan.is_some() {
            self.arm_deadline();
            self.stats.warm_attempts += 1;
            let outcome = match plan {
                None => self.try_fast_resolve(lp, max_pivots),
                Some(plan) => self.try_warm(lp, hashes, plan, max_pivots),
            };
            match outcome {
                // Watchdog-aborted attempt: the cold path re-arms.
                Some(LpOutcome::Stalled) if self.deadline_hit => {}
                Some(outcome) => {
                    self.stats.warm_hits += 1;
                    return outcome;
                }
                None => {}
            }
        }
        self.arm_deadline();
        self.cold(lp, hashes, max_pivots)
    }

    // --- loading --------------------------------------------------------

    /// Builds the unified column arrays, bounds and rhs for `lp`. Never
    /// touches `basis`/`vstat`/`lu`/`etas` — the fast path retains them.
    /// With `same_matrix` the column arrays already hold `lp`'s matrix
    /// and its logicals.
    fn load(&mut self, lp: &SparseLp, same_matrix: bool) {
        let n = lp.n_vars();
        let m = lp.n_rows();
        self.n = n;
        self.m = m;
        self.n_total = n + m;

        if !same_matrix {
            self.col_ptr.clear();
            self.col_rows.clear();
            self.col_vals.clear();
            self.col_ptr.extend_from_slice(&lp.a.col_ptr);
            self.col_rows.extend_from_slice(&lp.a.row_idx);
            self.col_vals.extend_from_slice(&lp.a.values);
            for r in 0..m {
                self.col_rows.push(r);
                self.col_vals.push(1.0);
                self.col_ptr.push(self.col_rows.len());
            }
        }

        self.upper.clear();
        self.upper.extend_from_slice(&lp.upper);
        // `a·x + s = b` with the logical's upper bound encoding the
        // relation: ≤ → s ∈ [0, ∞), = → s fixed at 0.
        self.upper.extend(lp.rel.iter().map(|rel| match rel {
            Relation::Le => f64::INFINITY,
            Relation::Eq => 0.0,
        }));

        self.cost.clear();
        self.cost.extend_from_slice(&lp.objective);
        self.cost.resize(self.n_total, 0.0);
        self.rhs.clear();
        self.rhs.extend_from_slice(&lp.rhs);

        self.work_rows.resize(m, 0.0);
        self.work_slots.resize(m, 0.0);
        self.step_buf.resize(m, 0.0);
        self.w_col.resize(m, 0.0);
        self.y_rows.resize(m, 0.0);
        self.rho_rows.resize(m, 0.0);
        self.xb.resize(m, 0.0);
    }

    // --- linear algebra over the factorisation --------------------------

    /// Rebuilds the LU factors from the current basis columns and clears
    /// the eta chain. `Err` means the basis is numerically singular.
    fn refactorize(&mut self) -> Result<(), ()> {
        self.fact_ptr.clear();
        self.fact_rows.clear();
        self.fact_vals.clear();
        self.fact_ptr.push(0);
        for s in 0..self.m {
            let j = self.basis[s];
            let (cs, ce) = (self.col_ptr[j], self.col_ptr[j + 1]);
            self.fact_rows.extend_from_slice(&self.col_rows[cs..ce]);
            self.fact_vals.extend_from_slice(&self.col_vals[cs..ce]);
            self.fact_ptr.push(self.fact_rows.len());
        }
        self.etas.clear();
        self.stats.refactorizations += 1;
        self.lu.factorize(self.m, &self.fact_ptr, &self.fact_rows, &self.fact_vals)
    }

    /// Recomputes `xb = B⁻¹(b − N·x_N)` from the rest positions.
    fn compute_xb(&mut self) {
        self.work_rows.copy_from_slice(&self.rhs);
        for j in 0..self.n_total {
            if self.vstat[j] != VStat::AtUpper {
                continue;
            }
            let v = self.upper[j];
            debug_assert!(v.is_finite(), "nonbasic at an infinite bound");
            if v != 0.0 {
                for e in self.col_ptr[j]..self.col_ptr[j + 1] {
                    self.work_rows[self.col_rows[e]] -= self.col_vals[e] * v;
                }
            }
        }
        self.lu.ftran(&mut self.work_rows, &mut self.xb, &mut self.step_buf);
        for eta in &self.etas {
            eta.ftran(&mut self.xb);
        }
    }

    /// `w_col = B⁻¹ A_j` (slot space).
    fn ftran_col(&mut self, j: usize) {
        for v in &mut self.work_rows {
            *v = 0.0;
        }
        for e in self.col_ptr[j]..self.col_ptr[j + 1] {
            self.work_rows[self.col_rows[e]] = self.col_vals[e];
        }
        self.lu.ftran(&mut self.work_rows, &mut self.w_col, &mut self.step_buf);
        for eta in &self.etas {
            eta.ftran(&mut self.w_col);
        }
    }

    /// `y = B⁻ᵀ c_B` (row space).
    fn compute_duals(&mut self) {
        for s in 0..self.m {
            self.work_slots[s] = self.cost[self.basis[s]];
        }
        for eta in self.etas.iter().rev() {
            eta.btran(&mut self.work_slots);
        }
        self.lu.btran(&self.work_slots, &mut self.y_rows, &mut self.step_buf);
    }

    /// Reduced cost `c_j − y·A_j` against the current duals.
    fn reduced_cost(&self, j: usize) -> f64 {
        let mut d = self.cost[j];
        for e in self.col_ptr[j]..self.col_ptr[j + 1] {
            d -= self.y_rows[self.col_rows[e]] * self.col_vals[e];
        }
        d
    }

    // --- primal simplex -------------------------------------------------

    /// Nonbasic and not fixed (`=` logicals, zero-capacity columns).
    fn may_enter(&self, j: usize) -> bool {
        self.vstat[j] != VStat::Basic && self.upper[j] > 0.0
    }

    /// Violation magnitude of column `j` if it is eligible to enter.
    fn entering_violation(&self, j: usize) -> Option<f64> {
        if !self.may_enter(j) {
            return None;
        }
        let d = self.reduced_cost(j);
        match self.vstat[j] {
            VStat::AtLower if d > TOL => Some(d),
            VStat::AtUpper if d < -TOL => Some(-d),
            _ => None,
        }
    }

    /// Picks the entering column: partial pricing normally, a full
    /// lowest-index scan under Bland's rule.
    fn select_entering(&mut self, bland: bool) -> Option<usize> {
        if bland {
            self.stats.pricing_scans += 1;
            return (0..self.n_total).find(|&j| self.entering_violation(j).is_some());
        }
        let mut pricing = std::mem::take(&mut self.pricing);
        let before = pricing.scans;
        let pick = pricing.select(self.n_total, |j| self.entering_violation(j));
        self.stats.pricing_scans += pricing.scans - before;
        self.pricing = pricing;
        pick
    }

    /// Runs bounded-variable primal simplex from a feasible basis; `true`
    /// at optimality, `false` when it stalls (budget, watchdog, a singular
    /// refactorisation, or an entering column that nothing blocks).
    fn optimise(&mut self, max_pivots: u64) -> bool {
        self.pricing.invalidate();
        let mut pivots = 0u64;
        let mut streak = 0u64;
        loop {
            pivots += 1;
            if pivots > max_pivots {
                return false;
            }
            if let Some(delay) = self.pivot_delay {
                std::thread::sleep(delay);
            }
            if (self.pivot_delay.is_some() || pivots & (WATCHDOG_STRIDE - 1) == 0)
                && self.deadline_expired()
            {
                return false;
            }
            self.compute_duals();
            let bland = streak >= DEGENERATE_STREAK;
            let Some(j) = self.select_entering(bland) else {
                return true;
            };
            // Direction the entering variable moves off its bound.
            let dir = if self.vstat[j] == VStat::AtLower { 1.0 } else { -1.0 };
            self.ftran_col(j);
            // Ratio test: basic variable `s` moves at −dir·w[s]; it blocks
            // at whichever of its bounds that motion runs into.
            let mut bt = f64::INFINITY;
            let mut bs = usize::MAX;
            let mut babs = 0.0f64;
            let mut b_to_upper = false;
            for s in 0..self.m {
                let w = self.w_col[s];
                let rate = dir * w;
                let jb = self.basis[s];
                let (t, to_upper) = if rate > PIVOT_TOL {
                    ((self.xb[s] / rate).max(0.0), false)
                } else if rate < -PIVOT_TOL {
                    let ub = self.upper[jb];
                    if !ub.is_finite() {
                        continue;
                    }
                    (((ub - self.xb[s]) / -rate).max(0.0), true)
                } else {
                    continue;
                };
                let better = t < bt - TOL
                    || (t < bt + TOL
                        && bs != usize::MAX
                        && if bland {
                            self.basis[s] < self.basis[bs]
                        } else {
                            w.abs() > babs
                        });
                if bs == usize::MAX && t < bt || better {
                    bt = t;
                    bs = s;
                    babs = w.abs();
                    b_to_upper = to_upper;
                }
            }
            let span = self.upper[j];
            if span <= bt {
                if span.is_infinite() {
                    // Nothing blocks: a program bounded by construction
                    // has lost its way numerically, or was lowered wrong.
                    return false;
                }
                // Bound flip: the entering variable crosses its whole
                // range before anything blocks — no basis change, no eta.
                for s in 0..self.m {
                    self.xb[s] -= dir * self.w_col[s] * span;
                }
                self.vstat[j] = if dir > 0.0 { VStat::AtUpper } else { VStat::AtLower };
                self.stats.pivots += 1;
                streak = if span <= TOL { streak + 1 } else { 0 };
                continue;
            }
            // Basis exchange at slot `bs`.
            let t = bt;
            let p = bs;
            for s in 0..self.m {
                self.xb[s] -= dir * self.w_col[s] * t;
            }
            let from = if dir > 0.0 { 0.0 } else { self.upper[j] };
            let leaving = self.basis[p];
            self.vstat[leaving] = if b_to_upper { VStat::AtUpper } else { VStat::AtLower };
            self.vstat[j] = VStat::Basic;
            self.basis[p] = j;
            self.xb[p] = from + dir * t;
            self.push_eta(p);
            streak = if t <= TOL { streak + 1 } else { 0 };
            if self.etas.len() >= REFACTOR_EVERY {
                if self.refactorize().is_err() {
                    return false;
                }
                self.compute_xb();
            }
        }
    }

    /// Records the basis exchange at slot `p` as a product-form eta built
    /// from the current `w_col` (the entering column's ftran image).
    fn push_eta(&mut self, p: usize) {
        let dp = self.w_col[p];
        debug_assert!(dp.abs() > ETA_DROP_TOL, "eta pivot ~zero");
        let d: Vec<(usize, f64)> = (0..self.m)
            .filter(|&s| s != p && self.w_col[s].abs() > ETA_DROP_TOL)
            .map(|s| (s, self.w_col[s]))
            .collect();
        self.etas.push(Eta { slot: p, d, dp });
        self.stats.pivots += 1;
        self.stats.eta_updates += 1;
    }

    // --- dual repair -----------------------------------------------------

    /// Largest bound violation across the basic variables.
    fn max_primal_violation(&self) -> f64 {
        let mut v = 0.0f64;
        for s in 0..self.m {
            let j = self.basis[s];
            v = v.max(-self.xb[s]).max(self.xb[s] - self.upper[j]);
        }
        v
    }

    /// Squashes sub-tolerance bound violations left by repair/drift.
    fn clamp_basics(&mut self) {
        for s in 0..self.m {
            let j = self.basis[s];
            self.xb[s] = self.xb[s].clamp(0.0, self.upper[j]);
        }
    }

    /// Reduced costs of every column against fresh duals, into `d_cols`
    /// (zero on basic columns).
    fn compute_reduced_costs(&mut self) {
        self.compute_duals();
        self.d_cols.resize(self.n_total, 0.0);
        for j in 0..self.n_total {
            self.d_cols[j] =
                if self.vstat[j] == VStat::Basic { 0.0 } else { self.reduced_cost(j) };
        }
    }

    /// Row-major index of the structural columns (logicals are unit
    /// columns and need none): per row, each entry's column and its
    /// position in `col_vals`, ascending by column — 8 bytes an entry, not
    /// a second copy of the values. Dual repair forms a pivot row from the
    /// rows `rho` touches instead of one dot product per column. Built on
    /// first use per loaded matrix.
    fn ensure_row_major(&mut self) {
        if self.rows_built {
            return;
        }
        let m = self.m;
        let nnz = self.col_ptr[self.n];
        assert!(nnz <= u32::MAX as usize, "matrix too large for the row index");
        self.row_ptr.clear();
        self.row_ptr.resize(m + 1, 0);
        for &r in &self.col_rows[..nnz] {
            self.row_ptr[r + 1] += 1;
        }
        for r in 0..m {
            self.row_ptr[r + 1] += self.row_ptr[r];
        }
        self.row_cols.resize(nnz, 0);
        self.row_ents.resize(nnz, 0);
        // Fill with `row_ptr[r]` as row r's cursor, then shift it back.
        for j in 0..self.n {
            for e in self.col_ptr[j]..self.col_ptr[j + 1] {
                let at = &mut self.row_ptr[self.col_rows[e]];
                self.row_cols[*at] = j as u32;
                self.row_ents[*at] = e as u32;
                *at += 1;
            }
        }
        self.row_ptr.copy_within(0..m, 1);
        self.row_ptr[0] = 0;
        self.rows_built = true;
    }

    /// Bounded dual simplex: restores primal feasibility of a warm basis
    /// whose reduced costs are still optimal. Returns `false` when the
    /// basis is not dual-feasible or the repair gives up (counted in
    /// `repair_aborts`) — the caller goes cold.
    fn dual_repair(&mut self, max_pivots: u64) -> bool {
        self.compute_reduced_costs();
        // Dual-feasibility precheck: a violated
        // reduced cost means the matrix/objective changed, not just the
        // rhs — repair would chase a moving target, go cold instead.
        for j in 0..self.n_total {
            if !self.may_enter(j) {
                continue;
            }
            let d = self.d_cols[j];
            match self.vstat[j] {
                VStat::AtLower if d > DUAL_FEAS_TOL => return false,
                VStat::AtUpper if d < -DUAL_FEAS_TOL => return false,
                _ => {}
            }
        }
        self.ensure_row_major();
        self.alpha_cols.clear();
        self.alpha_cols.resize(self.n_total, 0.0);
        let before = self.stats.pivots;
        // A repair that works takes a few dozen pivots; one that has not
        // finished after `m` is stalling, and a cold solve is cheaper.
        let repaired = self.repair_pivots(max_pivots.min(self.m as u64));
        self.stats.repair_pivots += self.stats.pivots - before;
        if !repaired {
            self.stats.repair_aborts += 1;
        }
        repaired
    }

    /// The pivot loop of [`Self::dual_repair`], on reduced costs computed
    /// once (`d_cols`) and updated from each pivot row. `false` = no
    /// eligible pivot, `max_pivots` spent, or the watchdog fired.
    fn repair_pivots(&mut self, max_pivots: u64) -> bool {
        let mut pivots = 0u64;
        loop {
            // Leaving slot: worst bound violation; none left = repaired.
            let mut worst = WARM_FEAS_TOL;
            let mut p = usize::MAX;
            let mut below = false;
            for s in 0..self.m {
                let jb = self.basis[s];
                let vb = -self.xb[s];
                let va = self.xb[s] - self.upper[jb];
                if vb > worst {
                    worst = vb;
                    p = s;
                    below = true;
                }
                if va > worst {
                    worst = va;
                    p = s;
                    below = false;
                }
            }
            if p == usize::MAX {
                return true;
            }
            pivots += 1;
            if pivots > max_pivots {
                return false;
            }
            if let Some(delay) = self.pivot_delay {
                std::thread::sleep(delay);
            }
            if (self.pivot_delay.is_some() || pivots & (WATCHDOG_STRIDE - 1) == 0)
                && self.deadline_expired()
            {
                return false;
            }
            // Row of B⁻¹ for the leaving slot: rho = B⁻ᵀ e_p.
            for v in &mut self.work_slots {
                *v = 0.0;
            }
            self.work_slots[p] = 1.0;
            for eta in self.etas.iter().rev() {
                eta.btran(&mut self.work_slots);
            }
            self.lu.btran(&self.work_slots, &mut self.rho_rows, &mut self.step_buf);
            // Pivot row alpha_j = rho·A_j, scattered from the rows rho
            // touches (same summation order as the per-column dot product).
            for r in 0..self.m {
                let rho = self.rho_rows[r];
                if rho == 0.0 {
                    continue;
                }
                self.alpha_cols[self.n + r] = rho;
                for i in self.row_ptr[r]..self.row_ptr[r + 1] {
                    self.alpha_cols[self.row_cols[i] as usize] +=
                        rho * self.col_vals[self.row_ents[i] as usize];
                }
            }
            // Dual ratio test: entering candidates whose alpha sign moves
            // the leaving variable toward its violated bound while the
            // entering one moves off its own bound feasibly.
            let mut best_ratio = f64::INFINITY;
            let mut best_abs = 0.0f64;
            let mut enter = usize::MAX;
            for j in 0..self.n_total {
                let alpha = self.alpha_cols[j];
                if alpha == 0.0 || !self.may_enter(j) {
                    continue;
                }
                let eligible = if below {
                    (self.vstat[j] == VStat::AtLower && alpha < -PIVOT_TOL)
                        || (self.vstat[j] == VStat::AtUpper && alpha > PIVOT_TOL)
                } else {
                    (self.vstat[j] == VStat::AtLower && alpha > PIVOT_TOL)
                        || (self.vstat[j] == VStat::AtUpper && alpha < -PIVOT_TOL)
                };
                if !eligible {
                    continue;
                }
                let ratio = (self.d_cols[j] / alpha).max(0.0);
                if ratio < best_ratio - TOL
                    || (ratio < best_ratio + TOL && alpha.abs() > best_abs)
                {
                    best_ratio = ratio;
                    best_abs = alpha.abs();
                    enter = j;
                }
            }
            if enter == usize::MAX {
                return false;
            }
            // Dual step: d_j −= θ·alpha_j zeroes the entering column's
            // reduced cost and leaves −θ on the leaving one.
            let theta = self.d_cols[enter] / self.alpha_cols[enter];
            for j in 0..self.n_total {
                let alpha = std::mem::take(&mut self.alpha_cols[j]);
                if alpha != 0.0 && self.vstat[j] != VStat::Basic {
                    self.d_cols[j] -= theta * alpha;
                }
            }
            self.d_cols[enter] = 0.0;
            self.d_cols[self.basis[p]] = -theta;
            self.ftran_col(enter);
            let alpha = self.w_col[p];
            if alpha.abs() < PIVOT_TOL {
                return false;
            }
            let jb = self.basis[p];
            let target = if below { 0.0 } else { self.upper[jb] };
            let delta = (self.xb[p] - target) / alpha;
            for s in 0..self.m {
                self.xb[s] -= self.w_col[s] * delta;
            }
            let from = if self.vstat[enter] == VStat::AtLower {
                0.0
            } else {
                self.upper[enter]
            };
            self.vstat[jb] = if below { VStat::AtLower } else { VStat::AtUpper };
            self.vstat[enter] = VStat::Basic;
            self.basis[p] = enter;
            self.xb[p] = from + delta;
            self.push_eta(p);
            if self.etas.len() >= REFACTOR_EVERY {
                if self.refactorize().is_err() {
                    return false;
                }
                self.compute_xb();
                self.compute_reduced_costs();
            }
        }
    }

    // --- warm / fast paths ----------------------------------------------

    /// True when the retained factorisation still factors this LP's final
    /// basis: dimensions, relations, matrix (pattern and value bits) and
    /// objective all identical (rhs/bounds may drift — that is the point).
    /// Compared entry by entry, so no hash collision can reuse a
    /// factorisation. Called before `load`, while the column arrays still
    /// hold the last solved LP.
    fn fast_resolve_applicable(&self, lp: &SparseLp) -> bool {
        fn bits(values: &[f64]) -> impl Iterator<Item = u64> + '_ {
            values.iter().map(|v| v.to_bits())
        }
        let Some(saved) = &self.saved else { return false };
        let (n, nnz) = (self.n, lp.a.nnz());
        self.fact_valid
            && (saved.n, saved.m) == (lp.n_vars(), lp.n_rows())
            && saved.rels == lp.rel
            && self.col_ptr[..=n] == lp.a.col_ptr[..]
            && self.col_rows[..nnz] == lp.a.row_idx[..]
            && bits(&self.col_vals[..nnz]).eq(bits(&lp.a.values))
            && self.cost[..n] == lp.objective[..]
    }

    /// Resolves an rhs/bounds-only change on the retained basis: recompute
    /// `xb`, dual-repair any drift-induced infeasibility, Phase II
    /// (usually zero pivots). `None` = repair failed, caller goes cold.
    fn try_fast_resolve(&mut self, lp: &SparseLp, max_pivots: u64) -> Option<LpOutcome> {
        self.fact_valid = false;
        for j in 0..self.n_total {
            if self.vstat[j] == VStat::AtUpper && !self.upper[j].is_finite() {
                self.vstat[j] = VStat::AtLower;
            }
        }
        self.compute_xb();
        if self.max_primal_violation() > WARM_FEAS_TOL && !self.dual_repair(max_pivots) {
            return None;
        }
        self.clamp_basics();
        Some(self.phase_two(lp, None, max_pivots))
    }

    /// Maps the saved basis onto the new layout through the unchanged
    /// structural prefix. `None` when the common prefix diverges (pattern
    /// or relations changed in place, not just appended).
    fn warm_plan(&self, lp: &SparseLp, hashes: &[u64]) -> Option<(Vec<usize>, Vec<usize>)> {
        let saved = self.saved.as_ref()?;
        let n = lp.n_vars();
        let m = lp.n_rows();
        let np = saved
            .col_hashes
            .iter()
            .zip(hashes)
            .take_while(|(a, b)| a == b)
            .count();
        let mp = saved
            .rels
            .iter()
            .zip(&lp.rel)
            .take_while(|(a, b)| a == b)
            .count();
        if np < saved.n.min(n) || mp < saved.m.min(m) {
            return None;
        }
        let map = |r: &SavedRef| match *r {
            SavedRef::Structural(j) if j < np => Some(j),
            SavedRef::Logical(rr) if rr < mp => Some(n + rr),
            _ => None,
        };
        let mut used = vec![false; n + m];
        let mut basis = Vec::with_capacity(m);
        for r in &saved.basics {
            if let Some(col) = map(r) {
                if !used[col] && basis.len() < m {
                    used[col] = true;
                    basis.push(col);
                }
            }
        }
        // Uncovered slots host a logical: appended rows their own first
        // (with the appended columns at zero that is the saved vertex
        // itself — Theorem 1's G ⊆ G′), then the lowest free ones.
        for r in (saved.m..m).chain(0..m) {
            if basis.len() >= m {
                break;
            }
            if !used[n + r] {
                used[n + r] = true;
                basis.push(n + r);
            }
        }
        if basis.len() < m {
            return None;
        }
        let at_upper = saved
            .at_upper
            .iter()
            .filter_map(|r| map(r).filter(|&c| !used[c]))
            .collect();
        Some((basis, at_upper))
    }

    /// Warm path: refactorise the mapped basis, repair feasibility, run
    /// Phase II. `None` = singular/irreparable, caller goes cold.
    fn try_warm(
        &mut self,
        lp: &SparseLp,
        hashes: Option<&[u64]>,
        plan: (Vec<usize>, Vec<usize>),
        max_pivots: u64,
    ) -> Option<LpOutcome> {
        self.fact_valid = false;
        let (basis_cols, at_upper_cols) = plan;
        self.vstat.clear();
        self.vstat.resize(self.n_total, VStat::AtLower);
        for &j in &at_upper_cols {
            if self.upper[j].is_finite() {
                self.vstat[j] = VStat::AtUpper;
            }
        }
        for &j in &basis_cols {
            self.vstat[j] = VStat::Basic;
        }
        self.basis = basis_cols;
        if self.refactorize().is_err() {
            self.stats.warm_singular += 1;
            return None;
        }
        self.compute_xb();
        if self.max_primal_violation() > WARM_FEAS_TOL && !self.dual_repair(max_pivots) {
            return None;
        }
        self.clamp_basics();
        Some(self.phase_two(lp, hashes, max_pivots))
    }

    // --- cold path -------------------------------------------------------

    /// Cold path: the all-logical basis is the origin, feasible by
    /// [`SparseLp::validate`], so Phase II starts from it.
    fn cold(&mut self, lp: &SparseLp, hashes: Option<&[u64]>, max_pivots: u64) -> LpOutcome {
        self.stats.cold_solves += 1;
        self.fact_valid = false;
        let (n, m) = (self.n, self.m);
        self.basis.clear();
        self.basis.extend(n..n + m);
        self.vstat.clear();
        self.vstat.resize(self.n_total, VStat::AtLower);
        for s in 0..m {
            self.vstat[n + s] = VStat::Basic;
        }
        self.xb.copy_from_slice(&self.rhs);
        if self.refactorize().is_err() {
            return LpOutcome::Stalled;
        }
        self.phase_two(lp, hashes, max_pivots)
    }

    // --- phase II / extraction -------------------------------------------

    /// `hashes` are `lp`'s column pattern hashes, `None` when `lp` has the
    /// saved pattern (see `save_state`).
    fn phase_two(&mut self, lp: &SparseLp, hashes: Option<&[u64]>, max_pivots: u64) -> LpOutcome {
        if !self.optimise(max_pivots) {
            return LpOutcome::Stalled;
        }
        let x = self.vertex();
        let objective = x.iter().zip(&lp.objective).map(|(xi, ci)| xi * ci).sum();
        self.save_state(lp, hashes);
        LpOutcome::Optimal(Solution { x, objective })
    }

    /// The structural values of the current vertex: nonbasic columns at
    /// their rest, basic ones from `xb` clamped into `[0, u]`.
    fn vertex(&self) -> Vec<f64> {
        let mut x = vec![0.0; self.n];
        for (j, xj) in x.iter_mut().enumerate() {
            if self.vstat[j] == VStat::AtUpper {
                *xj = self.upper[j];
            }
        }
        for s in 0..self.m {
            let j = self.basis[s];
            if j < self.n {
                x[j] = self.xb[s].clamp(0.0, self.upper[j].max(0.0));
            }
        }
        x
    }

    /// Retains the optimal basis + fingerprint for warm starts. Without
    /// `hashes`, `lp` is the saved pattern solved again (a fast resolve,
    /// or the cold fallback after one): its hashes and relations carry
    /// over.
    fn save_state(&mut self, lp: &SparseLp, hashes: Option<&[u64]>) {
        let (n, m) = (self.n, self.m);
        let (col_hashes, rels) = match hashes {
            Some(hashes) => (hashes.to_vec(), lp.rel.clone()),
            None => {
                let saved = self.saved.take().expect("a fast resolve starts from a saved basis");
                (saved.col_hashes, saved.rels)
            }
        };
        let as_ref = |j: usize| {
            if j < n {
                SavedRef::Structural(j)
            } else {
                SavedRef::Logical(j - n)
            }
        };
        let basics = self.basis.iter().map(|&j| as_ref(j)).collect();
        let at_upper = (0..n + m)
            .filter(|&j| self.vstat[j] == VStat::AtUpper)
            .map(as_ref)
            .collect();
        self.saved = Some(SavedBasis {
            n,
            m,
            col_hashes,
            rels,
            basics,
            at_upper,
        });
        self.fact_valid = true;
    }
}

/// Pivot budget per attempt, scaled to the problem size. Generous: typical solves take
/// O(m) pivots; the budget only trips on numerical stalls or adversarial
/// degeneracy.
fn default_budget(lp: &SparseLp) -> u64 {
    let m = lp.n_rows() as u64;
    let n = lp.n_vars() as u64;
    100_000u64.max(50 * (m + n))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::sparse::SparseLpBuilder;

    const INF: f64 = f64::INFINITY;

    fn assert_near(a: f64, b: f64) {
        assert!((a - b).abs() < 1e-6, "{a} vs {b}");
    }

    /// A one-shot solve on a fresh solver.
    fn solve(lp: &SparseLp) -> LpOutcome {
        SparseSimplexSolver::new().solve_sparse(lp)
    }

    #[test]
    fn textbook_two_var() {
        // max 3x + 5y st x <= 4, 2y <= 12, 3x + 2y <= 18 → x=2, y=6, z=36.
        // The two singletons are the bounds x ≤ 4, y ≤ 6; one row remains.
        let s = solve(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        assert_near(s.objective, 36.0);
        assert_near(s.x[0], 2.0);
        assert_near(s.x[1], 6.0);
    }

    #[test]
    fn equality_constraints() {
        // max 2x + y st x + y − z = 0, x ≤ 3, z ≤ 5 (bounds): a
        // conservation row, rhs 0 like every `=` row the engine takes.
        let mut b = SparseLpBuilder::new(1);
        b.set_row(0, Relation::Eq, 0.0);
        b.push_col(2.0, 3.0, &[(0, 1.0)]);
        b.push_col(1.0, INF, &[(0, 1.0)]);
        b.push_col(0.0, 5.0, &[(0, -1.0)]);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 8.0);
        assert_near(s.x[0], 3.0);
        assert_near(s.x[0] + s.x[1], s.x[2]);
    }

    #[test]
    fn ge_constraints() {
        // `≥` rows reach the engine negated, rhs 0: min x + 2w − 4y st
        // x + w ≥ y, w ≥ y/4 as y − x − w ≤ 0, y − 4w ≤ 0, with y ≤ 4.
        let mut b = SparseLpBuilder::new(2);
        b.set_row(0, Relation::Le, 0.0);
        b.set_row(1, Relation::Le, 0.0);
        b.push_col(-1.0, INF, &[(0, -1.0)]);
        b.push_col(-2.0, INF, &[(0, -1.0), (1, -4.0)]);
        b.push_col(4.0, 4.0, &[(0, 1.0), (1, 1.0)]);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 11.0);
        assert_near(s.x[0], 3.0);
        assert_near(s.x[1], 1.0);
    }

    #[test]
    fn infeasible_detected() {
        // `x = 2` does not hold at x = 0: refused, not searched.
        let mut b = SparseLpBuilder::new(1);
        b.set_row(0, Relation::Eq, 0.0);
        b.push_col(1.0, 1.0, &[(0, 1.0)]);
        let mut lp = b.build();
        lp.rhs[0] = 2.0;
        let refused = lp.validate().unwrap_err();
        assert!(refused.contains("not feasible at the origin"), "{refused}");
        assert!(std::panic::catch_unwind(|| solve(&lp)).is_err(), "the engine must refuse it");
    }

    #[test]
    fn unbounded_detected() {
        // Nothing blocks x: no program the engine accepts is unbounded by
        // design, so the unblocked ratio test stalls.
        let mut b = SparseLpBuilder::new(1);
        b.set_row(0, Relation::Le, 1.0);
        b.push_col(1.0, INF, &[(0, -1.0)]);
        assert_eq!(solve(&b.build()), LpOutcome::Stalled);
    }

    #[test]
    fn degenerate_vertices_terminate() {
        // max x + y st x + y ≤ 1, 2x + y ≤ 2, x ≤ 1, y ≤ 1 (bounds).
        let mut b = SparseLpBuilder::new(2);
        b.set_row(0, Relation::Le, 1.0);
        b.set_row(1, Relation::Le, 2.0);
        b.push_col(1.0, 1.0, &[(0, 1.0), (1, 2.0)]);
        b.push_col(1.0, 1.0, &[(0, 1.0), (1, 1.0)]);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 1.0);
    }

    #[test]
    fn beale_cycling_fixture_terminates() {
        // Beale's classic cycling example: Dantzig pricing with naive tie
        // breaks cycles forever. Partial pricing + the Bland fallback must
        // terminate at the optimum, z = 0.05 (x = (1/25, 0, 1, 0)).
        let mut b = SparseLpBuilder::new(2);
        b.set_row(0, Relation::Le, 0.0);
        b.set_row(1, Relation::Le, 0.0);
        b.push_col(0.75, INF, &[(0, 0.25), (1, 0.5)]);
        b.push_col(-150.0, INF, &[(0, -60.0), (1, -90.0)]);
        b.push_col(0.02, 1.0, &[(0, -0.04), (1, -0.02)]);
        b.push_col(-6.0, INF, &[(0, 9.0), (1, 3.0)]);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 0.05);
    }

    #[test]
    fn zero_objective_finds_feasible_point() {
        // The origin is feasible and, with nothing to gain, optimal: the
        // cold start answers it without a pivot.
        let mut b = SparseLpBuilder::new(1);
        b.set_row(0, Relation::Eq, 0.0);
        b.push_col(0.0, INF, &[(0, 1.0)]);
        b.push_col(0.0, 7.0, &[(0, -1.0)]);
        let mut solver = SparseSimplexSolver::new();
        let s = solver.solve_sparse(&b.build()).expect_optimal();
        assert_eq!(s.x, [0.0, 0.0]);
        assert_eq!(s.objective, 0.0);
        assert_eq!(solver.stats().pivots, 0);
    }

    #[test]
    fn pure_bound_program_flips_to_upper() {
        // Only bounds: m = 0, solved by bound flips only.
        let mut b = SparseLpBuilder::new(0);
        b.push_col(1.0, 5.0, &[]);
        b.push_col(1.0, 3.0, &[]);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 8.0);
        assert_near(s.x[0], 5.0);
        assert_near(s.x[1], 3.0);
    }

    #[test]
    fn solution_satisfies_all_constraints() {
        // x0 + x1 + x2 ≤ 10, x2 + 2x3 ≤ 8, x3 − x0 ≤ 0, x1 + x2 − x4 = 0,
        // x4 ≤ 4.
        let mut b = SparseLpBuilder::new(4);
        b.set_row(0, Relation::Le, 10.0);
        b.set_row(1, Relation::Le, 8.0);
        b.set_row(2, Relation::Le, 0.0);
        b.set_row(3, Relation::Eq, 0.0);
        b.push_col(2.0, INF, &[(0, 1.0), (2, -1.0)]);
        b.push_col(-1.0, INF, &[(0, 1.0), (3, 1.0)]);
        b.push_col(3.0, INF, &[(0, 1.0), (1, 1.0), (3, 1.0)]);
        b.push_col(0.5, INF, &[(1, 2.0), (2, 1.0)]);
        b.push_col(0.0, 4.0, &[(3, -1.0)]);
        let lp = b.build();
        let s = solve(&lp).expect_optimal();
        let mut ax = vec![0.0; lp.n_rows()];
        for (j, xj) in s.x.iter().enumerate() {
            let (rows, vals) = lp.a.col(j);
            for (&r, &a) in rows.iter().zip(vals) {
                ax[r] += a * xj;
            }
        }
        for (r, (&lhs, &rhs)) in ax.iter().zip(&lp.rhs).enumerate() {
            match lp.rel[r] {
                Relation::Le => assert!(lhs <= rhs + 1e-6, "{lhs} <= {rhs}"),
                Relation::Eq => assert!((lhs - rhs).abs() < 1e-6, "{lhs} = {rhs}"),
            }
        }
        assert!(s.x.iter().all(|&v| v >= -1e-9));
    }

    #[test]
    fn maximum_matches_hand_dual() {
        // max 4x + 3y st 2x + y ≤ 10, x + 3y ≤ 15.
        let mut b = SparseLpBuilder::new(2);
        b.set_row(0, Relation::Le, 10.0);
        b.set_row(1, Relation::Le, 15.0);
        b.push_col(4.0, INF, &[(0, 2.0), (1, 1.0)]);
        b.push_col(3.0, INF, &[(0, 1.0), (1, 3.0)]);
        let s = solve(&b.build()).expect_optimal();
        assert_near(s.objective, 24.0);
        assert_near(s.x[0], 3.0);
        assert_near(s.x[1], 4.0);
    }

    #[test]
    fn random_origin_feasible_programs_certify() {
        // Pseudo-random programs of the class the engine takes: `≤` rows
        // with rhs ≥ 0, `=` rows with rhs 0, negative coefficients, and
        // every column boxed, so each has an optimum and its multipliers
        // prove it.
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut moved = 0;
        for _ in 0..400 {
            let (n, m) = (2 + (next() * 5.0) as usize, 1 + (next() * 5.0) as usize);
            let mut b = SparseLpBuilder::new(m);
            for r in 0..m {
                if next() < 0.25 {
                    b.set_row(r, Relation::Eq, 0.0);
                } else {
                    b.set_row(r, Relation::Le, next() * 20.0);
                }
            }
            for _ in 0..n {
                let mut entries = Vec::new();
                for r in 0..m {
                    if next() < 0.7 {
                        entries.push((r, next() * 4.0 - 1.0));
                    }
                }
                b.push_col(next() * 4.0 - 1.0, 1.0 + next() * 9.0, &entries);
            }
            let lp = b.build();
            let mut solver = SparseSimplexSolver::new();
            let s = solver.solve_sparse(&lp).expect_optimal();
            crate::certify(&lp, &s.x, solver.duals())
                .unwrap_or_else(|refused| panic!("{refused} on {lp:?}"));
            moved += usize::from(s.x.iter().any(|&v| v != 0.0));
        }
        assert!(moved > 100, "only {moved} of 400 optima left the origin");
    }

    // --- warm-start behaviour ----------------------------------------

    /// `max 3x + 5y  s.t.  x ≤ r1,  2y ≤ r2,  3x + 2y ≤ r3`: the first two
    /// are the bounds of `x` and `y`, the third the one row.
    fn textbook(r1: f64, r2: f64, r3: f64) -> SparseLp {
        let mut b = SparseLpBuilder::new(1);
        b.set_row(0, Relation::Le, r3);
        b.push_col(3.0, r1, &[(0, 3.0)]);
        b.push_col(5.0, r2 / 2.0, &[(0, 2.0)]);
        b.build()
    }

    #[test]
    fn warm_resolve_matches_cold_after_rhs_drift() {
        let mut solver = SparseSimplexSolver::new();
        solver.solve_sparse(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        assert_eq!(solver.stats().cold_solves, 1);
        for (r1, r2, r3) in [(4.5, 11.0, 18.0), (4.0, 12.0, 17.0), (3.0, 13.0, 19.0)] {
            let lp = textbook(r1, r2, r3);
            let warm = solver.solve_sparse(&lp).expect_optimal();
            let cold = solve(&lp).expect_optimal();
            assert_near(warm.objective, cold.objective);
        }
        let stats = solver.stats();
        assert_eq!(stats.warm_attempts, 3);
        assert!(stats.warm_hits >= 1, "drifted rhs should keep the basis: {stats:?}");
    }

    #[test]
    fn dual_repair_rescues_rhs_only_drift() {
        let mut solver = SparseSimplexSolver::new();
        solver.solve_sparse(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        // x's capacity collapses below the x=2 the old basis carried.
        let lp = textbook(1.0, 12.0, 18.0);
        let warm = solver.solve_sparse(&lp).expect_optimal();
        let cold = solve(&lp).expect_optimal();
        assert_near(warm.objective, cold.objective);
        let stats = solver.stats();
        assert_eq!(stats.warm_attempts, 1);
        assert_eq!(stats.warm_hits, 1, "rhs-only drift must stay warm: {stats:?}");
    }

    #[test]
    fn warm_falls_back_when_basis_goes_infeasible() {
        let mut solver = SparseSimplexSolver::new();
        solver.solve_sparse(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        let lp = textbook(0.5, 1.0, 1.0);
        let warm = solver.solve_sparse(&lp).expect_optimal();
        let cold = solve(&lp).expect_optimal();
        assert_near(warm.objective, cold.objective);
    }

    #[test]
    fn warm_resolve_with_equalities() {
        // max 2x + y st x + y − z = 0, x ≤ cap, z ≤ 5 (bounds).
        let build = |cap: f64| {
            let mut b = SparseLpBuilder::new(1);
            b.set_row(0, Relation::Eq, 0.0);
            b.push_col(2.0, cap, &[(0, 1.0)]);
            b.push_col(1.0, INF, &[(0, 1.0)]);
            b.push_col(0.0, 5.0, &[(0, -1.0)]);
            b.build()
        };
        let mut solver = SparseSimplexSolver::new();
        let first = solver.solve_sparse(&build(3.0)).expect_optimal();
        assert_near(first.objective, 8.0);
        for cap in [2.5, 2.0, 3.5, 1.0] {
            let warm = solver.solve_sparse(&build(cap)).expect_optimal();
            let cold = solve(&build(cap)).expect_optimal();
            assert_near(warm.objective, cold.objective);
        }
    }

    #[test]
    fn appended_columns_keep_warm_start() {
        // The dirty-link augmentation shape: new columns appended at the
        // end, rows unchanged. The structural-prefix warm key must map
        // the saved basis instead of falling back cold.
        let base = |extra: bool| {
            let mut b = SparseLpBuilder::new(2);
            b.set_row(0, Relation::Le, 10.0);
            b.set_row(1, Relation::Le, 6.0);
            b.push_col(2.0, f64::INFINITY, &[(0, 1.0), (1, 1.0)]);
            b.push_col(1.0, 4.0, &[(0, 1.0)]);
            if extra {
                // A fake-edge column: attractive enough to enter.
                b.push_col(1.5, 2.0, &[(1, 1.0)]);
            }
            b.build()
        };
        let mut solver = SparseSimplexSolver::new();
        let first = solver.solve_sparse(&base(false)).expect_optimal();
        assert_near(first.objective, 16.0); // a = 6 (row1 cap), b = 4 (bound)
        let augmented = solver.solve_sparse(&base(true)).expect_optimal();
        let cold = SparseSimplexSolver::new().solve_sparse(&base(true)).expect_optimal();
        assert_near(augmented.objective, cold.objective);
        let stats = solver.stats();
        assert_eq!(stats.cold_solves, 1, "augmentation must not fall back cold: {stats:?}");
        assert_eq!(stats.warm_attempts, 1);
        assert_eq!(stats.warm_hits, 1);
    }

    /// Max-throughput multi-commodity flow on the complete digraph over
    /// `nodes` nodes, in the TE lowering's shape: conservation rows, one
    /// demand row per commodity, one shared `≤` capacity row per edge and
    /// `demands.len()` columns per edge, nearly all of them zero-cost.
    /// `fakes` appends parallel edges `(edge, extra capacity)` at a small
    /// cost — Algorithm 1's augmentation for K > 1: columns *and* rows
    /// appended, the prefix untouched.
    pub(crate) fn mcf(nodes: usize, demands: &[f64], caps: &[f64], fakes: &[(usize, f64)]) -> SparseLp {
        let k = demands.len();
        let mut edges: Vec<(usize, usize, f64)> = Vec::new();
        for a in 0..nodes {
            for b in (0..nodes).filter(|&b| b != a) {
                edges.push((a, b, caps[edges.len()]));
            }
        }
        let real = edges.len();
        for &(e, extra) in fakes {
            edges.push((edges[e].0, edges[e].1, extra));
        }
        let ends = |c: usize| (c % nodes, (c + 1 + c / nodes + nodes / 2) % nodes);
        // Row layout: conservation (commodity-major, source and sink
        // skipped), demands, capacities.
        let interior = nodes - 2;
        let cons = |c: usize, v: usize| {
            let (s, t) = ends(c);
            (v != s && v != t).then(|| c * interior + v - (v > s) as usize - (v > t) as usize)
        };
        let dem = k * interior;
        let cap = dem + k;
        let mut b = SparseLpBuilder::new(cap + edges.len());
        for r in 0..dem {
            b.set_row(r, Relation::Eq, 0.0);
        }
        for (c, &d) in demands.iter().enumerate() {
            b.set_row(dem + c, Relation::Le, d);
        }
        for (e, &(from, to, capacity)) in edges.iter().enumerate() {
            b.set_row(cap + e, Relation::Le, capacity);
            for c in 0..k {
                let (s, _) = ends(c);
                let out = (from == s) as i32 as f64 - (to == s) as i32 as f64;
                let mut entries = Vec::new();
                entries.extend(cons(c, from).map(|r| (r, 1.0)));
                entries.extend(cons(c, to).map(|r| (r, -1.0)));
                entries.sort_by_key(|&(r, _)| r);
                if out != 0.0 {
                    entries.push((dem + c, out));
                }
                entries.push((cap + e, 1.0));
                let cost = if e < real { 0.0 } else { 0.01 + 1e-5 * e as f64 };
                b.push_col(out - cost, capacity, &entries);
            }
        }
        b.build()
    }

    /// Seeded capacities over the modulation rungs and demands for
    /// [`mcf`], plus a fake edge up to 200 for every link below it.
    pub(crate) fn mcf_inputs(nodes: usize, k: usize, seed: u64) -> (Vec<f64>, Vec<f64>, Vec<(usize, f64)>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        let caps: Vec<f64> = (0..nodes * (nodes - 1))
            .map(|_| [50.0, 100.0, 150.0, 200.0][(next() * 4.0) as usize])
            .collect();
        let demands = (0..k).map(|_| 100.0 + 400.0 * next()).collect();
        let fakes = (0..caps.len())
            .filter(|&e| caps[e] < 200.0)
            .map(|e| (e, 200.0 - caps[e]))
            .collect();
        (demands, caps, fakes)
    }

    #[test]
    fn appended_rows_and_columns_keep_warm_start() {
        // The K > 1 augmentation shape: every fake edge appends its
        // columns and a capacity row. The appended rows must host their
        // own logicals — with the fake flows at zero that is the static
        // optimum itself, a feasible vertex of the augmented program
        // (Theorem 1), so the solve is a refactorisation plus Phase II.
        let (demands, caps, fakes) = mcf_inputs(5, 3, 1);
        assert!(!fakes.is_empty());
        let base = mcf(5, &demands, &caps, &[]);
        let augmented = mcf(5, &demands, &caps, &fakes);
        assert!(augmented.n_rows() > base.n_rows() && augmented.n_vars() > base.n_vars());
        let mut solver = SparseSimplexSolver::new();
        let first = solver.solve_sparse(&base).expect_optimal();
        let warm = solver.solve_sparse(&augmented).expect_optimal();
        let cold = SparseSimplexSolver::new().solve_sparse(&augmented).expect_optimal();
        assert_near(warm.objective, cold.objective);
        assert!(warm.objective >= first.objective - 1e-6, "G ⊆ G′");
        let stats = solver.stats();
        assert_eq!(stats.cold_solves, 1, "augmentation must not fall back cold: {stats:?}");
        assert_eq!(stats.warm_hits, 1);
        assert_eq!(stats.warm_singular, 0);
        assert_eq!(stats.repair_pivots, 0, "the mapped basis is primal-feasible: {stats:?}");
    }

    #[test]
    fn dropped_rows_and_columns_keep_warm_start() {
        // The reverse step, augmented → base (the next round's static
        // solve): basic fake columns and the appended rows' logicals map
        // to nothing and the lowest free logicals fill in. That basis can
        // be singular (a third to a half of the seeds of this generator;
        // counted in `warm_singular`, then solved cold); on this one it
        // factorises and the chain stays warm in both directions.
        let (demands, caps, fakes) = mcf_inputs(5, 3, 2);
        let base = mcf(5, &demands, &caps, &[]);
        let augmented = mcf(5, &demands, &caps, &fakes);
        let mut solver = SparseSimplexSolver::new();
        for lp in [&base, &augmented, &base, &augmented] {
            let warm = solver.solve_sparse(lp).expect_optimal();
            let cold = SparseSimplexSolver::new().solve_sparse(lp).expect_optimal();
            assert_near(warm.objective, cold.objective);
        }
        let stats = solver.stats();
        assert_eq!(stats.cold_solves, 1, "{stats:?}");
        assert_eq!(stats.warm_hits, 3);
        assert_eq!(stats.warm_singular, 0);
    }

    #[test]
    fn singular_mapped_basis_is_counted_and_solved_cold() {
        let (demands, caps, fakes) = mcf_inputs(5, 3, 1);
        let base = mcf(5, &demands, &caps, &[]);
        let mut solver = SparseSimplexSolver::new();
        solver.solve_sparse(&mcf(5, &demands, &caps, &fakes)).expect_optimal();
        let refused = solver.solve_sparse(&base).expect_optimal();
        let cold = SparseSimplexSolver::new().solve_sparse(&base).expect_optimal();
        assert_near(refused.objective, cold.objective);
        let stats = solver.stats();
        assert_eq!((stats.warm_attempts, stats.warm_singular, stats.cold_solves), (1, 1, 2));
        assert_eq!(stats.warm_hits, 0);
    }

    #[test]
    fn stalling_repair_gives_up_within_m_pivots() {
        // Dual-degenerate (nearly every column is zero-cost, so nearly
        // every dual ratio is zero) and drifted hard: a tenth of the
        // capacities are redrawn and every demand grows by half. The warm
        // basis is dual-feasible and primal-infeasible; without the bound
        // the worst-violation rule wandered for 691 pivots here (5.8 m),
        // twice what the cold solve takes.
        let (nodes, k) = (8, 9);
        let (demands, caps, fakes) = mcf_inputs(nodes, k, 80);
        let (_, redrawn, _) = mcf_inputs(nodes, k, 1080);
        let drifted: Vec<f64> = (0..caps.len())
            .map(|e| if e % 10 == 0 { redrawn[e] } else { caps[e] })
            .collect();
        let grown: Vec<f64> = demands.iter().map(|d| d * 1.5).collect();
        let mut solver = SparseSimplexSolver::new();
        solver.solve_sparse(&mcf(nodes, &demands, &caps, &fakes)).expect_optimal();
        let lp = mcf(nodes, &grown, &drifted, &[]);
        let handed_over = solver.solve_sparse(&lp).expect_optimal();
        let cold = SparseSimplexSolver::new().solve_sparse(&lp).expect_optimal();
        assert_near(handed_over.objective, cold.objective);
        let stats = solver.stats();
        assert_eq!(stats.repair_pivots, lp.n_rows() as u64, "the bound is m: {stats:?}");
        assert_eq!(stats.repair_aborts, 1);
        assert_eq!((stats.warm_attempts, stats.warm_hits, stats.cold_solves), (1, 0, 2));
    }

    #[test]
    fn a_moved_row_index_is_not_a_fast_resolve() {
        // Same n, m, nnz, relations, values and objective; only column 1's
        // entry moves from row 1 to row 0. Reusing the factorisation would
        // answer 7; the program's optimum is 4.
        let lp = |row: usize| {
            let mut b = SparseLpBuilder::new(2);
            b.set_row(0, Relation::Le, 4.0);
            b.set_row(1, Relation::Le, 3.0);
            b.push_col(1.0, f64::INFINITY, &[(0, 1.0)]);
            b.push_col(1.0, f64::INFINITY, &[(row, 1.0)]);
            b.build()
        };
        let mut solver = SparseSimplexSolver::new();
        assert_near(solver.solve_sparse(&lp(1)).expect_optimal().objective, 7.0);
        assert_near(solver.solve_sparse(&lp(0)).expect_optimal().objective, 4.0);
        let stats = solver.stats();
        assert_eq!((stats.warm_attempts, stats.cold_solves), (0, 2), "{stats:?}");
    }

    #[test]
    fn stats_accumulate_consistently() {
        let mut solver = SparseSimplexSolver::new();
        for i in 0..5 {
            let lp = textbook(4.0 + i as f64 * 0.1, 12.0, 18.0);
            solver.solve_sparse(&lp).expect_optimal();
        }
        let stats = solver.stats();
        assert!(stats.warm_hits <= stats.warm_attempts);
        assert_eq!(stats.cold_solves + stats.warm_hits, 5);
        assert!(stats.pivots > 0);
        assert!(stats.refactorizations >= 1, "cold solve always factorises");
        assert!(stats.eta_updates <= stats.pivots);
        assert!(stats.warm_hit_rate() >= 0.0 && stats.warm_hit_rate() <= 1.0);
    }

    #[test]
    fn reset_forces_cold() {
        let mut solver = SparseSimplexSolver::new();
        solver.solve_sparse(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        solver.reset();
        solver.solve_sparse(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        assert_eq!(solver.stats().warm_attempts, 0);
        assert_eq!(solver.stats().cold_solves, 2);
    }

    #[test]
    fn generous_watchdog_never_fires() {
        let mut solver = SparseSimplexSolver::new();
        solver.set_solve_timeout(Some(Duration::from_secs(60)));
        solver.solve_sparse(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        assert_eq!(solver.stats().watchdog_aborts, 0);
    }

    #[test]
    fn watchdog_turns_runaway_cold_solve_into_stalled() {
        let mut solver = SparseSimplexSolver::new();
        solver.set_solve_timeout(Some(Duration::from_millis(1)));
        solver.set_pivot_delay(Some(Duration::from_millis(10)));
        let outcome = solver.solve_sparse(&textbook(4.0, 12.0, 18.0));
        assert_eq!(outcome, LpOutcome::Stalled);
        assert_eq!(solver.stats().watchdog_aborts, 1);
    }

    #[test]
    fn watchdog_aborted_warm_attempt_falls_back_to_cold() {
        let mut solver = SparseSimplexSolver::new();
        solver.solve_sparse(&textbook(4.0, 12.0, 18.0)).expect_optimal();
        let cold_before = solver.stats().cold_solves;
        solver.set_solve_timeout(Some(Duration::from_millis(1)));
        solver.set_pivot_delay(Some(Duration::from_millis(10)));
        let outcome = solver.solve_sparse(&textbook(4.0, 12.0, 17.0));
        assert_eq!(outcome, LpOutcome::Stalled);
        let stats = solver.stats();
        assert!(stats.watchdog_aborts >= 2, "stats: {stats:?}");
        assert_eq!(stats.cold_solves, cold_before + 1);
        solver.set_solve_timeout(None);
        solver.set_pivot_delay(None);
        solver.solve_sparse(&textbook(4.0, 12.0, 17.0)).expect_optimal();
    }

    #[test]
    fn budget_exhaustion_stalls() {
        let lp = textbook(4.0, 12.0, 18.0);
        let outcome = SparseSimplexSolver::new().solve_sparse_with_budget(&lp, 0);
        assert_eq!(outcome, LpOutcome::Stalled);
    }
}
