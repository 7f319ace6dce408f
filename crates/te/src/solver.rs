//! The unified TE solver front-end.
//!
//! [`TeSolver::builder()`] collects every knob (objective, weight,
//! watchdog, warm-start policy, observer) in one validating builder:
//!
//! ```
//! use rwc_te::solver::{TeSolver, WarmStartPolicy};
//! use rwc_te::formulation::TeObjective;
//! use std::time::Duration;
//!
//! let solver = TeSolver::builder()
//!     .objective(TeObjective::MaxConcurrentFlow)
//!     .solve_timeout(Duration::from_secs(5))
//!     .warm_start(WarmStartPolicy::Retain)
//!     .build()
//!     .expect("valid configuration");
//! assert_eq!(rwc_te::TeAlgorithm::name(&solver), "exact-lp:max-concurrent-flow");
//! ```
//!
//! One `TeSolver` owns the simplex engine and the warm-start state that
//! persists across `try_solve` calls, across the whole objective zoo of
//! [`crate::formulation`]. It also keeps the LP it last solved: lowering is
//! per shape, so a problem with the last one's shape (same graph and
//! commodities, only capacities, costs and demands moved) has its values
//! rewritten in place rather than its LP rebuilt. A debug build checks the
//! result against a fresh lowering on every solve.
//!
//! Every lowering is feasible at the origin and bounded, so the engine
//! answers an optimum or `Stalled`. An optimum is checked against its
//! certificate ([`rwc_lp::certify`]) before it is returned — in a debug
//! build on every solve, in a release build on the 1st, 65th, 129th …
//! solve of each solver (its own solve count modulo `CERTIFY_EVERY` = 64,
//! so a run is as deterministic as its inputs);
//! [`TeSolver::solve_certified`] checks in any build and hands the
//! residuals back. Each check run counts `te.certified`. A
//! refused certificate panics with the objective and the residuals, in
//! every build: it is a solver bug, like a failed `assert!`, not a
//! property of the problem.

use crate::formulation::{RetainedLp, TeFormulation, TeObjective, TeSolve};
use crate::problem::{TeProblem, TeSolution};
use crate::{TeAlgorithm, TeError};
use rwc_lp::{Certificate, LpOutcome, SolverStats, SparseSimplexSolver};
use rwc_obs::{ColdReason, Event, Observer};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// A release-build `TeSolver` certifies one solve in this many — its 1st,
/// 65th, 129th … — and a debug build every solve.
pub(crate) const CERTIFY_EVERY: u64 = 64;

/// Whether solver state (the last optimal basis) survives across solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStartPolicy {
    /// Keep the basis: consecutive similar problems warm-resolve. The
    /// default, and what the round engine wants.
    #[default]
    Retain,
    /// Reset the engine before every solve: every round is a cold solve.
    /// For A/B benchmarking and for workloads whose successive problems
    /// share nothing.
    AlwaysCold,
}

/// Builder for [`TeSolver`] — collect the configuration, validate once.
#[derive(Debug, Clone)]
pub struct TeSolverBuilder {
    objective: TeObjective,
    throughput_weight: f64,
    solve_timeout: Option<Duration>,
    warm_start: WarmStartPolicy,
    observer: Arc<dyn Observer>,
}

impl Default for TeSolverBuilder {
    fn default() -> Self {
        Self {
            objective: TeObjective::MaxThroughput,
            throughput_weight: 1e6,
            solve_timeout: None,
            warm_start: WarmStartPolicy::Retain,
            observer: rwc_obs::noop(),
        }
    }
}

impl TeSolverBuilder {
    /// Sets the objective (default [`TeObjective::MaxThroughput`]).
    pub fn objective(mut self, objective: TeObjective) -> Self {
        self.objective = objective;
        self
    }

    /// Sets the headline-quantity weight relative to one unit of edge
    /// cost (default `1e6`). Validated finite and positive.
    pub fn throughput_weight(mut self, weight: f64) -> Self {
        self.throughput_weight = weight;
        self
    }

    /// Arms the solve-deadline watchdog: a warm attempt past the deadline
    /// aborts into the cold-fallback path, a cold attempt past it surfaces
    /// as [`TeError::SolverTimeout`] instead of hanging the round.
    pub fn solve_timeout(mut self, timeout: Duration) -> Self {
        self.solve_timeout = Some(timeout);
        self
    }

    /// Sets the warm-start policy (default [`WarmStartPolicy::Retain`]).
    pub fn warm_start(mut self, policy: WarmStartPolicy) -> Self {
        self.warm_start = policy;
        self
    }

    /// Attaches an observer: per-solve `lp.*` counters plus
    /// [`Event::WarmSolve`]/[`Event::ColdFallback`] events. Observation is
    /// a pure sidecar — solutions are byte-identical with it on or off.
    pub fn observer(mut self, obs: Arc<dyn Observer>) -> Self {
        self.observer = obs;
        self
    }

    /// Validates the configuration and builds the solver.
    pub fn build(self) -> Result<TeSolver, TeError> {
        let formulation = TeFormulation {
            objective: self.objective,
            throughput_weight: self.throughput_weight,
        };
        formulation.validate()?;
        let solver = TeSolver {
            formulation,
            warm_start: self.warm_start,
            solver: RefCell::default(),
            retained: RefCell::default(),
            obs: self.observer,
        };
        solver.set_solve_timeout(self.solve_timeout);
        Ok(solver)
    }
}

/// The unified TE solver: one objective, persistent warm-start state,
/// optional observer and watchdog.
#[derive(Debug)]
pub struct TeSolver {
    formulation: TeFormulation,
    warm_start: WarmStartPolicy,
    solver: RefCell<SparseSimplexSolver>,
    /// The LP of the last solve, refreshed in place while the problem's
    /// shape holds (see [`TeFormulation::lower_retained`]).
    retained: RefCell<Option<RetainedLp>>,
    obs: Arc<dyn Observer>,
}

impl Default for TeSolver {
    fn default() -> Self {
        TeSolver::builder().build().expect("default configuration is valid")
    }
}

impl TeSolver {
    /// Starts a builder with the defaults: max-throughput objective,
    /// weight `1e6`, no watchdog, warm starts retained.
    pub fn builder() -> TeSolverBuilder {
        TeSolverBuilder::default()
    }

    /// The objective this solver optimises.
    pub fn objective(&self) -> &TeObjective {
        &self.formulation.objective
    }

    /// The formulation (objective + weight) this solver lowers through.
    pub fn formulation(&self) -> &TeFormulation {
        &self.formulation
    }

    /// Re-arms (or disarms, with `None`) the solve-deadline watchdog.
    pub fn set_solve_timeout(&self, timeout: Option<Duration>) {
        self.solver.borrow_mut().set_solve_timeout(timeout);
    }

    /// Chaos hook: sleeps this long before every simplex pivot, forcing a
    /// slow solve so watchdog behaviour can be driven deterministically.
    pub fn set_pivot_delay(&self, delay: Option<Duration>) {
        self.solver.borrow_mut().set_pivot_delay(delay);
    }

    /// Replaces the observer after construction.
    pub fn set_observer(&mut self, obs: Arc<dyn Observer>) {
        self.obs = obs;
    }

    /// Replaces the objective *without* dropping warm-start state — the
    /// round-loop entry point for drifting inputs that live inside the
    /// objective (min-MLU traffic matrices above all). A same-shaped
    /// objective keeps the warm start: new min-MLU volumes rewrite the
    /// values of the `λ` column, so the next solve maps the saved basis
    /// through the unchanged pattern (a warm start, not the fast resolve
    /// that capacity drift takes). A different shape — another objective,
    /// or an envelope moving to or from 0 — changes the LP layout, and the
    /// next solve falls back to cold via the ordinary structural-mismatch
    /// route.
    pub fn set_objective(&mut self, objective: TeObjective) -> Result<(), TeError> {
        let next = TeFormulation { objective, throughput_weight: self.formulation.throughput_weight };
        next.validate()?;
        self.formulation = next;
        Ok(())
    }

    /// Solves and returns the full objective-specific result (`mlu`, `λ`,
    /// reduction sets) alongside the [`TeSolution`], certified as the
    /// module docs describe.
    pub fn solve_detailed(&self, problem: &TeProblem) -> Result<TeSolve, TeError> {
        self.solve_inner(problem, false).map(|(solve, _)| solve)
    }

    /// [`Self::solve_detailed`] with the certificate checked whatever the
    /// build and the solve count, plus the optimum's residuals (primal,
    /// dual and gap of the LP point against the solver's own multipliers).
    pub fn solve_certified(&self, problem: &TeProblem) -> Result<(TeSolve, Certificate), TeError> {
        self.solve_inner(problem, true)
    }

    /// Lower (into the retained LP), solve, certify (always with `force`,
    /// else as the module docs say), extract. The certificate handed back is the optimum's, or an
    /// all-zero one when there was no check or nothing to route.
    fn solve_inner(
        &self,
        problem: &TeProblem,
        force: bool,
    ) -> Result<(TeSolve, Certificate), TeError> {
        if let Some(idle) = self.formulation.idle_solve(problem)? {
            return Ok((idle, Certificate::default()));
        }
        let mut retained = self.retained.borrow_mut();
        let (lowered, sp) = self.formulation.lower_retained(problem, &mut retained)?;
        debug_assert!(
            *sp == self.formulation.lower(problem)?.sparse_lp(),
            "{}: the LP refreshed in place differs from a fresh lowering",
            self.formulation.name()
        );
        let mut solver = self.solver.borrow_mut();
        if self.warm_start == WarmStartPolicy::AlwaysCold {
            solver.reset();
        }
        let before = solver.stats();
        let outcome = solver.solve_sparse(sp);
        // Every solve ends as a warm hit or a cold solve: their sum counts
        // the solves before this one.
        let sampled = (before.cold_solves + before.warm_hits).is_multiple_of(CERTIFY_EVERY);
        let checked = match &outcome {
            LpOutcome::Optimal(point) if force || sampled || cfg!(debug_assertions) => {
                Some(rwc_lp::certify(sp, &point.x, solver.duals()))
            }
            _ => None,
        };
        let after = solver.stats();
        drop(solver);
        let certificate = match checked {
            Some(Ok(certificate)) => certificate,
            Some(Err(refused)) => {
                panic!(
                    "{}: optimality certificate refused: {refused}",
                    self.formulation.name()
                )
            }
            None => Certificate::default(),
        };
        if self.obs.enabled() {
            self.publish_solve(before, after);
            if checked.is_some() {
                self.obs.incr("te.certified", 1);
            }
        }
        Ok((lowered.extract_sparse(outcome)?, certificate))
    }

    /// Publishes the delta between two [`SolverStats`] readings.
    fn publish_solve(&self, before: SolverStats, after: SolverStats) {
        let pivots = after.pivots - before.pivots;
        self.obs.incr("lp.pivots", pivots);
        self.obs.incr("lp.warm_attempts", after.warm_attempts - before.warm_attempts);
        self.obs.incr("lp.warm_hits", after.warm_hits - before.warm_hits);
        self.obs.incr("lp.cold_solves", after.cold_solves - before.cold_solves);
        self.obs.incr("lp.eta_updates", after.eta_updates - before.eta_updates);
        self.obs.incr("lp.refactorizations", after.refactorizations - before.refactorizations);
        self.obs.incr("lp.pricing_scans", after.pricing_scans - before.pricing_scans);
        self.obs.incr("lp.warm_singular", after.warm_singular - before.warm_singular);
        self.obs.incr("lp.repair_aborts", after.repair_aborts - before.repair_aborts);
        self.obs.incr("lp.repair_pivots", after.repair_pivots - before.repair_pivots);
        let aborts = after.watchdog_aborts - before.watchdog_aborts;
        if after.warm_hits > before.warm_hits {
            self.obs.event(&Event::WarmSolve { pivots });
        } else if after.cold_solves > before.cold_solves {
            // The refusals leave one counter each; the precheck of dual
            // repair leaves none, so it is what remains of a warm attempt.
            let reason = if after.warm_attempts == before.warm_attempts {
                ColdReason::NoBasis
            } else if aborts > 0 {
                ColdReason::Watchdog
            } else if after.warm_singular > before.warm_singular {
                ColdReason::Singular
            } else if after.repair_aborts > before.repair_aborts {
                ColdReason::RepairAborted
            } else {
                ColdReason::NotDualFeasible
            };
            self.obs.event(&Event::ColdFallback { pivots, reason });
        }
        if aborts > 0 {
            self.obs.incr("lp.watchdog_aborts", aborts);
            self.obs.event(&Event::WatchdogAbort { pivots });
        }
        let total = after.warm_attempts;
        if total > 0 {
            self.obs.gauge("te.warm_hit_rate", after.warm_hits as f64 / total as f64);
        }
    }
}

impl TeAlgorithm for TeSolver {
    fn name(&self) -> &'static str {
        self.formulation.name()
    }

    fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError> {
        self.solve_detailed(problem).map(|d| d.solution)
    }

    fn warm_stats(&self) -> Option<SolverStats> {
        Some(self.solver.borrow().stats())
    }

    fn solve_fingerprint(&self) -> u64 {
        self.formulation.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{DemandMatrix, Priority};
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    fn fig7_problem(volume: f64) -> TeProblem {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(volume), Priority::Elastic);
        TeProblem::from_wan(&wan, &dm)
    }

    #[test]
    fn default_solver_saturates_caps_and_handles_empty() {
        // A's outgoing capacity is 200 (A-B + A-C): demand above it
        // saturates at exactly 200, demand below it is fully routed, and
        // an empty matrix routes nothing.
        for (volume, want) in [(300.0, 200.0), (30.0, 30.0)] {
            let p = fig7_problem(volume);
            let sol = TeSolver::default().try_solve(&p).expect("TE solve");
            sol.validate(&p).unwrap();
            assert!((sol.total - want).abs() < 1e-6, "volume {volume}: total={}", sol.total);
        }
        let empty = TeProblem::from_wan(&builders::fig7_example(), &DemandMatrix::new());
        assert_eq!(TeSolver::default().try_solve(&empty).expect("TE solve").total, 0.0);
    }

    #[test]
    fn severed_min_mlu_is_refused_at_a_certified_zero_lambda() {
        // Both of A's exits at 0 G: no positive multiple of the 150 G A→B
        // envelope leaves A, so min-MLU refuses with `SolverAbort` and
        // names the commodity. The proof is the λ-LP's own optimum, λ* = 0,
        // certified from the engine's primal and dual vectors; with the
        // cost tie-break dropped the objective is `weight · λ`, and the
        // duals' bound on it over every feasible point is exactly 0.
        let mut p = fig7_problem(150.0);
        for link in [0, 2] {
            p.override_link_capacity(rwc_topology::wan::LinkId(link), 0.0);
        }
        let objective = TeObjective::MinMlu {
            traffic_matrices: vec![vec![150.0]],
        };
        let solver = TeSolver::builder().objective(objective).build().unwrap();
        let refused = solver.try_solve(&p);
        assert!(
            matches!(&refused, Err(TeError::SolverAbort { detail, .. })
                if detail.contains("commodity 0")),
            "{refused:?}"
        );
        let mut lp = solver.formulation().lower(&p).unwrap().sparse_lp();
        for costless in [false, true] {
            if costless {
                lp.objective[1..].iter_mut().for_each(|c| *c = 0.0);
            }
            let mut engine = SparseSimplexSolver::new();
            let LpOutcome::Optimal(point) = engine.solve_sparse(&lp) else {
                panic!("the λ-LP always has an optimum")
            };
            assert_eq!(point.x[0], 0.0, "λ*");
            let y = engine.duals();
            rwc_lp::certify(&lp, &point.x, y).unwrap();
            // Dual bound on c·x over every feasible x: y·b plus each
            // bounded column's upper bound times its positive reduced cost.
            let reach: f64 = (0..lp.n_vars())
                .filter(|&j| lp.upper[j].is_finite())
                .map(|j| {
                    let (rows, vals) = lp.a.col(j);
                    let ya: f64 = rows.iter().zip(vals).map(|(&r, &v)| y[r] * v).sum();
                    lp.upper[j] * (lp.objective[j] - ya).max(0.0)
                })
                .sum();
            let yb: f64 = y.iter().zip(&lp.rhs).map(|(yr, b)| yr * b).sum();
            assert!((yb + reach).abs() < 1e-9, "dual bound {}", yb + reach);
        }
    }

    #[test]
    fn stranded_demand_certifies_a_zero_optimum() {
        // Sink 4 has no edge at all: the optimum routes nothing. Its dual
        // objective is a sum of bound terms whose reduced costs cancel
        // 1e6-sized summands and land on ~1e-16 rather than 0, so the gap
        // is measured against those summands, not against |c·x| = 0.
        let mut net = rwc_flow::network::FlowNetwork::new(5);
        net.add_edge(0, 2, 13.852597145338395, 7.655785127151828);
        net.add_edge(2, 1, 9.670034774025012, 2.5106764514238646);
        net.add_edge(1, 3, 13.082883278833664, 3.285072653241942);
        let p = crate::flows::te_problem(&net, &[(0, 4, 37.60551519819707)]);
        let (solve, certificate) = TeSolver::default().solve_certified(&p).unwrap();
        assert_eq!(solve.solution.total, 0.0);
        assert!(certificate.gap <= rwc_lp::CERTIFICATE_TOL, "{certificate}");
    }

    #[test]
    fn te_certified_counts_the_sampled_solves() {
        let metrics = Arc::new(rwc_obs::MetricsObserver::new());
        let solver = TeSolver::builder()
            .observer(metrics.clone())
            .build()
            .unwrap();
        let n = 2 * CERTIFY_EVERY + 2;
        for round in 0..n {
            let mut p = fig7_problem(120.0);
            p.net.set_capacity(0, 80.0 + (round % 7) as f64 * 10.0);
            solver.try_solve(&p).unwrap();
        }
        let want = if cfg!(debug_assertions) {
            n
        } else {
            n.div_ceil(CERTIFY_EVERY)
        };
        assert_eq!(metrics.snapshot().counters["te.certified"], want);
    }

    #[test]
    fn builder_rejects_invalid_weight() {
        for w in [f64::NAN, 0.0, -3.0, f64::INFINITY] {
            let res = TeSolver::builder().throughput_weight(w).build();
            assert!(
                matches!(res, Err(TeError::InvalidConfig { .. })),
                "weight {w} must be rejected"
            );
        }
    }

    #[test]
    fn builder_rejects_ragged_traffic_matrices() {
        let res = TeSolver::builder()
            .objective(TeObjective::MinMlu {
                traffic_matrices: vec![vec![1.0, 2.0], vec![3.0]],
            })
            .build();
        assert!(matches!(res, Err(TeError::InvalidConfig { .. })));
    }

    #[test]
    fn warm_start_policy_always_cold_never_warms() {
        let p = fig7_problem(120.0);
        let cold = TeSolver::builder().warm_start(WarmStartPolicy::AlwaysCold).build().unwrap();
        let retain = TeSolver::builder().build().unwrap();
        for cap in [100.0, 90.0, 110.0, 95.0] {
            let mut round = p.clone();
            round.net.set_capacity(0, cap);
            let a = cold.try_solve(&round).expect("TE solve");
            let b = retain.try_solve(&round).expect("TE solve");
            assert!((a.total - b.total).abs() < 1e-6);
        }
        let cold_stats = cold.warm_stats().unwrap();
        assert_eq!(cold_stats.warm_attempts, 0, "{cold_stats:?}");
        assert_eq!(cold_stats.cold_solves, 4, "{cold_stats:?}");
        let retain_stats = retain.warm_stats().unwrap();
        assert!(retain_stats.warm_attempts >= 3, "{retain_stats:?}");
    }

    #[test]
    fn watchdog_surfaces_typed_timeout_per_objective() {
        let p = fig7_problem(300.0);
        for objective in [TeObjective::MaxThroughput, TeObjective::MaxConcurrentFlow] {
            let name = objective.algorithm_name();
            let solver = TeSolver::builder().objective(objective).build().unwrap();
            solver.set_solve_timeout(Some(Duration::ZERO));
            solver.set_pivot_delay(Some(Duration::from_millis(10)));
            match solver.try_solve(&p) {
                Err(TeError::SolverTimeout { algorithm, .. }) => assert_eq!(algorithm, name),
                other => panic!("{name}: expected SolverTimeout, got {other:?}"),
            }
            solver.set_solve_timeout(None);
            solver.set_pivot_delay(None);
            solver.try_solve(&p).expect("solves after disarm");
        }
    }

    #[test]
    fn observer_counters_published() {
        let p = fig7_problem(120.0);
        let metrics = Arc::new(rwc_obs::MetricsObserver::new());
        let solver = TeSolver::builder().observer(metrics.clone()).build().unwrap();
        for cap in [100.0, 80.0, 120.0] {
            let mut round = p.clone();
            round.net.set_capacity(0, cap);
            solver.try_solve(&round).unwrap();
        }
        let snap = metrics.snapshot();
        assert!(snap.counters["lp.refactorizations"] >= 1, "{snap:?}");
        assert!(snap.counters.contains_key("lp.eta_updates"), "{snap:?}");
        assert!(snap.counters.contains_key("lp.pricing_scans"), "{snap:?}");
    }

    #[test]
    fn static_then_augmented_solve_is_one_warm_chain() {
        // A TE round's two solves on one solver: the static problem, then
        // the same state with a fake edge pair on every link. With more
        // than one commodity each fake edge appends a capacity row as well
        // as its columns; the static optimum is a vertex of the augmented
        // LP (Theorem 1), so the second solve must start from it.
        let wan = builders::scaled_mesh(2, 500.0);
        let dm = DemandMatrix::gravity(&wan, Gbps(4000.0), 7);
        assert!(dm.demands().len() > 1);
        let base = TeProblem::from_wan(&wan, &dm);
        let mut augmented = base.clone();
        for (id, _) in wan.links() {
            for forward in [true, false] {
                let real = base.net.edge(2 * id.0 + usize::from(!forward));
                augmented.net.add_edge(real.from, real.to, real.capacity, real.cost + 1.0);
                augmented.origins.push(crate::problem::EdgeOrigin::Fake { link: id, forward });
            }
        }
        let metrics = Arc::new(rwc_obs::MetricsObserver::new());
        let chained = TeSolver::builder().observer(metrics.clone()).build().unwrap();
        let static_total = chained.try_solve(&base).expect("TE solve").total;
        let warm = chained.try_solve(&augmented).expect("TE solve");
        let cold = TeSolver::default().try_solve(&augmented).expect("TE solve");
        assert!((warm.total - cold.total).abs() < 1e-6, "{} vs {}", warm.total, cold.total);
        assert!(warm.total > static_total + 1.0, "the fake capacity is worth using");
        let stats = chained.warm_stats().unwrap();
        assert_eq!(stats.cold_solves, 1, "augmented solve went cold: {stats:?}");
        assert_eq!((stats.warm_hits, stats.warm_singular, stats.repair_pivots), (1, 0, 0));
        let snap = metrics.snapshot();
        for name in ["lp.warm_singular", "lp.repair_aborts", "lp.repair_pivots"] {
            assert_eq!(snap.counters[name], 0, "{name}");
        }
    }

    #[test]
    fn cold_fallback_carries_its_reason() {
        #[derive(Debug, Default)]
        struct Reasons(std::sync::Mutex<Vec<ColdReason>>);
        impl Observer for Reasons {
            fn event(&self, event: &Event) {
                if let Event::ColdFallback { reason, .. } = event {
                    self.0.lock().unwrap().push(*reason);
                }
            }
        }
        let reasons = Arc::new(Reasons::default());
        let solver = TeSolver::builder().observer(reasons.clone()).build().unwrap();
        let cold = SolverStats { cold_solves: 1, ..SolverStats::default() };
        let refused = SolverStats { warm_attempts: 1, ..cold };
        let cases = [
            (cold, ColdReason::NoBasis),
            (SolverStats { warm_singular: 1, ..refused }, ColdReason::Singular),
            (SolverStats { repair_aborts: 1, repair_pivots: 9, ..refused }, ColdReason::RepairAborted),
            (refused, ColdReason::NotDualFeasible),
            // A watchdog abort inside repair also counts a repair abort.
            (SolverStats { watchdog_aborts: 1, repair_aborts: 1, ..refused }, ColdReason::Watchdog),
        ];
        for (after, _) in &cases {
            solver.publish_solve(SolverStats::default(), *after);
        }
        // A warm hit reports no fallback at all.
        solver.publish_solve(
            SolverStats::default(),
            SolverStats { warm_attempts: 1, warm_hits: 1, ..SolverStats::default() },
        );
        let want: Vec<ColdReason> = cases.iter().map(|&(_, reason)| reason).collect();
        assert_eq!(*reasons.0.lock().unwrap(), want);
    }

    #[test]
    fn fingerprints_depend_on_objective_and_weight() {
        let a = TeSolver::builder().build().unwrap();
        let b = TeSolver::builder().throughput_weight(1e5).build().unwrap();
        let c = TeSolver::builder().objective(TeObjective::MaxConcurrentFlow).build().unwrap();
        assert_ne!(a.solve_fingerprint(), b.solve_fingerprint());
        assert_ne!(a.solve_fingerprint(), c.solve_fingerprint());
        assert_eq!(a.solve_fingerprint(), TeSolver::default().solve_fingerprint());
        // Stateless heuristics keep the default 0.
        assert_eq!(crate::swan::SwanTe::default().solve_fingerprint(), 0);
    }

    #[test]
    fn min_mlu_warm_hit_rate_under_tm_drift_matches_fast_resolve() {
        // Capacities are rhs values and bounds of the λ-LP, so capacity
        // drift is the engine's fast resolve: a warm hit every round on the
        // retained factorisation, no refactorisation. Traffic-matrix drift
        // rewrites λ's values, so it takes the mapped warm start: still a
        // hit every round, each on a refactorised basis.
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let c = wan.node_by_name("C").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(100.0), Priority::Elastic);
        dm.add(c, d, Gbps(100.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let rounds = 8usize;
        let round_objective = |round: usize| {
            let scale = 0.6 + 0.05 * round as f64;
            TeObjective::MinMlu {
                traffic_matrices: vec![
                    vec![100.0 * scale, 40.0],
                    vec![30.0, 100.0 * scale],
                ],
            }
        };
        let mut warm = TeSolver::builder().objective(round_objective(0)).build().unwrap();
        warm.solve_detailed(&p).unwrap();
        let cold = warm.warm_stats().unwrap();
        assert_eq!((cold.cold_solves, cold.warm_attempts), (1, 0), "{cold:?}");

        // Capacity drift, ±9 % per link.
        for round in 1..rounds {
            let mut q = p.clone();
            for l in 0..wan.n_links() {
                let drift = 0.91 + 0.03 * ((round * (l + 3)) % 7) as f64;
                let link = rwc_topology::wan::LinkId(l);
                q.override_link_capacity(link, wan.link(link).capacity().value() * drift);
            }
            let mlu = warm.solve_detailed(&q).unwrap().mlu.unwrap();
            let fresh = TeSolver::builder()
                .objective(round_objective(0))
                .warm_start(WarmStartPolicy::AlwaysCold)
                .build()
                .unwrap();
            let want = fresh.solve_detailed(&q).unwrap().mlu.unwrap();
            assert!((mlu - want).abs() <= 1e-9, "round {round}: warm {mlu} vs cold {want}");
        }
        let fast = warm.warm_stats().unwrap();
        assert_eq!(fast.cold_solves, 1, "capacity drift went cold: {fast:?}");
        assert_eq!(fast.warm_hits, (rounds - 1) as u64, "{fast:?}");
        assert_eq!(
            fast.refactorizations, cold.refactorizations,
            "capacity drift must fast-resolve on the retained factorisation: {fast:?}"
        );

        // Traffic-matrix drift on the base capacities.
        let mut results = Vec::new();
        for round in 0..rounds {
            warm.set_objective(round_objective(round)).unwrap();
            results.push(warm.solve_detailed(&p).unwrap().mlu.unwrap());
        }
        let stats = warm.warm_stats().unwrap();
        assert_eq!(stats.cold_solves, 1, "tm drift went cold: {stats:?}");
        assert_eq!(stats.warm_attempts, 2 * (rounds - 1) as u64 + 1, "{stats:?}");
        assert_eq!(stats.warm_hits, stats.warm_attempts, "tm drift must stay warm: {stats:?}");
        // And the answers track the drift (monotone non-decreasing load).
        for w in results.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "mlu should grow with the load: {results:?}");
        }
    }

    #[test]
    fn min_mlu_survives_a_failure_state_stream() {
        // One long-lived min-MLU solver over four chunks of a capacity
        // stream on `scaled_mesh(4)` with upgrade rungs on every third
        // link: the base state, 24 states of ±9 % drift, then 8 failure
        // states with two links crawling to 50 G, the last of them also
        // cutting a link to 0. Every state is answered warm, within the
        // watchdog, and as an always-cold solver answers it.
        let wan = builders::scaled_mesh(4, 500.0);
        let pick = |name: String| wan.node_by_name(&name).unwrap();
        let mut dm = DemandMatrix::new();
        for i in 0..4 {
            let (s, t) = (pick(format!("S{i}-{}", 3 + i % 3)), pick(format!("S{}-4", (i + 1) % 4)));
            dm.add(s, t, Gbps(60.0), Priority::Elastic);
        }
        dm.add(pick("S0-5".into()), pick("S3-5".into()), Gbps(80.0), Priority::Elastic);
        let mut base = TeProblem::from_wan(&wan, &dm);
        let n_links = wan.n_links();
        for l in (0..n_links).step_by(3) {
            for forward in [true, false] {
                let real = base.net.edge(2 * l + usize::from(!forward));
                base.net.add_edge(real.from, real.to, real.capacity, real.cost + 1.0);
                let link = rwc_topology::wan::LinkId(l);
                base.origins.push(crate::problem::EdgeOrigin::Fake { link, forward });
            }
        }
        let volumes: Vec<f64> = base.commodities.iter().map(|c| c.demand).collect();
        let traffic_matrices = (0..3)
            .map(|j| {
                let phase = |i: usize| 0.7 + 0.15 * j as f64 + 0.1 * ((i + j) % 3) as f64;
                volumes.iter().enumerate().map(|(i, v)| v * phase(i)).collect()
            })
            .collect();
        let objective = TeObjective::MinMlu { traffic_matrices };
        // Real edge capacities mapped through `cap(link, capacity)`.
        let state = |cap: &dyn Fn(usize, f64) -> f64| {
            let mut p = base.clone();
            for (ei, origin) in base.origins.iter().enumerate() {
                if let crate::problem::EdgeOrigin::Real { link, .. } = origin {
                    p.net.set_capacity(ei, cap(link.0, base.net.edge(ei).capacity));
                }
            }
            p
        };
        let mut states = Vec::new();
        for chunk in 0..4 {
            states.push(base.clone());
            for d in chunk * 24..(chunk + 1) * 24 {
                states.push(state(&|l, c| c * (0.91 + 0.03 * ((d * (l + 3)) % 7) as f64)));
            }
            for f in chunk * 8..(chunk + 1) * 8 {
                let crawl = [(7 * f + 1) % n_links, (13 * f + 5) % n_links];
                let cut = (f % 8 == 7).then_some((29 * f + 11) % n_links);
                states.push(state(&|l, c| match l {
                    _ if cut == Some(l) => 0.0,
                    _ if crawl.contains(&l) => c.min(50.0),
                    _ => c,
                }));
            }
        }
        let timeout = Duration::from_secs(2);
        let warm = TeSolver::builder()
            .objective(objective.clone())
            .solve_timeout(timeout)
            .build()
            .unwrap();
        let cold = TeSolver::builder()
            .objective(objective)
            .solve_timeout(timeout)
            .warm_start(WarmStartPolicy::AlwaysCold)
            .build()
            .unwrap();
        for (i, p) in states.iter().enumerate() {
            let w = warm.solve_detailed(p).unwrap_or_else(|e| panic!("state {i}: {e}"));
            let c = cold.solve_detailed(p).unwrap_or_else(|e| panic!("state {i}, cold: {e}"));
            let (w, c) = (w.mlu.unwrap(), c.mlu.unwrap());
            assert!((w - c).abs() <= 1e-6 * (1.0 + c), "state {i}: warm {w} vs cold {c}");
        }
        let stats = warm.warm_stats().unwrap();
        assert_eq!(stats.watchdog_aborts, 0, "{stats:?}");
        assert!(stats.warm_hit_rate() >= 0.95, "{stats:?}");
        assert_eq!(stats.warm_attempts, states.len() as u64 - 1, "{stats:?}");
    }
}
