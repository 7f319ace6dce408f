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
//! [`crate::formulation`]. In a debug build every optimal solve is checked
//! against its own optimality certificate ([`rwc_lp::certify`]) before it
//! is returned; [`TeSolver::solve_certified`] does so in any build and
//! hands the residuals back.

use crate::formulation::{TeFormulation, TeObjective, TeSolve};
use crate::problem::{TeProblem, TeSolution};
use crate::{TeAlgorithm, TeError};
use rwc_lp::{Certificate, CertificateError, LpOutcome, SolverStats, SparseSimplexSolver};
use rwc_obs::{ColdReason, Event, Observer};
use std::cell::RefCell;
use std::sync::Arc;
use std::time::Duration;

/// Whether solver state (the last optimal basis) survives across solves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmStartPolicy {
    /// Keep the basis: consecutive similar problems warm-resolve. The
    /// default, and what the incremental round engine wants.
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
    /// objective (e.g. new TM volumes) keeps the fast-resolve path alive;
    /// a different shape changes the LP layout and the next solve falls
    /// back to cold via the ordinary structural-mismatch route.
    pub fn set_objective(&mut self, objective: TeObjective) -> Result<(), TeError> {
        let next = TeFormulation { objective, throughput_weight: self.formulation.throughput_weight };
        next.validate()?;
        self.formulation = next;
        Ok(())
    }

    /// Solves and returns the full objective-specific result (`mlu`, `λ`,
    /// reduction sets) alongside the [`TeSolution`]. In a debug build an
    /// optimal solve that fails its optimality certificate panics with
    /// the three residuals — that is a solver bug, not a property of the
    /// problem; a release build does not run the check.
    pub fn solve_detailed(&self, problem: &TeProblem) -> Result<TeSolve, TeError> {
        let (solve, certificate) = self.solve_inner(problem, cfg!(debug_assertions))?;
        if let Err(refused) = certificate {
            panic!("{}: optimality certificate refused: {refused}", self.formulation.name());
        }
        Ok(solve)
    }

    /// [`Self::solve_detailed`] plus the solve's optimality certificate
    /// (primal, dual and gap residuals of the LP point against the
    /// solver's own multipliers), checked in any build. A refused
    /// certificate is a [`TeError::SolverAbort`].
    pub fn solve_certified(&self, problem: &TeProblem) -> Result<(TeSolve, Certificate), TeError> {
        let (solve, certificate) = self.solve_inner(problem, true)?;
        let certificate = certificate.map_err(|refused| TeError::SolverAbort {
            algorithm: self.formulation.name(),
            detail: format!("optimality certificate refused: {refused}"),
        })?;
        Ok((solve, certificate))
    }

    /// Lower, solve, extract; with `certify`, the optimal LP point is also
    /// checked against the multipliers the solve left behind (without it,
    /// and for a problem with nothing to route, the verdict is a vacuous
    /// all-zero certificate).
    fn solve_inner(
        &self,
        problem: &TeProblem,
        certify: bool,
    ) -> Result<(TeSolve, Result<Certificate, CertificateError>), TeError> {
        if problem.commodities.is_empty() {
            let idle = TeSolve {
                solution: TeSolution {
                    routed: vec![],
                    edge_flows: vec![0.0; problem.net.n_edges()],
                    total: 0.0,
                },
                mlu: None,
                lambda: None,
                reductions: None,
            };
            return Ok((idle, Ok(Certificate::default())));
        }
        let lowered = self.formulation.lower(problem)?;
        let sp = lowered.sparse_lp();
        let mut solver = self.solver.borrow_mut();
        if self.warm_start == WarmStartPolicy::AlwaysCold {
            solver.reset();
        }
        let before = self.obs.enabled().then(|| solver.stats());
        let outcome = solver.solve_sparse(&sp);
        let certificate = match &outcome {
            LpOutcome::Optimal(point) if certify => rwc_lp::certify(&sp, &point.x, solver.duals()),
            _ => Ok(Certificate::default()),
        };
        if let Some(before) = before {
            let after = solver.stats();
            drop(solver);
            self.publish_solve(before, after);
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
            let sol = TeSolver::default().solve(&p);
            sol.validate(&p).unwrap();
            assert!((sol.total - want).abs() < 1e-6, "volume {volume}: total={}", sol.total);
        }
        let empty = TeProblem::from_wan(&builders::fig7_example(), &DemandMatrix::new());
        assert_eq!(TeSolver::default().solve(&empty).total, 0.0);
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
            let a = cold.solve(&round);
            let b = retain.solve(&round);
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
        let static_total = chained.solve(&base).total;
        let warm = chained.solve(&augmented);
        let cold = TeSolver::default().solve(&augmented);
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
        // Rhs-only traffic-matrix drift must ride the same fast-resolve
        // path as max-throughput capacity drift: every post-cold round a
        // warm attempt, every attempt a hit.
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
        let mut results = Vec::new();
        for round in 0..rounds {
            warm.set_objective(round_objective(round)).unwrap();
            results.push(warm.solve_detailed(&p).unwrap().mlu.unwrap());
        }
        let stats = warm.warm_stats().unwrap();
        assert_eq!(stats.cold_solves, 1, "only the first round may go cold: {stats:?}");
        assert_eq!(stats.warm_attempts, (rounds - 1) as u64, "{stats:?}");
        assert_eq!(stats.warm_hits, (rounds - 1) as u64, "tm drift must fast-resolve: {stats:?}");
        // And the answers track the drift (monotone non-decreasing load).
        for w in results.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "mlu should grow with the load: {results:?}");
        }
    }
}
