//! The one LP backend against its own optimality certificate, on
//! randomized multi-commodity-flow instances and on the drift sequences
//! the TE round engine produces.
//!
//! Every optimal solve in this file — cold, fast-resolved, mapped warm
//! start, dual-repaired — is passed through [`rwc_lp::certify`] with the
//! multipliers the solver left behind: primal feasibility, dual
//! feasibility and duality gap at 1e-9, which proves the optimum instead
//! of comparing it with a second solver's. On top of that a warm solver's
//! objective is held to a fresh cold solve's at 1e-6, which pins the
//! warm-start bookkeeping (both are certified, so they can only differ if
//! they solved different programs). The file keeps its pre-certificate
//! name so the test ids stay stable.

use proptest::prelude::*;
use rwc_lp::model::{LinearProgram, LpBuilder, Relation};
use rwc_lp::{certify, LpOutcome, SparseLp, SparseSimplexSolver};
use std::time::Duration;

/// A random multi-commodity-flow instance in dense `LinearProgram` form:
/// per-commodity flow variables on each directed edge, conservation
/// equalities at interior nodes, a demand cap at each source, shared
/// capacity rows, and a maximise-delivery objective.
#[derive(Debug, Clone)]
struct McfInstance {
    n_nodes: usize,
    /// Directed edges `(from, to, capacity)`.
    edges: Vec<(usize, usize, f64)>,
    /// Commodities `(source, sink, demand)`.
    commodities: Vec<(usize, usize, f64)>,
}

impl McfInstance {
    /// Lowers the instance with the given capacity multipliers (one per
    /// edge; pass `&[]` for unscaled). Multipliers only touch rhs values,
    /// never the sparsity pattern — exactly what TE capacity drift does.
    fn lower(&self, cap_scale: &[f64]) -> LinearProgram {
        self.lower_edges(&self.edges, cap_scale, false)
    }

    /// The TE round's pair of programs in one call: `fakes` appends a
    /// parallel edge `(edge, extra capacity)` after the real ones, at a
    /// small cost — its columns and, with two or more commodities, its
    /// capacity row land at the end, the prefix untouched (Algorithm 1's
    /// augmentation). Every flow is also bounded by its edge's capacity,
    /// as the TE lowering bounds its columns, so `cap_scale` drifts
    /// bounds as well as rhs values.
    fn lower_augmented(&self, cap_scale: &[f64], fakes: &[(usize, f64)]) -> LinearProgram {
        let mut edges = self.edges.clone();
        for &(e, extra) in fakes {
            let (from, to, _) = self.edges[e % self.edges.len()];
            edges.push((from, to, extra));
        }
        self.lower_edges(&edges, cap_scale, true)
    }

    /// Lowers `edges` — `self.edges` plus any fake ones, which cost 0.01
    /// per unit — with per-flow bound rows when `bounded`.
    fn lower_edges(
        &self,
        edges: &[(usize, usize, f64)],
        cap_scale: &[f64],
        bounded: bool,
    ) -> LinearProgram {
        let m = edges.len();
        let k = self.commodities.len();
        let mut b = LpBuilder::new();
        // x[e*k + c]: flow of commodity c on edge e, rewarded at the
        // source so total delivery is maximised.
        let mut vars = Vec::with_capacity(m * k);
        for (ei, &(from, _, _)) in edges.iter().enumerate() {
            for &(src, _, _) in &self.commodities {
                let reward = if from == src { 1.0 } else { 0.0 };
                let fake_cost = if ei < self.edges.len() { 0.0 } else { 0.01 };
                vars.push(b.add_var(reward - 0.001 * (ei % 3) as f64 - fake_cost));
            }
        }
        let var = |ei: usize, ci: usize| vars[ei * k + ci];
        // Conservation at interior nodes: inflow == outflow.
        for (ci, &(src, sink, _)) in self.commodities.iter().enumerate() {
            for node in 0..self.n_nodes {
                if node == src || node == sink {
                    continue;
                }
                let mut terms = Vec::new();
                for (ei, &(from, to, _)) in edges.iter().enumerate() {
                    if to == node {
                        terms.push((var(ei, ci), 1.0));
                    } else if from == node {
                        terms.push((var(ei, ci), -1.0));
                    }
                }
                if !terms.is_empty() {
                    b.add_constraint(&terms, Relation::Eq, 0.0);
                }
            }
        }
        // Demand cap: net outflow at each source is at most the demand.
        for (ci, &(src, _, demand)) in self.commodities.iter().enumerate() {
            let mut terms = Vec::new();
            for (ei, &(from, to, _)) in edges.iter().enumerate() {
                if from == src {
                    terms.push((var(ei, ci), 1.0));
                } else if to == src {
                    terms.push((var(ei, ci), -1.0));
                }
            }
            if !terms.is_empty() {
                b.add_constraint(&terms, Relation::Le, demand);
            }
        }
        // Shared capacity per edge.
        for (ei, &(_, _, cap)) in edges.iter().enumerate() {
            let scale = cap_scale.get(ei).copied().unwrap_or(1.0);
            let terms: Vec<(usize, f64)> = (0..k).map(|ci| (var(ei, ci), 1.0)).collect();
            b.add_constraint(&terms, Relation::Le, cap * scale);
        }
        if bounded {
            // Singleton rows: the sparse lowering turns them into bounds.
            for (ei, &(_, _, cap)) in edges.iter().enumerate() {
                let scale = cap_scale.get(ei).copied().unwrap_or(1.0);
                for ci in 0..k {
                    b.add_constraint(&[(var(ei, ci), 1.0)], Relation::Le, cap * scale);
                }
            }
        }
        b.build()
    }
}

/// Strategy: connected-enough random MCF instances. A ring backbone
/// guarantees every pair is reachable; extra chords add multipath.
/// Sources and sinks that collide are remapped a step apart instead of
/// rejected, so every generated instance is solvable as-is.
fn mcf_instances() -> impl Strategy<Value = McfInstance> {
    (
        3usize..6,
        proptest::collection::vec((0usize..5, 0usize..5, 1.0f64..20.0), 0..6),
        proptest::collection::vec((0usize..5, 0usize..5, 1.0f64..15.0), 1..3),
    )
        .prop_map(|(n, chords, raw)| {
            let mut edges: Vec<(usize, usize, f64)> = Vec::new();
            for i in 0..n {
                edges.push((i, (i + 1) % n, 10.0));
            }
            for (a, b, cap) in chords {
                let (a, b) = (a % n, b % n);
                if a != b {
                    edges.push((a, b, cap));
                }
            }
            let commodities = raw
                .into_iter()
                .map(|(s, t, d)| {
                    let s = s % n;
                    let t = if t % n == s { (s + 1) % n } else { t % n };
                    (s, t, d)
                })
                .collect();
            McfInstance { n_nodes: n, edges, commodities }
        })
}

/// Solves `lp` on `solver`, certifies the optimum against the solver's
/// own multipliers, and returns the objective.
fn certified_objective(solver: &mut SparseSimplexSolver, lp: &LinearProgram) -> f64 {
    let point = solver.solve(lp).expect_optimal();
    certify(&SparseLp::from_dense(lp), &point.x, solver.duals())
        .unwrap_or_else(|refused| panic!("{refused} after {:?}", solver.stats()));
    point.objective
}

/// The certified objective of a fresh (cold) solver.
fn cold_objective(lp: &LinearProgram) -> f64 {
    certified_objective(&mut SparseSimplexSolver::new(), lp)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random MCF instances solve to a certified optimum (the zero flow
    /// is always feasible, capacities bound every variable, so the
    /// outcome is always `Optimal`), with and without the per-flow bounds
    /// the TE lowering adds — which never bind tighter than the shared
    /// capacity row, so both forms have the same optimum.
    #[test]
    fn random_mcf_optima_certify(inst in mcf_instances()) {
        let rows_only = cold_objective(&inst.lower(&[]));
        let bounded = cold_objective(&inst.lower_augmented(&[], &[]));
        prop_assert!((rows_only - bounded).abs() <= 1e-6 * (1.0 + rows_only.abs()),
            "rows only {rows_only} vs bounded {bounded}");
    }

    /// A persistent solver tracking a capacity-drift sequence (rhs-only
    /// changes: the fast-resolve / dual-repair path) certifies at every
    /// step, matches a fresh cold solve, and attempts a warm start on each.
    #[test]
    fn warm_solver_tracks_cold_across_rhs_drift(
        inst in mcf_instances(),
        drift in proptest::collection::vec(
            proptest::collection::vec(0.4f64..1.6, 12), 2..6),
    ) {
        let mut warm = SparseSimplexSolver::new();
        certified_objective(&mut warm, &inst.lower(&[]));
        for scales in &drift {
            let lp = inst.lower(&scales[..scales.len().min(inst.edges.len())]);
            let cold = cold_objective(&lp);
            let tracked = certified_objective(&mut warm, &lp);
            prop_assert!((cold - tracked).abs() <= 1e-6 * (1.0 + cold.abs()),
                "cold {cold} vs warm {tracked}");
        }
        prop_assert!(warm.stats().warm_attempts >= drift.len() as u64,
            "only {} warm attempts across {} drift steps",
            warm.stats().warm_attempts, drift.len());
    }

    /// Shrinking every capacity makes the retained basis primal-infeasible
    /// (flows exceed the new caps), forcing the dual-simplex repair — the
    /// repaired solution must certify and match a fresh cold solve,
    /// without a cold fallback when the repair succeeds.
    #[test]
    fn forced_dual_repair_matches_cold(
        inst in mcf_instances(),
        shrink in 0.3f64..0.8,
    ) {
        let mut warm = SparseSimplexSolver::new();
        let lp0 = inst.lower(&[]);
        certified_objective(&mut warm, &lp0);
        let cold_before = warm.stats().cold_solves;
        let scales = vec![shrink; inst.edges.len()];
        let lp1 = inst.lower(&scales);
        let cold = cold_objective(&lp1);
        let repaired = certified_objective(&mut warm, &lp1);
        prop_assert!((cold - repaired).abs() <= 1e-6 * (1.0 + cold.abs()),
            "cold {cold} vs repaired {repaired}");
        let stats = warm.stats();
        prop_assert!(stats.warm_attempts >= 1);
        // Rhs-only drift must resolve on the warm path: repair, not
        // refactor-from-scratch.
        prop_assert_eq!(stats.cold_solves, cold_before,
            "rhs-only shrink went cold");
    }

    /// Degenerate instances — every constraint duplicated, so vertices
    /// are massively over-determined — terminate under partial pricing
    /// (Bland's anti-cycling), certify, and agree with the undoubled
    /// program, whose feasible region is the same.
    #[test]
    fn degenerate_duplicated_rows_terminate_and_agree(inst in mcf_instances()) {
        let base = inst.lower(&[]);
        let mut b = LpBuilder::new();
        let vars: Vec<usize> = base.objective.iter().map(|&o| b.add_var(o)).collect();
        for con in &base.constraints {
            let terms: Vec<(usize, f64)> = con
                .coeffs
                .iter()
                .enumerate()
                .filter(|&(_, &v)| v != 0.0)
                .map(|(j, &v)| (vars[j], v))
                .collect();
            for _ in 0..2 {
                b.add_constraint(&terms, con.op, con.rhs);
            }
        }
        let doubled = cold_objective(&b.build());
        let plain = cold_objective(&base);
        prop_assert!((plain - doubled).abs() <= 1e-6 * (1.0 + plain.abs()),
            "plain {plain} vs doubled {doubled} on degenerate instance");
    }

    /// The round engine's warm chain on one solver: each round drifts
    /// capacities (rhs and bounds), solves the base program, then the
    /// same state augmented with fake edges — columns and `≤` rows
    /// appended. Every step certifies and matches a fresh cold solve; the augmented step
    /// is always a warm hit without a single repair pivot (the base
    /// optimum is a feasible vertex of the augmented program, Theorem 1);
    /// no step spends more than `m` pivots in dual repair; and every
    /// solve without a warm attempt is the first one or a structural
    /// change the generator injected.
    #[test]
    fn warm_chain_alternates_base_and_row_augmented_programs(
        inst in mcf_instances(),
        rounds in proptest::collection::vec(
            (proptest::collection::vec(0.5f64..1.5, 12),
             proptest::collection::vec((0usize..12, 1.0f64..10.0), 1..4),
             0usize..4),
            2..6),
    ) {
        let mut inst = inst;
        if inst.commodities.len() < 2 {
            // One commodity lowers capacity rows to bounds: no row append.
            let (s, t, d) = inst.commodities[0];
            inst.commodities.push((t, s, d));
        }
        let mut warm = SparseSimplexSolver::new();
        let (mut solves, mut injected) = (0u64, 0u64);
        for (scales, fakes, inject) in &rounds {
            if *inject == 0 && solves > 0 {
                // In-place structural change: commodity 0 gets another
                // sink, its conservation rows move, the prefix diverges.
                let (s, t, d) = inst.commodities[0];
                let moved = (t + 1) % inst.n_nodes;
                let moved = if moved == s { (moved + 1) % inst.n_nodes } else { moved };
                inst.commodities[0] = (s, moved, d);
                injected += 1;
            }
            for fakes in [&[][..], &fakes[..]] {
                let lp = inst.lower_augmented(scales, fakes);
                let before = warm.stats();
                let chained = certified_objective(&mut warm, &lp);
                let after = warm.stats();
                solves += 1;
                let cold = cold_objective(&lp);
                prop_assert!((cold - chained).abs() <= 1e-6 * (1.0 + cold.abs()),
                    "cold {cold} vs chained {chained}");
                let rows = SparseLp::from_dense(&lp).n_rows() as u64;
                let repair = after.repair_pivots - before.repair_pivots;
                prop_assert!(repair <= rows, "{repair} repair pivots on {rows} rows");
                if !fakes.is_empty() {
                    prop_assert_eq!(after.warm_hits, before.warm_hits + 1,
                        "augmented step went cold: {:?}", after);
                    prop_assert_eq!(repair, 0);
                }
            }
        }
        let stats = warm.stats();
        prop_assert_eq!(stats.cold_solves + stats.warm_hits, solves);
        prop_assert!(solves - stats.warm_attempts <= 1 + injected,
            "{} solves without a warm attempt, {} injected: {:?}",
            solves - stats.warm_attempts, injected, stats);
    }

    /// An expired deadline plus a per-pivot delay makes the stride-64
    /// watchdog fire on any non-trivial instance; clearing the deadline
    /// must then recover the true optimum (the aborted attempt left the
    /// solver cold, so the recovery is checked by certificate alone).
    #[test]
    fn watchdog_aborts_then_recovers(inst in mcf_instances()) {
        let mut solver = SparseSimplexSolver::new();
        solver.set_solve_timeout(Some(Duration::ZERO));
        solver.set_pivot_delay(Some(Duration::from_micros(10)));
        let lp = inst.lower(&[]);
        let outcome = solver.solve(&lp);
        prop_assert!(matches!(outcome, LpOutcome::Stalled),
            "expected Stalled, got {outcome:?}");
        prop_assert!(solver.stats().watchdog_aborts >= 1);
        solver.set_solve_timeout(None);
        solver.set_pivot_delay(None);
        let recovered = certified_objective(&mut solver, &lp);
        let cold = cold_objective(&lp);
        prop_assert!((cold - recovered).abs() <= 1e-6 * (1.0 + cold.abs()));
    }
}

// ---------------------------------------------------------------------
// Objective zoo: the same contract (certified optimum, warm starts on
// rhs-only drift tracking a cold solve at 1e-6) for every `TeObjective`,
// driven through the real `TeFormulation` lowering instead of a
// hand-rolled LP.
// ---------------------------------------------------------------------

use rwc_te::demand::DemandMatrix;
use rwc_te::problem::{EdgeOrigin, TeProblem};
use rwc_te::{TeAlgorithm, TeObjective, TeSolve, TeSolver, WarmStartPolicy};
use rwc_topology::random::{waxman, WaxmanConfig};
use rwc_topology::wan::LinkId;
use rwc_util::units::Gbps;

/// A random TE problem (Waxman topology + gravity demands) with one fake
/// upgrade rung on link 0, so the unsplittable gadget and the reduction
/// readout have structure to chew on.
fn te_instances() -> impl Strategy<Value = TeProblem> {
    (4usize..8, 0u64..200, 60.0f64..600.0, 0u64..50).prop_map(|(n, seed, volume, dseed)| {
        let wan = waxman(&WaxmanConfig { n_nodes: n, seed, ..Default::default() });
        let dm = DemandMatrix::gravity(&wan, Gbps(volume), dseed);
        let mut p = TeProblem::from_wan(&wan, &dm);
        // One fake rung parallel to link 0's forward direction.
        let real = p.net.edge(0);
        p.net.add_edge(real.from, real.to, real.capacity * 0.5, real.cost + 1.0);
        p.origins.push(EdgeOrigin::Fake { link: LinkId(0), forward: true });
        p
    })
}

/// The value a warm and a cold solve must agree on for an objective:
/// total throughput, the MLU, or the concurrency factor λ.
fn zoo_headline(objective: &TeObjective, solve: &TeSolve) -> f64 {
    match objective {
        TeObjective::MinMlu { .. } => solve.mlu.expect("min-MLU reports MLU"),
        TeObjective::MaxConcurrentFlow => solve.lambda.expect("concurrent reports lambda"),
        _ => solve.solution.total,
    }
}

fn zoo_solver(objective: TeObjective) -> TeSolver {
    TeSolver::builder()
        .objective(objective)
        .build()
        .expect("objective-zoo solver config is valid")
}

/// A solve with its certificate checked (in release builds as well).
fn certified_solve(solver: &TeSolver, p: &TeProblem) -> TeSolve {
    solver.solve_certified(p).expect("certified solve").0
}

/// Every objective the formulation can lower for `p`, including a
/// three-matrix min-MLU envelope derived from the problem's demands.
fn zoo(p: &TeProblem) -> Vec<TeObjective> {
    let tms: Vec<Vec<f64>> = (0..3)
        .map(|j| {
            p.commodities
                .iter()
                .enumerate()
                .map(|(i, c)| c.demand * (0.6 + 0.2 * j as f64 + 0.1 * ((i + j) % 2) as f64))
                .collect()
        })
        .collect();
    vec![
        TeObjective::MaxThroughput,
        TeObjective::MinMlu { traffic_matrices: tms },
        TeObjective::MaxConcurrentFlow,
        TeObjective::Unsplittable,
        TeObjective::CapacityReduction,
    ]
}

/// Scales every edge capacity by `scale` — rhs-only drift for every
/// objective except MinMlu (whose MLU column carries capacities), which
/// drifts its traffic matrices instead.
fn drift_problem(p: &TeProblem, scale: f64) -> TeProblem {
    let mut q = p.clone();
    for e in 0..q.net.n_edges() {
        let cap = q.net.edge(e).capacity;
        q.net.set_capacity(e, cap * scale);
    }
    q
}

fn drift_objective(objective: &TeObjective, scale: f64) -> TeObjective {
    match objective {
        TeObjective::MinMlu { traffic_matrices } => TeObjective::MinMlu {
            traffic_matrices: traffic_matrices
                .iter()
                .map(|tm| tm.iter().map(|d| d * scale).collect())
                .collect(),
        },
        other => other.clone(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Every objective's optimum certifies at 1e-9 on random
    /// gadget-bearing TE instances and validates against its problem.
    #[test]
    fn every_objective_certifies(p in te_instances()) {
        for objective in zoo(&p) {
            let min_mlu = matches!(objective, TeObjective::MinMlu { .. });
            let solve = certified_solve(&zoo_solver(objective), &p);
            // Min-MLU routes its envelope whatever the capacities (mlu > 1
            // is an answer, not an error); the others must fit the network.
            if !min_mlu {
                prop_assert!(solve.solution.validate(&p).is_ok());
            }
        }
    }

    /// Rhs-only drift warm-starts for every objective: a persistent
    /// solver tracks an always-cold one across the drift sequence, both
    /// certified, attempting a warm start at every step. Capacities drift
    /// for the throughput-family objectives; traffic matrices drift for
    /// min-MLU (its MLU column carries capacity values, so capacity moves
    /// are value drift there, not rhs drift).
    #[test]
    fn warm_rhs_drift_tracks_cold_per_objective(
        p in te_instances(),
        drift in proptest::collection::vec(0.6f64..1.4, 3..6),
    ) {
        for objective in zoo(&p) {
            let mut warm = zoo_solver(objective.clone());
            certified_solve(&warm, &p);
            let tm_drift = matches!(objective, TeObjective::MinMlu { .. });
            for &scale in &drift {
                let q = if tm_drift { p.clone() } else { drift_problem(&p, scale) };
                let drifted = drift_objective(&objective, if tm_drift { scale } else { 1.0 });
                if tm_drift {
                    warm.set_objective(drifted.clone())
                        .expect("drifted objective stays valid");
                }
                let cold = TeSolver::builder()
                    .objective(drifted)
                    .warm_start(WarmStartPolicy::AlwaysCold)
                    .build()
                    .expect("cold oracle config is valid");
                let w = certified_solve(&warm, &q);
                let c = certified_solve(&cold, &q);
                let (wv, cv) = (
                    zoo_headline(&objective, &w),
                    zoo_headline(&objective, &c),
                );
                prop_assert!((wv - cv).abs() <= 1e-6 * (1.0 + cv.abs()),
                    "{} at scale {scale}: warm {wv} vs cold {cv}",
                    objective.algorithm_name());
            }
            let stats = warm.warm_stats().expect("TeSolver reports stats");
            prop_assert!(stats.warm_attempts >= drift.len() as u64,
                "{}: only {} warm attempts across {} drift steps",
                objective.algorithm_name(), stats.warm_attempts, drift.len());
        }
    }
}

/// The paper's Fig. 8 unsplittable fixture, with a known integral
/// optimum: a 100 G real link plus a 100 G fake upgrade rung between the
/// same endpoints, demand 300 G. The node-splitting gadget routes through
/// the shared 200 G guard edge, and the ladder fold must put exactly
/// 100 G on the real edge and exactly 100 G on the rung.
#[test]
fn fig8_unsplittable_fixture_integral_optimum() {
    let wan = {
        let mut w = rwc_topology::wan::WanTopology::new();
        let a = w.add_node("A".to_string(), None);
        let b = w.add_node("B".to_string(), None);
        w.add_link(a, b, 500.0);
        w
    };
    let a = wan.node_by_name("A").unwrap();
    let b = wan.node_by_name("B").unwrap();
    let mut dm = DemandMatrix::new();
    dm.add(a, b, Gbps(300.0), rwc_te::demand::Priority::Elastic);
    let mut p = TeProblem::from_wan(&wan, &dm);
    let real = p.net.edge(0);
    assert_eq!(real.capacity, 100.0, "base modulation is 100 G");
    p.net.add_edge(real.from, real.to, 100.0, 1.0);
    p.origins.push(EdgeOrigin::Fake { link: LinkId(0), forward: true });

    let solve = certified_solve(&zoo_solver(TeObjective::Unsplittable), &p);
    assert!((solve.solution.total - 200.0).abs() < 1e-6, "total {} != 200", solve.solution.total);
    // Ladder fold: real slice saturates first, the rung takes the rest.
    assert!((solve.solution.edge_flows[0] - 100.0).abs() < 1e-6,
        "real edge carries {}", solve.solution.edge_flows[0]);
    assert!((solve.solution.edge_flows[2] - 100.0).abs() < 1e-6,
        "fake rung carries {}", solve.solution.edge_flows[2]);
    solve.solution.validate(&p).expect("fixture solution is feasible");
}

/// A value-only drift that turns the retained basis singular: the column
/// sparsity patterns are unchanged (so the warm plan applies), but the
/// two basic columns become linearly dependent, the LU refactorisation
/// fails, and the solver must fall back to a cold solve — correctly.
#[test]
fn singular_basis_falls_back_to_cold() {
    let build = |a0: f64, a1: f64, b0: f64, b1: f64| {
        let mut b = LpBuilder::new();
        let x = b.add_var(1.0);
        let y = b.add_var(1.0);
        b.add_constraint(&[(x, a0), (y, b0)], Relation::Le, 10.0);
        b.add_constraint(&[(x, a1), (y, b1)], Relation::Le, 10.0);
        b.build()
    };
    let mut solver = SparseSimplexSolver::new();
    // max x + y s.t. x + 2y <= 10, 2x + y <= 10: optimum 20/3 with both
    // structurals basic.
    let first = solver.solve(&build(1.0, 2.0, 2.0, 1.0)).expect_optimal();
    assert!((first.objective - 20.0 / 3.0).abs() < 1e-6);
    assert_eq!(solver.stats().cold_solves, 1);
    // Same sparsity pattern, but both columns are now [1, 1]: the saved
    // basis matrix is singular. Optimum of the new LP is x + y = 10.
    let second = solver.solve(&build(1.0, 1.0, 1.0, 1.0)).expect_optimal();
    assert!((second.objective - 10.0).abs() < 1e-6, "got {}", second.objective);
    assert_eq!(
        solver.stats().cold_solves,
        2,
        "singular warm basis must trigger the cold fallback"
    );
}
