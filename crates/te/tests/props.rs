//! Property tests: every TE solver emits feasible, demand-capped solutions
//! on random topologies and workloads, and the solver hierarchy holds; a
//! `TeSolver` that keeps its LP across a drift sequence answers exactly
//! as a fresh lowering of every step would; and a consistent-update plan
//! never routes more over a changing link than the change leaves it.

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rwc_lp::SparseSimplexSolver;
use rwc_te::b4::B4Te;
use rwc_te::cspf::CspfTe;
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::problem::{EdgeOrigin, TeProblem};
use rwc_optics::Modulation;
use rwc_te::swan::SwanTe;
use rwc_te::updates::{try_plan_capacity_changes, CapacityChange};
use rwc_te::{TeAlgorithm, TeError, TeFormulation, TeObjective, TeSolver};
use rwc_topology::builders::{fig7_example, scaled_mesh};
use rwc_topology::random::{waxman, WaxmanConfig};
use rwc_topology::wan::LinkId;
use rwc_topology::{NodeId, WanTopology};
use rwc_util::units::Gbps;

fn arb_case() -> impl Strategy<Value = (WanTopology, DemandMatrix)> {
    (4usize..9, 0u64..200, 50.0f64..900.0, 0u64..50).prop_map(|(n, seed, volume, dseed)| {
        let wan = waxman(&WaxmanConfig { n_nodes: n, seed, ..Default::default() });
        let dm = DemandMatrix::gravity(&wan, Gbps(volume), dseed);
        (wan, dm)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Heuristic solvers always produce valid solutions; the exact LP
    /// upper-bounds them all.
    #[test]
    fn solver_hierarchy((wan, dm) in arb_case()) {
        let problem = TeProblem::from_wan(&wan, &dm);
        let exact = TeSolver::builder().build().unwrap().try_solve(&problem).expect("TE solve");
        prop_assert!(exact.validate(&problem).is_ok(), "exact invalid");
        for algo in [
            Box::new(SwanTe::default()) as Box<dyn TeAlgorithm>,
            Box::new(B4Te::default()),
            Box::new(CspfTe::default()),
        ] {
            let sol = algo.try_solve(&problem).expect("TE solve");
            prop_assert!(sol.validate(&problem).is_ok(), "{} invalid", algo.name());
            prop_assert!(sol.total <= exact.total + 1e-4,
                "{} ({}) beat the LP optimum ({})", algo.name(), sol.total, exact.total);
        }
    }

    /// SWAN's priority order is strict: shrinking background demand never
    /// reduces what interactive traffic receives.
    #[test]
    fn swan_priority_isolation((wan, dm) in arb_case()) {
        let problem = TeProblem::from_wan(&wan, &dm);
        let full = SwanTe::default().try_solve(&problem).expect("TE solve");
        // Drop all background demands.
        let mut reduced = DemandMatrix::new();
        for d in dm.demands() {
            if d.priority != Priority::Background {
                reduced.add(d.from, d.to, d.volume, d.priority);
            }
        }
        prop_assume!(!reduced.is_empty());
        let reduced_problem = TeProblem::from_wan(&wan, &reduced);
        let without_bg = SwanTe::default().try_solve(&reduced_problem).expect("TE solve");
        let interactive_full: f64 = problem
            .commodities_of(Priority::Interactive)
            .iter()
            .map(|&i| full.routed[i])
            .sum();
        let interactive_without: f64 = reduced_problem
            .commodities_of(Priority::Interactive)
            .iter()
            .map(|&i| without_bg.routed[i])
            .sum();
        // Background traffic is invisible to the interactive allocation.
        prop_assert!((interactive_full - interactive_without).abs() < 1e-6,
            "{interactive_full} vs {interactive_without}");
        // The top class gets the optimum of the problem it would have alone.
        let mut alone = DemandMatrix::new();
        for d in dm.of_priority(Priority::Interactive) {
            alone.add(d.from, d.to, d.volume, d.priority);
        }
        let optimum = TeSolver::default()
            .try_solve(&TeProblem::from_wan(&wan, &alone))
            .expect("TE solve")
            .total;
        prop_assert!((interactive_full - optimum).abs() < 1e-6,
            "interactive {interactive_full} vs its own optimum {optimum}");
        // And the answer is a pure function of the problem.
        prop_assert_eq!(&SwanTe::default().try_solve(&problem).expect("TE solve"), &full);
    }

    /// With one class present SWAN *is* the exact LP: bit for bit the cold
    /// `TeSolver` solution of the same problem.
    #[test]
    fn swan_single_class_is_the_cold_lp((wan, dm) in arb_case(), class in 0usize..3) {
        let mut one_class = DemandMatrix::new();
        for d in dm.demands() {
            one_class.add(d.from, d.to, d.volume, Priority::ALL[class]);
        }
        let problem = TeProblem::from_wan(&wan, &one_class);
        prop_assert_eq!(
            SwanTe::default().try_solve(&problem).expect("TE solve"),
            TeSolver::default().try_solve(&problem).expect("TE solve")
        );
    }

    /// Demand scaling is monotone for the *exact* solver (an LP optimum
    /// can only grow when constraints relax). Heuristics are provably NOT
    /// monotone — more offered load can bait greedy path choices into
    /// worse packings — so they only get a bounded-regression check.
    /// (Proptest found the counterexample that forced this split.)
    #[test]
    fn throughput_monotone_in_demand((wan, dm) in arb_case(), factor in 1.1f64..3.0) {
        let exact = TeSolver::builder().build().unwrap();
        let exact_base = exact.try_solve(&TeProblem::from_wan(&wan, &dm)).expect("TE solve");
        let exact_scaled = exact.try_solve(&TeProblem::from_wan(&wan, &dm.scaled(factor)))
            .expect("TE solve");
        prop_assert!(exact_scaled.total >= exact_base.total - 1e-4,
            "exact: {} -> {}", exact_base.total, exact_scaled.total);
        for algo in [
            Box::new(SwanTe::default()) as Box<dyn TeAlgorithm>,
            Box::new(CspfTe::default()),
        ] {
            let base = algo.try_solve(&TeProblem::from_wan(&wan, &dm)).expect("TE solve");
            let scaled = algo.try_solve(&TeProblem::from_wan(&wan, &dm.scaled(factor)))
                .expect("TE solve");
            prop_assert!(scaled.total >= 0.8 * base.total - 1e-6,
                "{}: {} -> {}", algo.name(), base.total, scaled.total);
        }
    }
}

/// A small Waxman WAN with three commodities between seeded node pairs.
fn arb_small_problem() -> impl Strategy<Value = TeProblem> {
    (4usize..7, 0u64..200, 50.0f64..400.0).prop_map(|(n, seed, volume)| {
        let wan = waxman(&WaxmanConfig { n_nodes: n, seed, ..Default::default() });
        let mut dm = DemandMatrix::new();
        for c in 0..3 {
            let from = (seed as usize + 2 * c) % n;
            let to = (from + 1 + c) % n;
            let volume = Gbps(volume * (1.0 + c as f64) / 2.0);
            dm.add(NodeId(from), NodeId(to), volume, Priority::Elastic);
        }
        TeProblem::from_wan(&wan, &dm)
    })
}

/// Drift steps `(what, which, factor)`; each property reads `what` its own
/// way (see `drive`).
fn arb_steps() -> impl Strategy<Value = Vec<(u8, usize, f64)>> {
    proptest::collection::vec((0u8..6, 0usize..64, 0.5f64..1.5), 6..12)
}

/// One drift step shared by every objective: `what` 0 scales one edge's
/// capacity, 1 sets one edge's cost, 2 scales every demand, 3 appends a
/// fake rung parallel to a real edge. Returns `false` for any other
/// `what`, which the caller interprets.
fn common_drift(p: &mut TeProblem, (what, at, factor): (u8, usize, f64)) -> bool {
    let e = at % p.net.n_edges();
    match what {
        0 => p.net.set_capacity(e, p.net.edge(e).capacity * factor),
        1 => p.net.set_cost(e, factor - 0.5),
        2 => p.commodities.iter_mut().for_each(|c| c.demand *= factor),
        3 => {
            // Parallel to a real edge; the rung inherits its link direction.
            let real = (0..p.origins.len())
                .cycle()
                .skip(at % p.origins.len())
                .find(|&i| matches!(p.origins[i], EdgeOrigin::Real { .. }))
                .expect("from_wan edges are real");
            let EdgeOrigin::Real { link, forward } = p.origins[real] else { unreachable!() };
            let r = p.net.edge(real);
            p.net.add_edge(r.from, r.to, 100.0 * factor, 1.0 + factor);
            p.origins.push(EdgeOrigin::Fake { link, forward });
        }
        _ => return false,
    }
    true
}

/// Solves `base` and then every step of a drift sequence twice: on one
/// `TeSolver`, which keeps its LP and rewrites its values while the shape
/// holds, and on a raw engine fed a fresh `sparse_lp()` each step. Both
/// engines see the same programs, so every answer — errors included —
/// must be bit-identical. `special` applies the steps `common_drift`
/// leaves to the objective.
fn drive(
    objective: TeObjective,
    mut problem: TeProblem,
    steps: &[(u8, usize, f64)],
    mut special: impl FnMut(&mut TeProblem, &mut TeObjective, (u8, usize, f64)),
) -> Result<(), TestCaseError> {
    let mut solver = TeSolver::builder().objective(objective.clone()).build().unwrap();
    let mut raw = SparseSimplexSolver::new();
    let mut objective = objective;
    for step in std::iter::once(None).chain(steps.iter().copied().map(Some)) {
        if let Some(step) = step {
            if !common_drift(&mut problem, step) {
                special(&mut problem, &mut objective, step);
            }
        }
        solver.set_objective(objective.clone()).unwrap();
        let lowered = TeFormulation::new(objective.clone()).lower(&problem).unwrap();
        let fresh = lowered.extract_sparse(raw.solve_sparse(&lowered.sparse_lp()));
        prop_assert_eq!(solver.solve_detailed(&problem), fresh, "step {:?}", step);
    }
    Ok(())
}

/// Toggles `x` between 0 and `restore`.
fn toggle_zero(x: &mut f64, restore: f64) {
    *x = if *x == 0.0 { restore } else { 0.0 };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Max-throughput: capacity, cost and demand drift and fake rungs.
    #[test]
    fn max_throughput_retained_lp_matches_fresh(p in arb_small_problem(), steps in arb_steps()) {
        drive(TeObjective::MaxThroughput, p, &steps, |_, _, _| {})?;
    }

    /// Min-MLU: the same drifts, traffic-matrix drift through
    /// `set_objective`, an edge cut to 0 and restored (a value change:
    /// capacities are rhs values and bounds), and a commodity's envelope
    /// cut to 0 and restored, which takes it out of (and back into) the
    /// `λ` column's pattern. Commodity 0 keeps its envelope: an all-zero
    /// envelope never reaches a `TeSolver`'s engine, while the raw engine
    /// here would be handed an unbounded `λ`.
    #[test]
    fn min_mlu_retained_lp_matches_fresh(p in arb_small_problem(), steps in arb_steps()) {
        let k = p.commodities.len();
        let tms = vec![vec![60.0; k], (0..k).map(|i| 30.0 + 20.0 * i as f64).collect()];
        let objective = TeObjective::MinMlu { traffic_matrices: tms };
        drive(objective, p, &steps, |p, objective, (what, at, factor)| {
            let TeObjective::MinMlu { traffic_matrices } = objective else { unreachable!() };
            match what {
                4 => traffic_matrices[at % 2].iter_mut().for_each(|v| *v *= factor),
                _ if at % 2 == 0 => {
                    let e = at / 2 % p.net.n_edges();
                    let mut cap = p.net.edge(e).capacity;
                    toggle_zero(&mut cap, 100.0 * factor);
                    p.net.set_capacity(e, cap);
                }
                _ => {
                    let ki = 1 + at / 2 % (k - 1);
                    for tm in traffic_matrices.iter_mut() {
                        toggle_zero(&mut tm[ki], 50.0 * factor);
                    }
                }
            }
        })?;
    }

    /// Max-concurrent-flow: the same drifts, and a commodity's demand cut
    /// to 0 and restored, which takes it out of (and back into) the `λ`
    /// column's pattern.
    #[test]
    fn concurrent_retained_lp_matches_fresh(p in arb_small_problem(), steps in arb_steps()) {
        drive(TeObjective::MaxConcurrentFlow, p, &steps, |p, _, (_, at, factor)| {
            let k = p.commodities.len();
            toggle_zero(&mut p.commodities[at % k].demand, 100.0 * factor);
        })?;
    }

    /// Unsplittable: the drifts reach the gadget's guard, rung and real
    /// capacities and costs, and each appended rung re-lays it out.
    #[test]
    fn unsplittable_retained_lp_matches_fresh(p in arb_small_problem(), steps in arb_steps()) {
        drive(TeObjective::Unsplittable, p, &steps, |p, _, (_, at, factor)| {
            common_drift(p, (3, at, factor));
        })?;
    }

    /// Capacity reduction: the drifts, with its deletable-slice readout.
    #[test]
    fn capacity_reduction_retained_lp_matches_fresh(p in arb_small_problem(), steps in arb_steps()) {
        drive(TeObjective::CapacityReduction, p, &steps, |p, _, (_, at, factor)| {
            common_drift(p, (0, at, factor));
        })?;
    }
}

/// A round's three problem roles on one solver, as the round engine makes
/// them: the static G, the augmented G′ (a fake edge pair on every link)
/// and the update plan's interim (G with two links at a transition
/// capacity), over drifting capacities and demands. The solver keeps one
/// LP per role, from-WAN and augmented, so each is lowered once; its one
/// engine still sees the programs fresh lowerings give, in the same order,
/// so every answer is bit-equal to a raw engine fed those.
#[test]
fn a_round_lowers_each_role_once() {
    let wan = scaled_mesh(2, 500.0);
    let dm = DemandMatrix::gravity(&wan, Gbps(4000.0), 7);
    let metrics = std::sync::Arc::new(rwc_obs::MetricsObserver::new());
    let solver = TeSolver::builder().observer(metrics.clone()).build().unwrap();
    let mut raw = SparseSimplexSolver::new();
    let rounds = 8;
    for round in 0..rounds {
        let mut g = TeProblem::from_wan(&wan, &dm.scaled(0.8 + 0.05 * (round % 5) as f64));
        for (id, link) in wan.links() {
            let drift = 0.85 + 0.03 * ((round * (id.0 + 3)) % 11) as f64;
            g.override_link_capacity(id, link.capacity().value() * drift);
        }
        let mut augmented = g.clone();
        for (id, _) in wan.links() {
            for forward in [true, false] {
                let real = g.net.edge(TeProblem::link_edges(id)[usize::from(!forward)]);
                let rung = 50.0 + 10.0 * ((round + id.0) % 4) as f64;
                augmented.net.add_edge(real.from, real.to, rung, real.cost + 1.0);
                augmented.origins.push(EdgeOrigin::Fake { link: id, forward });
            }
        }
        let mut interim = g.clone();
        for l in [round % wan.n_links(), (3 * round + 1) % wan.n_links()] {
            interim.override_link_capacity(LinkId(l), 40.0);
        }
        for (role, problem) in [("static", &g), ("augmented", &augmented), ("interim", &interim)] {
            let lowered = solver.formulation().lower(problem).unwrap();
            let fresh = lowered.extract_sparse(raw.solve_sparse(&lowered.sparse_lp()));
            assert_eq!(solver.solve_detailed(problem), fresh, "round {round}, {role}");
        }
    }
    let counters = metrics.snapshot().counters;
    assert_eq!(counters["te.shape_misses"], 2);
    assert_eq!(counters["te.shape_hits"], 3 * rounds as u64 - 2);
}

/// A WAN (Waxman, or a one- or two-replica `scaled_mesh`) whose directed
/// edges carry non-uniform capacities (each × [0.3, 1.7], some links cut
/// to 0), one to four commodities, and one to three traffic matrices over
/// them (a volume may be 0).
fn arb_min_mlu_case() -> impl Strategy<Value = (TeProblem, Vec<Vec<f64>>)> {
    // One volume in five is 0, one link in ten is cut.
    let volume = (0u8..5, 1.0f64..400.0).prop_map(|(zero, v)| if zero == 0 { 0.0 } else { v });
    (
        (0u8..3, 4usize..9, 0u64..200),
        proptest::collection::vec((0.3f64..1.7, 0u8..10), 64),
        proptest::collection::vec((0usize..1000, 0usize..1000), 1..5),
        proptest::collection::vec(proptest::collection::vec(volume, 4), 1..4),
    )
        .prop_map(|((kind, n, seed), scales, pairs, tms)| {
            let wan = match kind {
                0 => waxman(&WaxmanConfig { n_nodes: n, seed, ..Default::default() }),
                replicas => scaled_mesh(replicas as usize, 100.0),
            };
            let nodes = wan.n_nodes();
            let mut dm = DemandMatrix::new();
            for &(from, step) in &pairs {
                let from = from % nodes;
                let to = (from + 1 + step % (nodes - 1)) % nodes;
                dm.add(NodeId(from), NodeId(to), Gbps(1.0), Priority::Elastic);
            }
            let mut p = TeProblem::from_wan(&wan, &dm);
            for e in 0..p.net.n_edges() {
                let (scale, _) = scales[e % scales.len()];
                let (_, cut) = scales[(e / 2) % scales.len()];
                let cap = if cut == 0 { 0.0 } else { p.net.edge(e).capacity * scale };
                p.net.set_capacity(e, cap);
            }
            let k = pairs.len();
            (p, tms.into_iter().map(|tm| tm[..k].to_vec()).collect())
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Min-MLU against lowerings that share none of its code: its envelope
    /// is routed exactly and fits the capacities scaled by `mlu*`; the
    /// max-throughput LP routes the whole envelope just above `mlu*` and
    /// measurably less just below it; with one commodity `mlu*` is the
    /// envelope over Dinic's max-flow. A refusal is a commodity that Dinic
    /// cannot move a unit of.
    #[test]
    fn min_mlu_agrees_with_independent_lowerings((p, tms) in arb_min_mlu_case()) {
        let k = p.commodities.len();
        let envelope: Vec<f64> =
            (0..k).map(|ki| tms.iter().map(|tm| tm[ki]).fold(0.0, f64::max)).collect();
        let total: f64 = envelope.iter().sum();
        let dinic = |ki: usize| {
            let c = &p.commodities[ki];
            rwc_flow::max_flow(&p.net, c.source, c.sink).value
        };
        // The problem with the envelope as its demands and every capacity
        // scaled by `s`.
        let scaled = |s: f64| {
            let mut q = p.clone();
            for e in 0..q.net.n_edges() {
                q.net.set_capacity(e, q.net.edge(e).capacity * s);
            }
            for (c, &u) in q.commodities.iter_mut().zip(&envelope) {
                c.demand = u;
            }
            q
        };
        let solver = TeSolver::builder()
            .objective(TeObjective::MinMlu { traffic_matrices: tms.clone() })
            .build()
            .unwrap();
        let solve = match solver.solve_detailed(&p) {
            Ok(solve) => solve,
            Err(e) => {
                prop_assert!(matches!(e, TeError::SolverAbort { .. }), "{e}");
                prop_assert!((0..k).any(|ki| envelope[ki] > 0.0 && dinic(ki) == 0.0),
                    "refused, yet every envelope has a path: {e}");
                return Ok(());
            }
        };
        let mlu = solve.mlu.expect("min-MLU reports its MLU");
        for (ki, (&r, &u)) in solve.solution.routed.iter().zip(&envelope).enumerate() {
            prop_assert!((r - u).abs() <= 1e-6 * (1.0 + u), "commodity {ki} routed {r} of {u}");
        }
        let fits = solve.solution.validate(&scaled(mlu));
        prop_assert!(fits.is_ok(), "at mlu* = {mlu}: {fits:?}");
        if total == 0.0 {
            prop_assert_eq!(mlu, 0.0);
            return Ok(());
        }
        let throughput = |s: f64| {
            TeSolver::default().try_solve(&scaled(mlu * s)).expect("max-throughput solves").total
        };
        let above = throughput(1.0 + 1e-7);
        prop_assert!((above - total).abs() <= 1e-6 * (1.0 + total),
            "capacities x mlu*(1+1e-7) route {above} of {total}");
        let below = throughput(1.0 - 1e-4);
        prop_assert!(total - below > 1e-7 * total,
            "capacities x mlu*(1-1e-4) still route {below} of {total}");
        if k == 1 {
            let want = total / dinic(0);
            prop_assert!((mlu - want).abs() <= 1e-9 * want, "mlu* {mlu} vs Dinic {want}");
        }
    }
}

/// A WAN (Waxman, a one- or two-replica `scaled_mesh`, or Fig. 7) with
/// every link on a seeded rung, gravity demands, and a change set of one
/// to three distinct links, each moving one rung up or down (the other
/// way at either end of the ladder).
fn arb_plan_case() -> impl Strategy<Value = (WanTopology, DemandMatrix, Vec<CapacityChange>)> {
    (
        (0u8..4, 4usize..8, 0u64..200),
        (50.0f64..900.0, 0u64..50),
        proptest::collection::vec(0usize..6, 8),
        proptest::collection::vec((0usize..1000, proptest::bool::ANY), 1..4),
    )
        .prop_map(|((kind, n, seed), (volume, dseed), rungs, picks)| {
            let mut wan = match kind {
                0 => fig7_example(),
                1 | 2 => scaled_mesh(kind as usize, 100.0),
                _ => waxman(&WaxmanConfig { n_nodes: n, seed, ..Default::default() }),
            };
            for l in 0..wan.n_links() {
                wan.set_modulation(LinkId(l), Modulation::LADDER[rungs[l % rungs.len()]]);
            }
            let dm = DemandMatrix::gravity(&wan, Gbps(volume), dseed);
            let top = Modulation::LADDER.len() - 1;
            let mut changes: Vec<CapacityChange> = Vec::new();
            for (pick, up) in picks {
                let link = LinkId(pick % wan.n_links());
                if changes.iter().any(|c| c.link == link) {
                    continue;
                }
                let rung = Modulation::LADDER
                    .iter()
                    .position(|&m| m == wan.link(link).modulation)
                    .unwrap();
                let to = if (up && rung < top) || rung == 0 { rung + 1 } else { rung - 1 };
                changes.push(CapacityChange { link, to: Modulation::LADDER[to] });
            }
            (wan, dm, changes)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Update-plan safety: the interim allocation is feasible with every
    /// changing link at its transition capacity (the lesser of the two
    /// rates when hitless, 0 under the legacy procedure) — so it is safe
    /// whichever changes land. The final allocation is the caller's
    /// translated flow (Theorem 1); the plan does not solve it.
    #[test]
    fn update_plan_interim_fits_every_transition(
        (wan, dm, changes) in arb_plan_case(),
        hitless in proptest::bool::ANY,
    ) {
        let plan = try_plan_capacity_changes(
            &wan, &dm, &changes, &TeSolver::default(), hitless, None,
        ).expect("plan");

        let mut transition = TeProblem::from_wan(&wan, &dm);
        for c in &changes {
            let old = wan.link(c.link).capacity().value();
            let cap = if hitless { old.min(c.to.capacity().value()) } else { 0.0 };
            transition.override_link_capacity(c.link, cap);
            for e in [2 * c.link.0, 2 * c.link.0 + 1] {
                let flow = plan.interim.edge_flows[e];
                prop_assert!(flow <= cap + 1e-6,
                    "edge {e} carries {flow} in the interim, transition capacity {cap}");
            }
        }
        let interim = plan.interim.validate(&transition);
        prop_assert!(interim.is_ok(), "interim: {interim:?}");
        let churn = plan.churn_into_interim;
        prop_assert!(churn.is_finite() && churn >= 0.0, "churn {churn}");
    }
}
