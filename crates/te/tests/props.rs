//! Property tests: every TE solver emits feasible, demand-capped solutions
//! on random topologies and workloads, and the solver hierarchy holds.

use proptest::prelude::*;
use rwc_te::b4::B4Te;
use rwc_te::cspf::CspfTe;
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::problem::TeProblem;
use rwc_te::swan::SwanTe;
use rwc_te::{TeAlgorithm, TeSolver};
use rwc_topology::random::{waxman, WaxmanConfig};
use rwc_topology::WanTopology;
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
        let exact = TeSolver::builder().build().unwrap().solve(&problem);
        prop_assert!(exact.validate(&problem).is_ok(), "exact invalid");
        for algo in [
            Box::new(SwanTe::default()) as Box<dyn TeAlgorithm>,
            Box::new(B4Te::default()),
            Box::new(CspfTe::default()),
        ] {
            let sol = algo.solve(&problem);
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
        let full = SwanTe::default().solve(&problem);
        // Drop all background demands.
        let mut reduced = DemandMatrix::new();
        for d in dm.demands() {
            if d.priority != Priority::Background {
                reduced.add(d.from, d.to, d.volume, d.priority);
            }
        }
        prop_assume!(!reduced.is_empty());
        let reduced_problem = TeProblem::from_wan(&wan, &reduced);
        let without_bg = SwanTe::default().solve(&reduced_problem);
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
        let optimum = TeSolver::default().solve(&TeProblem::from_wan(&wan, &alone)).total;
        prop_assert!((interactive_full - optimum).abs() < 1e-6,
            "interactive {interactive_full} vs its own optimum {optimum}");
        // And the answer is a pure function of the problem.
        prop_assert_eq!(&SwanTe::default().solve(&problem), &full);
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
        prop_assert_eq!(SwanTe::default().solve(&problem), TeSolver::default().solve(&problem));
    }

    /// Demand scaling is monotone for the *exact* solver (an LP optimum
    /// can only grow when constraints relax). Heuristics are provably NOT
    /// monotone — more offered load can bait greedy path choices into
    /// worse packings — so they only get a bounded-regression check.
    /// (Proptest found the counterexample that forced this split.)
    #[test]
    fn throughput_monotone_in_demand((wan, dm) in arb_case(), factor in 1.1f64..3.0) {
        let exact = TeSolver::builder().build().unwrap();
        let exact_base = exact.solve(&TeProblem::from_wan(&wan, &dm));
        let exact_scaled = exact.solve(&TeProblem::from_wan(&wan, &dm.scaled(factor)));
        prop_assert!(exact_scaled.total >= exact_base.total - 1e-4,
            "exact: {} -> {}", exact_base.total, exact_scaled.total);
        for algo in [
            Box::new(SwanTe::default()) as Box<dyn TeAlgorithm>,
            Box::new(CspfTe::default()),
        ] {
            let base = algo.solve(&TeProblem::from_wan(&wan, &dm));
            let scaled = algo.solve(&TeProblem::from_wan(&wan, &dm.scaled(factor)));
            prop_assert!(scaled.total >= 0.8 * base.total - 1e-6,
                "{}: {} -> {}", algo.name(), base.total, scaled.total);
        }
    }
}
