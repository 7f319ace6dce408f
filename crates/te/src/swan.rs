//! SWAN-style traffic engineering.
//!
//! SWAN (Hong et al., SIGCOMM'13) allocates priority classes strictly in
//! order: interactive traffic is routed first; elastic traffic sees only
//! the residual capacity; background traffic scavenges what is left. Each
//! class is a max-throughput multicommodity problem on that residual,
//! solved to its exact optimum by [`TeSolver`] — the one LP every other
//! exact answer in the workspace comes from, certified in debug builds
//! like any other `TeSolver` solve. The class problems keep the original
//! edge costs and origins, so on an augmented graph the fake edges'
//! penalties apply: no class rides an upgrade it does not need.
//!
//! Every class gets a fresh solver and a cold solve. Among degenerate
//! optima a warm simplex returns the vertex its history leads to, and the
//! round engine's memo and counterfactual caches need `try_solve` to be a
//! pure function of the problem.

use crate::demand::Priority;
use crate::problem::{TeProblem, TeSolution};
use crate::solver::TeSolver;
use crate::{TeAlgorithm, TeError};

/// The SWAN-style solver: strict priority, one exact LP per class. Nothing
/// to configure; braced rather than a unit struct so that the
/// `SwanTe::default()` every call site writes stays lint-clean.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SwanTe {}

impl TeAlgorithm for SwanTe {
    fn name(&self) -> &'static str {
        "swan"
    }

    fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError> {
        let mut routed = vec![0.0; problem.commodities.len()];
        let mut edge_flows = vec![0.0; problem.net.n_edges()];
        // The problem one class sees: the capacity the classes above left.
        let mut residual = TeProblem {
            net: problem.net.clone(),
            origins: problem.origins.clone(),
            commodities: vec![],
            demands: vec![],
        };

        for class in Priority::ALL {
            let indices = problem.commodities_of(class);
            if indices.is_empty() {
                continue;
            }
            residual.commodities = indices.iter().map(|&i| problem.commodities[i]).collect();
            residual.demands = indices.iter().map(|&i| problem.demands[i]).collect();
            let class_solution = TeSolver::default().try_solve(&residual)?;
            for (&idx, &r) in indices.iter().zip(&class_solution.routed) {
                routed[idx] = r;
            }
            for (e, (flow, used)) in
                edge_flows.iter_mut().zip(&class_solution.edge_flows).enumerate()
            {
                *flow += used;
                let left = (residual.net.edge(e).capacity - used).max(0.0);
                residual.net.set_capacity(e, left);
            }
        }
        let total = routed.iter().sum();
        Ok(TeSolution { routed, edge_flows, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::DemandMatrix;
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    fn contended_problem() -> TeProblem {
        // A 3-node line: both demands fight over the single B–C link.
        let wan = builders::ring(3, 400.0);
        let mut wan = wan;
        // Use ring(3): nodes R0,R1,R2, links R0-R1, R1-R2, R2-R0.
        let r0 = wan.node_by_name("R0").unwrap();
        let r1 = wan.node_by_name("R1").unwrap();
        let mut dm = DemandMatrix::new();
        // 150 G of interactive + 150 G of background between the same pair:
        // capacity (direct 100 + detour 100) = 200 total.
        dm.add(r0, r1, Gbps(150.0), Priority::Interactive);
        dm.add(r0, r1, Gbps(150.0), Priority::Background);
        let _ = &mut wan;
        TeProblem::from_wan(&wan, &dm)
    }

    #[test]
    fn interactive_wins_contention() {
        let p = contended_problem();
        let sol = SwanTe::default().solve(&p);
        sol.validate(&p).unwrap();
        // ~200 G total is routable; interactive must get its 150 first.
        assert!(sol.routed[0] > 140.0, "interactive={}", sol.routed[0]);
        assert!(
            sol.routed[1] < sol.routed[0],
            "background {} must trail interactive {}",
            sol.routed[1],
            sol.routed[0]
        );
        assert!(sol.total > 180.0, "total={}", sol.total);
    }

    #[test]
    fn uncontended_routes_all_classes() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(30.0), Priority::Interactive);
        dm.add(a, b, Gbps(30.0), Priority::Elastic);
        dm.add(a, b, Gbps(30.0), Priority::Background);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = SwanTe::default().solve(&p);
        sol.validate(&p).unwrap();
        assert!((sol.satisfaction(&p) - 1.0).abs() < 0.02, "sat={}", sol.satisfaction(&p));
    }

    #[test]
    fn zero_demand_classes_route_nothing() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(0.0), Priority::Interactive);
        dm.add(a, b, Gbps(30.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = SwanTe::default().solve(&p);
        sol.validate(&p).unwrap();
        assert_eq!(sol.routed[0], 0.0);
        assert!((sol.total - 30.0).abs() < 1e-9, "total={}", sol.total);
    }

    #[test]
    fn empty_matrix_is_zero() {
        let wan = builders::fig7_example();
        let p = TeProblem::from_wan(&wan, &DemandMatrix::new());
        let sol = SwanTe::default().solve(&p);
        assert_eq!(sol.total, 0.0);
        assert!(sol.edge_flows.iter().all(|&f| f == 0.0));
    }

    #[test]
    fn gravity_workload_on_abilene() {
        let wan = builders::abilene();
        let dm = DemandMatrix::gravity(&wan, Gbps(600.0), 3);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = SwanTe::default().solve(&p);
        sol.validate(&p).unwrap();
        // A light load (600 G over a 1.4 T network) should be mostly
        // satisfiable.
        assert!(sol.satisfaction(&p) > 0.8, "sat={}", sol.satisfaction(&p));
    }
}
