//! MPLS-TE-style CSPF baseline.
//!
//! Distributed MPLS-TE places each LSP independently: constrained shortest
//! path first — take the shortest path (by hop count here) among links
//! with *remaining* bandwidth, reserve what fits, and repeat for the rest
//! of the demand; demands go in order, with no coordination. This is the "before SDN" baseline the paper's
//! TE discussion starts from: it is order-dependent and leaves throughput
//! on the table under contention, which makes the gains of centralised TE
//! (and of dynamic capacity) visible in the experiments.

use crate::path_search::HopGraph;
use crate::problem::{TeProblem, TeSolution};
use crate::{TeAlgorithm, TeError};
use rwc_flow::EPS;

/// The CSPF baseline: each demand, in order, split greedily across
/// successive constrained shortest paths. Nothing to configure; braced
/// rather than a unit struct so that `CspfTe::default()` stays lint-clean.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CspfTe {}

impl TeAlgorithm for CspfTe {
    fn name(&self) -> &'static str {
        "cspf"
    }

    fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError> {
        let net = &problem.net;
        let graph = HopGraph::new(net);
        let mut residual: Vec<f64> = net.edges().iter().map(|e| e.capacity).collect();
        let mut routed = vec![0.0; problem.commodities.len()];
        let mut edge_flows = vec![0.0; net.n_edges()];

        for (ki, c) in problem.commodities.iter().enumerate() {
            let mut remaining = c.demand;
            while remaining > EPS {
                // Any positive-residual path; reserve as much as fits.
                let Some(path) =
                    graph.shortest_path(c.source, c.sink, |ei| residual[ei] > EPS)
                else {
                    break;
                };
                let bottleneck = path.iter().map(|&ei| residual[ei]).fold(remaining, f64::min);
                if bottleneck <= EPS {
                    break;
                }
                for &ei in &path {
                    residual[ei] -= bottleneck;
                    edge_flows[ei] += bottleneck;
                }
                routed[ki] += bottleneck;
                remaining -= bottleneck;
            }
        }
        let total = routed.iter().sum();
        Ok(TeSolution { routed, edge_flows, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{DemandMatrix, Priority};
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    /// Fig. 7's square (100 G links A–B, C–D, A–C, B–D) with `demands`
    /// as `(from, to, Gbps)` in order.
    fn fig7_problem(demands: &[(&str, &str, f64)]) -> TeProblem {
        let wan = builders::fig7_example();
        let mut dm = DemandMatrix::new();
        for &(from, to, v) in demands {
            let from = wan.node_by_name(from).unwrap();
            let to = wan.node_by_name(to).unwrap();
            dm.add(from, to, Gbps(v), Priority::Elastic);
        }
        TeProblem::from_wan(&wan, &dm)
    }

    #[test]
    fn splittable_fills_paths() {
        let p = fig7_problem(&[("A", "B", 250.0)]);
        let sol = CspfTe::default().try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        assert!(sol.total > 150.0, "total={}", sol.total);
    }

    #[test]
    fn order_dependence_is_visible() {
        // Placed first, A→B takes the direct link and the detour through
        // C→D, stranding C→D.
        let p = fig7_problem(&[("A", "B", 200.0), ("C", "D", 100.0)]);
        let sol = CspfTe::default().try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        assert_eq!(sol.routed, vec![200.0, 0.0]);
        // Placed first, C→D keeps its link and A→B gets the direct one only.
        let p = fig7_problem(&[("C", "D", 100.0), ("A", "B", 200.0)]);
        let sol = CspfTe::default().try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        assert_eq!(sol.routed, vec![100.0, 100.0]);
    }

    #[test]
    fn shortest_path_preferred() {
        let p = fig7_problem(&[("A", "B", 50.0)]);
        let sol = CspfTe::default().try_solve(&p).expect("TE solve");
        // Direct A→B edge is edge 0; all 50 G must ride it.
        assert_eq!(sol.edge_flows[0], 50.0);
        assert!(sol.edge_flows.iter().skip(1).all(|&f| f == 0.0));
    }

    #[test]
    fn zero_demand_skipped() {
        let p = fig7_problem(&[("A", "B", 0.0)]);
        let sol = CspfTe::default().try_solve(&p).expect("TE solve");
        assert_eq!(sol.total, 0.0);
    }
}
