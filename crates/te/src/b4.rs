//! B4-style max-min fair tunnel allocation.
//!
//! B4 (Jain et al., SIGCOMM'13) routes each flow group over a small set of
//! pre-computed tunnels and allocates bandwidth max-min fairly by
//! progressively filling all groups at the same rate, freezing a group when
//! its demand is met or all of its tunnels hit a bottleneck. We reproduce
//! that with k-shortest-path tunnel groups and quantised filling (B4
//! likewise quantises allocation into discrete steps).
//!
//! Tunnels are computed on the *flow network* (not the WAN), so the solver
//! remains oblivious to fake upgrade edges — the property §4 requires.

use crate::path_search::HopGraph;
use crate::problem::{TeProblem, TeSolution};
use crate::{TeAlgorithm, TeError};
use rwc_flow::EPS;

/// Tunnels per commodity.
const K_TUNNELS: usize = 4;

/// Allocation quantum (Gbps per filling round).
const QUANTUM: f64 = 1.0;

/// The B4-style solver: max-min fair filling of four tunnels per commodity,
/// 1 G at a time. Nothing to configure; braced rather than a unit struct so
/// that `B4Te::default()` stays lint-clean.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct B4Te {}

/// Edge-disjoint-ish k shortest paths by hop count: repeated shortest-path
/// searches, suppressing the previous paths' edges. (Cheaper than full Yen
/// on flow networks and gives well-spread tunnels, which is what B4 wants.)
fn tunnels(graph: &HopGraph, usable: &[bool], src: usize, dst: usize) -> Vec<Vec<usize>> {
    let mut suppressed = vec![false; usable.len()];
    let mut found = Vec::new();
    for _ in 0..K_TUNNELS {
        let Some(path) = graph.shortest_path(src, dst, |ei| !suppressed[ei] && usable[ei])
        else {
            break;
        };
        for &ei in &path {
            suppressed[ei] = true;
        }
        found.push(path);
    }
    found
}

impl TeAlgorithm for B4Te {
    fn name(&self) -> &'static str {
        "b4"
    }

    fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError> {
        let net = &problem.net;
        let graph = HopGraph::new(net);
        let usable: Vec<bool> = net.edges().iter().map(|e| e.capacity > EPS).collect();

        // Tunnel groups per commodity.
        let groups: Vec<Vec<Vec<usize>>> = problem
            .commodities
            .iter()
            .map(|c| tunnels(&graph, &usable, c.source, c.sink))
            .collect();

        let mut residual: Vec<f64> = net.edges().iter().map(|e| e.capacity).collect();
        let mut routed = vec![0.0; problem.commodities.len()];
        let mut edge_flows = vec![0.0; net.n_edges()];
        let mut frozen: Vec<bool> = groups.iter().map(|g| g.is_empty()).collect();

        // Progressive filling: each round gives every unfrozen commodity
        // one quantum (or its remaining demand) along its first tunnel with
        // room. A commodity freezes when satisfied or when no tunnel has
        // residual capacity.
        loop {
            let mut progressed = false;
            for (ki, c) in problem.commodities.iter().enumerate() {
                if frozen[ki] {
                    continue;
                }
                let want = (c.demand - routed[ki]).min(QUANTUM);
                if want <= EPS {
                    frozen[ki] = true;
                    continue;
                }
                // First tunnel with enough bottleneck for *some* progress.
                let mut placed = false;
                for tunnel in &groups[ki] {
                    let bottleneck =
                        tunnel.iter().map(|&ei| residual[ei]).fold(f64::INFINITY, f64::min);
                    if bottleneck > EPS {
                        let amount = want.min(bottleneck);
                        for &ei in tunnel {
                            residual[ei] -= amount;
                            edge_flows[ei] += amount;
                        }
                        routed[ki] += amount;
                        placed = true;
                        progressed = true;
                        break;
                    }
                }
                if !placed {
                    frozen[ki] = true;
                }
            }
            if !progressed {
                break;
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

    #[test]
    fn single_demand_fills_tunnels() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        // 250 G demand over a topology with 100 G direct + detours.
        dm.add(a, b, Gbps(250.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = B4Te::default().try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        // Direct (100) + the edge-disjoint detour A-C-D-B (100) ⇒ 200.
        assert!(sol.total > 150.0, "total={}", sol.total);
    }

    #[test]
    fn max_min_fairness_between_competitors() {
        // Two equal demands sharing one bottleneck must split it evenly.
        let wan = builders::ring(3, 300.0);
        let r0 = wan.node_by_name("R0").unwrap();
        let r1 = wan.node_by_name("R1").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(r0, r1, Gbps(500.0), Priority::Elastic);
        dm.add(r0, r1, Gbps(500.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = B4Te::default().try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        // 200 G total reachable (direct + detour); fairness ⇒ ~100 each.
        assert!((sol.routed[0] - sol.routed[1]).abs() <= 2.0 + 1e-9,
            "unfair split: {:?}", sol.routed);
        assert!(sol.total > 190.0, "total={}", sol.total);
    }

    #[test]
    fn small_demand_fully_satisfied() {
        let wan = builders::abilene();
        let sea = wan.node_by_name("SEA").unwrap();
        let nyc = wan.node_by_name("NYC").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(sea, nyc, Gbps(40.0), Priority::Interactive);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = B4Te::default().try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        assert!((sol.routed[0] - 40.0).abs() < 1e-6);
    }

    #[test]
    fn disconnected_demand_freezes() {
        let mut wan = rwc_topology::wan::WanTopology::new();
        let a = wan.add_node("A", None);
        let b = wan.add_node("B", None);
        let c = wan.add_node("C", None);
        wan.add_link(a, b, 100.0);
        let mut dm = DemandMatrix::new();
        dm.add(a, c, Gbps(10.0), Priority::Elastic);
        dm.add(a, b, Gbps(10.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = B4Te::default().try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        assert_eq!(sol.routed[0], 0.0);
        assert!((sol.routed[1] - 10.0).abs() < 1e-6);
    }

    #[test]
    fn more_tunnels_never_hurt() {
        // A→D has two edge-disjoint two-hop paths, A→B→D and A→C→D, of
        // 100 G each: the tunnels after the first carry the second 100 G.
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, d, Gbps(400.0), Priority::Elastic);
        let p = TeProblem::from_wan(&wan, &dm);
        let sol = B4Te::default().try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        assert_eq!(sol.total, 200.0);
    }
}
