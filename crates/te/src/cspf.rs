//! MPLS-TE-style CSPF baseline.
//!
//! Distributed MPLS-TE places each LSP independently: constrained shortest
//! path first — take the shortest path (by hop count here) among links
//! with enough *remaining* bandwidth for the whole reservation, in demand
//! order, no coordination. This is the "before SDN" baseline the paper's
//! TE discussion starts from: it is order-dependent and leaves throughput
//! on the table under contention, which makes the gains of centralised TE
//! (and of dynamic capacity) visible in the experiments.

use crate::problem::{TeProblem, TeSolution};
use crate::{TeAlgorithm, TeError};
use rwc_flow::EPS;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// CSPF configuration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CspfTe {
    /// If true, a demand that cannot be placed whole is dropped entirely
    /// (classic single-LSP semantics). If false, it is split greedily
    /// across successive constrained shortest paths.
    pub unsplittable: bool,
}

#[derive(PartialEq)]
struct Entry {
    dist: f64,
    node: usize,
}

impl Eq for Entry {}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.cmp(&other.node))
    }
}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Shortest path among edges with residual ≥ `need`; returns edge list.
fn constrained_shortest_path(
    n: usize,
    edges: &[(usize, usize)],
    adj: &[Vec<usize>],
    residual: &[f64],
    need: f64,
    src: usize,
    dst: usize,
) -> Option<Vec<usize>> {
    let mut dist = vec![f64::INFINITY; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src] = 0.0;
    heap.push(Entry { dist: 0.0, node: src });
    while let Some(Entry { dist: d, node: u }) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &ei in &adj[u] {
            // Unusable if it cannot fit the reservation or is exhausted.
            if residual[ei] + EPS < need || residual[ei] <= EPS {
                continue;
            }
            let v = edges[ei].1;
            if d + 1.0 < dist[v] {
                dist[v] = d + 1.0;
                parent[v] = Some(ei);
                heap.push(Entry { dist: d + 1.0, node: v });
            }
        }
    }
    if !dist[dst].is_finite() {
        return None;
    }
    let mut path = Vec::new();
    let mut v = dst;
    while v != src {
        let ei = parent[v]?;
        path.push(ei);
        v = edges[ei].0;
    }
    path.reverse();
    Some(path)
}

impl TeAlgorithm for CspfTe {
    fn name(&self) -> &'static str {
        "cspf"
    }

    fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError> {
        let net = &problem.net;
        let n = net.n_nodes();
        let edges: Vec<(usize, usize)> = net.edges().iter().map(|e| (e.from, e.to)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, &(u, _)) in edges.iter().enumerate() {
            adj[u].push(i);
        }
        let mut residual: Vec<f64> = net.edges().iter().map(|e| e.capacity).collect();
        let mut routed = vec![0.0; problem.commodities.len()];
        let mut edge_flows = vec![0.0; net.n_edges()];

        for (ki, c) in problem.commodities.iter().enumerate() {
            if c.demand <= EPS {
                continue;
            }
            if self.unsplittable {
                // One LSP carrying the full demand or nothing.
                if let Some(path) = constrained_shortest_path(
                    n, &edges, &adj, &residual, c.demand, c.source, c.sink,
                ) {
                    for &ei in &path {
                        residual[ei] -= c.demand;
                        edge_flows[ei] += c.demand;
                    }
                    routed[ki] = c.demand;
                }
            } else {
                let mut remaining = c.demand;
                while remaining > EPS {
                    // Any positive-residual path; reserve as much as fits.
                    let Some(path) = constrained_shortest_path(
                        n, &edges, &adj, &residual, EPS, c.source, c.sink,
                    ) else {
                        break;
                    };
                    let bottleneck =
                        path.iter().map(|&ei| residual[ei]).fold(remaining, f64::min);
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

    fn ab_problem(volumes: &[f64]) -> TeProblem {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        for &v in volumes {
            dm.add(a, b, Gbps(v), Priority::Elastic);
        }
        TeProblem::from_wan(&wan, &dm)
    }

    #[test]
    fn splittable_fills_paths() {
        let p = ab_problem(&[250.0]);
        let sol = CspfTe { unsplittable: false }.try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        assert!(sol.total > 150.0, "total={}", sol.total);
    }

    #[test]
    fn unsplittable_places_whole_or_nothing() {
        // 150 G cannot fit any single 100 G path: must be dropped.
        let p = ab_problem(&[150.0]);
        let sol = CspfTe { unsplittable: true }.try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        assert_eq!(sol.total, 0.0);
        // 80 G fits on the direct link.
        let p = ab_problem(&[80.0]);
        let sol = CspfTe { unsplittable: true }.try_solve(&p).expect("TE solve");
        assert_eq!(sol.total, 80.0);
    }

    #[test]
    fn order_dependence_is_visible() {
        // First demand hogs the direct path; second detours.
        let p = ab_problem(&[100.0, 100.0]);
        let sol = CspfTe { unsplittable: true }.try_solve(&p).expect("TE solve");
        sol.validate(&p).unwrap();
        assert_eq!(sol.routed[0], 100.0);
        assert_eq!(sol.routed[1], 100.0, "detour via C exists");
        // Third demand of 100 must fail: no single remaining 100 G path.
        let p3 = ab_problem(&[100.0, 100.0, 100.0]);
        let sol3 = CspfTe { unsplittable: true }.try_solve(&p3).expect("TE solve");
        assert_eq!(sol3.routed[2], 0.0);
    }

    #[test]
    fn shortest_path_preferred() {
        let p = ab_problem(&[50.0]);
        let sol = CspfTe { unsplittable: true }.try_solve(&p).expect("TE solve");
        // Direct A→B edge is edge 0; all 50 G must ride it.
        assert_eq!(sol.edge_flows[0], 50.0);
        assert!(sol.edge_flows.iter().skip(1).all(|&f| f == 0.0));
    }

    #[test]
    fn zero_demand_skipped() {
        let p = ab_problem(&[0.0]);
        let sol = CspfTe::default().try_solve(&p).expect("TE solve");
        assert_eq!(sol.total, 0.0);
    }
}
