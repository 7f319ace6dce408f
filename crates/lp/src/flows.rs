//! Flow problems encoded as linear programs.
//!
//! These encoders give the combinatorial solvers in `rwc-flow` an exact
//! reference: Dinic and the min-cost solver are polynomial and exact
//! already (the LP double-checks the implementation), and the
//! multicommodity encoder is an independent second lowering of the
//! max-throughput LP `rwc-te` solves; tests hold the two optima equal.

use crate::model::{LpBuilder, Relation};
use crate::revised::{solve, LpOutcome};

/// Edge list form used by the encoders: `(from, to, capacity)`.
pub type EdgeList = Vec<(usize, usize, f64)>;

/// Exact max-flow value via LP.
///
/// Variables: one flow per edge. Objective: net outflow of `source`.
/// Constraints: conservation at every non-terminal node, capacity per edge.
pub fn max_flow_lp_value(n_nodes: usize, edges: &EdgeList, source: usize, sink: usize) -> f64 {
    assert!(source < n_nodes && sink < n_nodes && source != sink);
    // Objective: net outflow of source = sum(out) - sum(in).
    let mut b = LpBuilder::new();
    for &(u, v, _) in edges.iter() {
        let coeff = if u == source {
            1.0
        } else if v == source {
            -1.0
        } else {
            0.0
        };
        b.add_var(coeff);
    }
    // Capacity constraints.
    for (i, &(_, _, cap)) in edges.iter().enumerate() {
        b.add_constraint(&[(i, 1.0)], Relation::Le, cap);
    }
    // Conservation at non-terminals.
    for node in 0..n_nodes {
        if node == source || node == sink {
            continue;
        }
        let mut terms = Vec::new();
        for (i, &(u, v, _)) in edges.iter().enumerate() {
            if u == node {
                terms.push((i, 1.0));
            }
            if v == node {
                terms.push((i, -1.0));
            }
        }
        if !terms.is_empty() {
            b.add_constraint(&terms, Relation::Eq, 0.0);
        }
    }
    match solve(&b.build()) {
        LpOutcome::Optimal(s) => s.objective,
        other => panic!("max-flow LP must be optimal, got {other:?}"),
    }
}

/// Exact min-cost max-flow via LP: first solves for the max-flow value `F`,
/// then minimises cost subject to shipping exactly `F`.
///
/// `edges` carry `(from, to, capacity, cost)`. Returns `(value, cost)`.
pub fn min_cost_max_flow_lp(
    n_nodes: usize,
    edges: &[(usize, usize, f64, f64)],
    source: usize,
    sink: usize,
) -> (f64, f64) {
    let cap_only: EdgeList = edges.iter().map(|&(u, v, c, _)| (u, v, c)).collect();
    let value = max_flow_lp_value(n_nodes, &cap_only, source, sink);

    let mut b = LpBuilder::new();
    for &(_, _, _, cost) in edges {
        b.add_var(-cost); // maximise −cost = minimise cost
    }
    for (i, &(_, _, cap, _)) in edges.iter().enumerate() {
        b.add_constraint(&[(i, 1.0)], Relation::Le, cap);
    }
    for node in 0..n_nodes {
        if node == source || node == sink {
            continue;
        }
        let mut terms = Vec::new();
        for (i, &(u, v, _, _)) in edges.iter().enumerate() {
            if u == node {
                terms.push((i, 1.0));
            }
            if v == node {
                terms.push((i, -1.0));
            }
        }
        if !terms.is_empty() {
            b.add_constraint(&terms, Relation::Eq, 0.0);
        }
    }
    // Ship exactly the max-flow value out of the source.
    let mut source_terms = Vec::new();
    for (i, &(u, v, _, _)) in edges.iter().enumerate() {
        if u == source {
            source_terms.push((i, 1.0));
        }
        if v == source {
            source_terms.push((i, -1.0));
        }
    }
    b.add_constraint(&source_terms, Relation::Eq, value);
    match solve(&b.build()) {
        LpOutcome::Optimal(s) => (value, -s.objective),
        other => panic!("min-cost LP must be optimal, got {other:?}"),
    }
}

/// Exact maximum total multicommodity throughput with demand caps.
///
/// Variables: per-commodity, per-edge flows. Returns the optimal total.
pub fn max_multicommodity_lp_total(
    n_nodes: usize,
    edges: &EdgeList,
    commodities: &[(usize, usize, f64)],
) -> f64 {
    assert!(!commodities.is_empty());
    let k = commodities.len();
    let m = edges.len();
    let mut b = LpBuilder::new();
    // Variable (ki, ei) at index ki*m + ei. Objective: net outflow at each
    // commodity's source.
    for (src, _, _) in commodities {
        for &(u, v, _) in edges.iter() {
            let coeff = if u == *src {
                1.0
            } else if v == *src {
                -1.0
            } else {
                0.0
            };
            b.add_var(coeff);
        }
    }
    // Shared capacity.
    for (ei, edge) in edges.iter().enumerate().take(m) {
        let terms: Vec<(usize, f64)> = (0..k).map(|ki| (ki * m + ei, 1.0)).collect();
        b.add_constraint(&terms, Relation::Le, edge.2);
    }
    // Conservation per commodity at non-terminals.
    for (ki, &(src, dst, _)) in commodities.iter().enumerate() {
        for node in 0..n_nodes {
            if node == src || node == dst {
                continue;
            }
            let mut terms = Vec::new();
            for (ei, &(u, v, _)) in edges.iter().enumerate() {
                if u == node {
                    terms.push((ki * m + ei, 1.0));
                }
                if v == node {
                    terms.push((ki * m + ei, -1.0));
                }
            }
            if !terms.is_empty() {
                b.add_constraint(&terms, Relation::Eq, 0.0);
            }
        }
        // Demand cap: net outflow at the commodity's source ≤ demand.
        let mut terms = Vec::new();
        for (ei, &(u, v, _)) in edges.iter().enumerate() {
            if u == src {
                terms.push((ki * m + ei, 1.0));
            }
            if v == src {
                terms.push((ki * m + ei, -1.0));
            }
        }
        b.add_constraint(&terms, Relation::Le, commodities[ki].2);
        // No re-entrant flow at the source (keeps net outflow = gross).
    }
    match solve(&b.build()) {
        LpOutcome::Optimal(s) => s.objective,
        other => panic!("MCF LP must be optimal, got {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_max_flow_series() {
        let edges = vec![(0, 1, 10.0), (1, 2, 4.0)];
        assert!((max_flow_lp_value(3, &edges, 0, 2) - 4.0).abs() < 1e-6);
    }

    #[test]
    fn lp_max_flow_clrs() {
        let edges = vec![
            (0, 1, 16.0),
            (0, 2, 13.0),
            (1, 2, 10.0),
            (2, 1, 4.0),
            (1, 3, 12.0),
            (3, 2, 9.0),
            (2, 4, 14.0),
            (4, 3, 7.0),
            (3, 5, 20.0),
            (4, 5, 4.0),
        ];
        assert!((max_flow_lp_value(6, &edges, 0, 5) - 23.0).abs() < 1e-6);
    }

    #[test]
    fn lp_min_cost_prefers_cheap() {
        let edges = vec![
            (0, 1, 5.0, 1.0),
            (1, 3, 5.0, 1.0),
            (0, 2, 5.0, 10.0),
            (2, 3, 5.0, 10.0),
        ];
        let (value, cost) = min_cost_max_flow_lp(4, &edges, 0, 3);
        assert!((value - 10.0).abs() < 1e-6);
        assert!((cost - (10.0 + 100.0)).abs() < 1e-6);
    }

    #[test]
    fn lp_mcf_shared_bottleneck() {
        let edges = vec![(0, 1, 100.0), (3, 1, 100.0), (1, 2, 10.0)];
        let commodities = vec![(0, 2, 8.0), (3, 2, 8.0)];
        let total = max_multicommodity_lp_total(4, &edges, &commodities);
        assert!((total - 10.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn lp_mcf_uncontended() {
        let edges = vec![(0, 1, 100.0), (1, 2, 100.0)];
        let commodities = vec![(0, 2, 30.0)];
        let total = max_multicommodity_lp_total(3, &edges, &commodities);
        assert!((total - 30.0).abs() < 1e-6);
    }

    #[test]
    fn matches_combinatorial_solvers() {
        use rwc_flow::network::FlowNetwork;
        let edge_data = [
            (0usize, 1usize, 7.0, 2.0),
            (0, 2, 9.0, 1.0),
            (1, 2, 3.0, 0.5),
            (1, 3, 5.0, 3.0),
            (2, 3, 8.0, 2.5),
            (2, 4, 4.0, 1.0),
            (3, 4, 10.0, 0.0),
        ];
        let mut net = FlowNetwork::new(5);
        for &(u, v, c, w) in &edge_data {
            net.add_edge(u, v, c, w);
        }
        let dinic = rwc_flow::max_flow(&net, 0, 4);
        let cap_only: EdgeList = edge_data.iter().map(|&(u, v, c, _)| (u, v, c)).collect();
        let lp_val = max_flow_lp_value(5, &cap_only, 0, 4);
        assert!((dinic.value - lp_val).abs() < 1e-6, "dinic={} lp={lp_val}", dinic.value);

        let mc = rwc_flow::min_cost_max_flow(&net, 0, 4);
        let (lp_v, lp_c) = min_cost_max_flow_lp(5, &edge_data, 0, 4);
        assert!((mc.flow.value - lp_v).abs() < 1e-6);
        assert!((mc.cost - lp_c).abs() < 1e-6, "ssp={} lp={lp_c}", mc.cost);
    }
}
