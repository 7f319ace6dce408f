//! Small flow networks with known optima, solved by [`TeSolver`] — the LP
//! lowering every TE objective ships on — and held to Dinic and the
//! successive-shortest-path solver in `rwc-flow`.

use crate::demand::{DemandMatrix, Priority};
use crate::problem::{Commodity, EdgeOrigin, TeProblem, TeSolution};
use crate::solver::TeSolver;
use crate::TeAlgorithm;
use rwc_flow::network::FlowNetwork;
use rwc_topology::graph::NodeId;
use rwc_util::units::Gbps;

/// A network over `n` nodes with `(from, to, capacity, cost)` edges.
fn network(n: usize, edges: &[(usize, usize, f64, f64)]) -> FlowNetwork {
    let mut net = FlowNetwork::new(n);
    for &(u, v, c, w) in edges {
        net.add_edge(u, v, c, w);
    }
    net
}

/// `net` as a TE problem routing `commodities` (`(source, sink, demand)`).
pub(crate) fn te_problem(net: &FlowNetwork, commodities: &[(usize, usize, f64)]) -> TeProblem {
    let mut dm = DemandMatrix::new();
    for &(s, t, d) in commodities {
        dm.add(NodeId(s), NodeId(t), Gbps(d), Priority::Elastic);
    }
    TeProblem {
        net: net.clone(),
        origins: vec![EdgeOrigin::Auxiliary; net.n_edges()],
        commodities: commodities
            .iter()
            .map(|&(source, sink, demand)| Commodity { source, sink, demand })
            .collect(),
        demands: dm.demands().to_vec(),
    }
}

/// `TeSolver`'s validated max-throughput routing of `commodities`.
fn te_solve(net: &FlowNetwork, commodities: &[(usize, usize, f64)]) -> TeSolution {
    let problem = te_problem(net, commodities);
    let sol = TeSolver::default().try_solve(&problem).expect("TE solve");
    sol.validate(&problem).unwrap();
    sol
}

/// `TeSolver` on one commodity `source → sink` whose demand exceeds every
/// capacity combined: with the `1e6` throughput weight, edge cost is an
/// exact lexicographic tie-break (every path costs less), so the optimum
/// is a min-cost max-flow. Returns its value and cost.
fn te_min_cost_max_flow(net: &FlowNetwork, source: usize, sink: usize) -> (f64, f64) {
    let demand = 1.0 + net.edges().iter().map(|e| e.capacity).sum::<f64>();
    let sol = te_solve(net, &[(source, sink, demand)]);
    let cost = sol.edge_flows.iter().zip(net.edges()).map(|(f, e)| f * e.cost).sum();
    (sol.total, cost)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lp_max_flow_series() {
        let net = network(3, &[(0, 1, 10.0, 0.0), (1, 2, 4.0, 0.0)]);
        let (value, _) = te_min_cost_max_flow(&net, 0, 2);
        assert!((value - 4.0).abs() < 1e-6, "value={value}");
    }

    #[test]
    fn lp_max_flow_clrs() {
        let clrs = [
            (0, 1, 16.0, 0.0), (0, 2, 13.0, 0.0), (1, 2, 10.0, 0.0), (2, 1, 4.0, 0.0),
            (1, 3, 12.0, 0.0), (3, 2, 9.0, 0.0), (2, 4, 14.0, 0.0), (4, 3, 7.0, 0.0),
            (3, 5, 20.0, 0.0), (4, 5, 4.0, 0.0),
        ];
        let (value, _) = te_min_cost_max_flow(&network(6, &clrs), 0, 5);
        assert!((value - 23.0).abs() < 1e-6, "value={value}");
    }

    #[test]
    fn lp_min_cost_prefers_cheap() {
        let cheap_and_dear = [(0, 1, 5.0, 1.0), (1, 3, 5.0, 1.0), (0, 2, 5.0, 10.0), (2, 3, 5.0, 10.0)];
        let (value, cost) = te_min_cost_max_flow(&network(4, &cheap_and_dear), 0, 3);
        assert!((value - 10.0).abs() < 1e-6, "value={value}");
        assert!((cost - (10.0 + 100.0)).abs() < 1e-6, "cost={cost}");
    }

    #[test]
    fn lp_mcf_shared_bottleneck() {
        let net = network(4, &[(0, 1, 100.0, 0.0), (3, 1, 100.0, 0.0), (1, 2, 10.0, 0.0)]);
        let total = te_solve(&net, &[(0, 2, 8.0), (3, 2, 8.0)]).total;
        assert!((total - 10.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn lp_mcf_uncontended() {
        let net = network(3, &[(0, 1, 100.0, 0.0), (1, 2, 100.0, 0.0)]);
        let total = te_solve(&net, &[(0, 2, 30.0)]).total;
        assert!((total - 30.0).abs() < 1e-6, "total={total}");
    }

    #[test]
    fn matches_combinatorial_solvers() {
        let net = network(
            5,
            &[
                (0, 1, 7.0, 2.0), (0, 2, 9.0, 1.0), (1, 2, 3.0, 0.5), (1, 3, 5.0, 3.0),
                (2, 3, 8.0, 2.5), (2, 4, 4.0, 1.0), (3, 4, 10.0, 0.0),
            ],
        );
        let (lp_value, lp_cost) = te_min_cost_max_flow(&net, 0, 4);
        let dinic = rwc_flow::max_flow(&net, 0, 4);
        assert!((dinic.value - lp_value).abs() < 1e-6, "dinic={} lp={lp_value}", dinic.value);

        let mc = rwc_flow::min_cost_max_flow(&net, 0, 4);
        assert!((mc.flow.value - lp_value).abs() < 1e-6);
        assert!((mc.cost - lp_cost).abs() < 1e-6, "ssp={} lp={lp_cost}", mc.cost);
    }
}
