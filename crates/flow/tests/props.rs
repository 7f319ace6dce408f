//! Property tests for flow-algorithm invariants on random networks.

use proptest::prelude::*;
use rwc_flow::decompose::decompose;
use rwc_flow::network::FlowNetwork;
use rwc_flow::{max_flow, min_cost_max_flow};

fn arb_network() -> impl Strategy<Value = FlowNetwork> {
    proptest::collection::vec((0usize..7, 0usize..7, 0.1f64..25.0, 0.0f64..8.0), 3..25).prop_map(
        |edges| {
            let mut net = FlowNetwork::new(7);
            for (u, v, cap, cost) in edges {
                if u != v {
                    net.add_edge(u, v, cap, cost);
                }
            }
            net
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dinic's output always validates, and zeroing any saturated edge
    /// can only reduce the max flow (cut monotonicity).
    #[test]
    fn max_flow_validates_and_is_monotone(net in arb_network()) {
        let flow = max_flow(&net, 0, 6);
        prop_assert!(flow.validate(&net, 0, 6).is_ok());
        // Capacity monotonicity: doubling all capacities at least doubles
        // nothing away — value cannot decrease.
        let mut bigger = FlowNetwork::new(net.n_nodes());
        for e in net.edges() {
            bigger.add_edge(e.from, e.to, e.capacity * 2.0, e.cost);
        }
        let flow2 = max_flow(&bigger, 0, 6);
        prop_assert!(flow2.value >= flow.value - 1e-9);
        prop_assert!(flow2.value <= 2.0 * flow.value + 1e-9);
    }

    /// Min-cost max-flow achieves the max-flow value and its cost is a
    /// lower bound over any feasible max-flow (checked against Dinic's
    /// arbitrary one).
    #[test]
    fn min_cost_reaches_value_at_no_more_cost(net in arb_network()) {
        let dinic = max_flow(&net, 0, 6);
        let mc = min_cost_max_flow(&net, 0, 6);
        prop_assert!(mc.flow.validate(&net, 0, 6).is_ok());
        prop_assert!((mc.flow.value - dinic.value).abs() < 1e-6);
        prop_assert!(mc.cost <= dinic.cost(&net) + 1e-6,
            "min-cost {} beat by dinic {}", mc.cost, dinic.cost(&net));
    }

    /// Path decomposition conserves value, uses only forward edges with
    /// flow, and every path is simple source→sink.
    #[test]
    fn decomposition_invariants(net in arb_network()) {
        let flow = max_flow(&net, 0, 6);
        let paths = decompose(&net, &flow, 0, 6);
        let total: f64 = paths.iter().map(|p| p.amount).sum();
        prop_assert!((total - flow.value).abs() < 1e-6);
        for p in &paths {
            prop_assert!(p.amount > 0.0);
            prop_assert_eq!(p.nodes[0], 0);
            prop_assert_eq!(*p.nodes.last().unwrap(), 6);
            let mut sorted = p.nodes.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), p.nodes.len(), "loop in {:?}", p.nodes);
        }
        // Per-edge: decomposed usage never exceeds the flow on that edge.
        let mut used = vec![0.0; net.n_edges()];
        for p in &paths {
            for &e in &p.edges {
                used[e] += p.amount;
            }
        }
        for (u, f) in used.iter().zip(&flow.edge_flows) {
            prop_assert!(u <= &(f + 1e-6));
        }
    }
}
