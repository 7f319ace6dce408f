//! Dinic's maximum-flow algorithm.
//!
//! Level-graph BFS phases with blocking-flow DFS; `O(V²E)` in general and
//! far better on the sparse WAN graphs we feed it. Used directly as the
//! paper's "max-flow on G" reference (Theorem 1), and by the TE layer
//! to compute achievable throughput.

use crate::network::{Flow, FlowNetwork, Residual};
use crate::EPS;

/// Computes a maximum `source`→`sink` flow.
pub fn max_flow(net: &FlowNetwork, source: usize, sink: usize) -> Flow {
    assert!(source < net.n_nodes() && sink < net.n_nodes(), "endpoint out of range");
    assert_ne!(source, sink, "source and sink must differ");
    let mut r = Residual::from_network(net);
    let n = net.n_nodes();
    let mut value = 0.0;
    let mut level = vec![-1i32; n];
    let mut iter = vec![0usize; n];
    loop {
        // BFS: build level graph.
        level.iter_mut().for_each(|l| *l = -1);
        level[source] = 0;
        let mut queue = std::collections::VecDeque::from([source]);
        while let Some(u) = queue.pop_front() {
            for &arc in &r.adj[u] {
                let v = r.head[arc];
                if r.cap[arc] > EPS && level[v] < 0 {
                    level[v] = level[u] + 1;
                    queue.push_back(v);
                }
            }
        }
        if level[sink] < 0 {
            break;
        }
        // DFS blocking flow.
        iter.iter_mut().for_each(|i| *i = 0);
        loop {
            let pushed = dfs(&mut r, &level, &mut iter, source, sink, f64::INFINITY);
            if pushed <= EPS {
                break;
            }
            value += pushed;
        }
    }
    Flow { edge_flows: r.edge_flows(net), value }
}

/// The widest single `source`→`sink` path: the largest capacity one
/// path (no splitting) can carry, i.e. the max over paths of the
/// smallest edge capacity on it (0 if `sink` is unreachable).
/// Bellman–Ford style, `O(V·E)`.
pub fn widest_path(net: &FlowNetwork, source: usize, sink: usize) -> f64 {
    let mut width = vec![0.0f64; net.n_nodes()];
    width[source] = f64::INFINITY;
    for _ in 0..net.n_nodes() {
        let mut changed = false;
        for e in net.edges() {
            let through = width[e.from].min(e.capacity);
            if through > width[e.to] {
                width[e.to] = through;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    width[sink]
}

fn dfs(
    r: &mut Residual,
    level: &[i32],
    iter: &mut [usize],
    u: usize,
    sink: usize,
    limit: f64,
) -> f64 {
    if u == sink {
        return limit;
    }
    while iter[u] < r.adj[u].len() {
        let arc = r.adj[u][iter[u]];
        let v = r.head[arc];
        if r.cap[arc] > EPS && level[v] == level[u] + 1 {
            let pushed = dfs(r, level, iter, v, sink, limit.min(r.cap[arc]));
            if pushed > EPS {
                r.cap[arc] -= pushed;
                r.cap[arc ^ 1] += pushed;
                return pushed;
            }
        }
        iter[u] += 1;
    }
    0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 7.5, 0.0);
        let f = max_flow(&net, 0, 1);
        assert_eq!(f.value, 7.5);
        f.validate(&net, 0, 1).unwrap();
    }

    #[test]
    fn series_bottleneck() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 10.0, 0.0);
        net.add_edge(1, 2, 4.0, 0.0);
        let f = max_flow(&net, 0, 2);
        assert_eq!(f.value, 4.0);
        f.validate(&net, 0, 2).unwrap();
    }

    #[test]
    fn parallel_paths_sum() {
        let mut net = FlowNetwork::new(4);
        net.add_edge(0, 1, 3.0, 0.0);
        net.add_edge(1, 3, 3.0, 0.0);
        net.add_edge(0, 2, 5.0, 0.0);
        net.add_edge(2, 3, 5.0, 0.0);
        let f = max_flow(&net, 0, 3);
        assert_eq!(f.value, 8.0);
        f.validate(&net, 0, 3).unwrap();
    }

    #[test]
    fn parallel_edges_both_used() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 2.0, 0.0);
        net.add_edge(0, 1, 3.0, 0.0);
        let f = max_flow(&net, 0, 1);
        assert_eq!(f.value, 5.0);
        assert_eq!(f.edge_flows, vec![2.0, 3.0]);
    }

    #[test]
    fn classic_textbook_network() {
        // CLRS-style example with augmenting paths that need residual
        // (backward) arcs to reach the optimum.
        let mut net = FlowNetwork::new(6);
        net.add_edge(0, 1, 16.0, 0.0);
        net.add_edge(0, 2, 13.0, 0.0);
        net.add_edge(1, 2, 10.0, 0.0);
        net.add_edge(2, 1, 4.0, 0.0);
        net.add_edge(1, 3, 12.0, 0.0);
        net.add_edge(3, 2, 9.0, 0.0);
        net.add_edge(2, 4, 14.0, 0.0);
        net.add_edge(4, 3, 7.0, 0.0);
        net.add_edge(3, 5, 20.0, 0.0);
        net.add_edge(4, 5, 4.0, 0.0);
        let f = max_flow(&net, 0, 5);
        assert!((f.value - 23.0).abs() < EPS, "value={}", f.value);
        f.validate(&net, 0, 5).unwrap();
    }

    #[test]
    fn disconnected_sink() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 10.0, 0.0);
        let f = max_flow(&net, 0, 2);
        assert_eq!(f.value, 0.0);
        assert_eq!(f.edge_flows, vec![0.0]);
    }

    #[test]
    fn zero_capacity_edges_ignored() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, 0.0, 0.0);
        let f = max_flow(&net, 0, 1);
        assert_eq!(f.value, 0.0);
    }

    #[test]
    fn fractional_capacities() {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 1.25, 0.0);
        net.add_edge(1, 2, 0.75, 0.0);
        let f = max_flow(&net, 0, 2);
        assert!((f.value - 0.75).abs() < EPS);
    }

    #[test]
    fn respects_direction() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(1, 0, 10.0, 0.0); // only wrong-way edge
        let f = max_flow(&net, 0, 1);
        assert_eq!(f.value, 0.0);
    }

    #[test]
    #[should_panic]
    fn same_source_sink_rejected() {
        let net = FlowNetwork::new(2);
        max_flow(&net, 0, 0);
    }

    #[test]
    fn min_cut_saturated() {
        // On the series network, the bottleneck edge is saturated.
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 10.0, 0.0);
        net.add_edge(1, 2, 4.0, 0.0);
        let f = max_flow(&net, 0, 2);
        assert!((f.edge_flows[1] - 4.0).abs() < EPS);
    }
}
