//! The flow-network representation shared by all solvers.

use crate::EPS;

/// One directed edge with capacity and (for min-cost problems) unit cost.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowEdge {
    /// Tail node.
    pub from: usize,
    /// Head node.
    pub to: usize,
    /// Capacity (≥ 0).
    pub capacity: f64,
    /// Cost per unit of flow (may be zero; negative costs are accepted by
    /// the min-cost solver as long as no negative cycle exists).
    pub cost: f64,
}

/// A directed flow network over nodes `0..n`.
///
/// Parallel edges are allowed and meaningful (the paper's fake links are
/// parallel edges with different costs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FlowNetwork {
    n: usize,
    edges: Vec<FlowEdge>,
}

impl FlowNetwork {
    /// An empty network with `n` nodes.
    pub fn new(n: usize) -> Self {
        Self { n, edges: Vec::new() }
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Adds a node, returning its index.
    pub fn add_node(&mut self) -> usize {
        self.n += 1;
        self.n - 1
    }

    /// Adds an edge, returning its index.
    pub fn add_edge(&mut self, from: usize, to: usize, capacity: f64, cost: f64) -> usize {
        assert!(from < self.n && to < self.n, "edge endpoint out of range");
        assert!(capacity >= 0.0 && capacity.is_finite(), "invalid capacity {capacity}");
        assert!(cost.is_finite(), "invalid cost {cost}");
        self.edges.push(FlowEdge { from, to, capacity, cost });
        self.edges.len() - 1
    }

    /// The edges in insertion order.
    pub fn edges(&self) -> &[FlowEdge] {
        &self.edges
    }

    /// One edge.
    pub fn edge(&self, idx: usize) -> FlowEdge {
        self.edges[idx]
    }

    /// Updates one edge's capacity in place (for incremental round
    /// engines that patch dirty links instead of rebuilding the network).
    pub fn set_capacity(&mut self, idx: usize, capacity: f64) {
        assert!(capacity >= 0.0 && capacity.is_finite(), "invalid capacity {capacity}");
        self.edges[idx].capacity = capacity;
    }

    /// Updates one edge's cost in place.
    pub fn set_cost(&mut self, idx: usize, cost: f64) {
        assert!(cost.is_finite(), "invalid cost {cost}");
        self.edges[idx].cost = cost;
    }

    /// Drops every edge with index ≥ `len`, keeping insertion order of the
    /// rest. Used to rebuild the fake-link suffix of an augmented network
    /// while leaving the real-edge prefix untouched.
    pub fn truncate_edges(&mut self, len: usize) {
        self.edges.truncate(len);
    }
}

/// A flow assignment over a network's edges.
#[derive(Debug, Clone, PartialEq)]
pub struct Flow {
    /// Flow on each edge, parallel to [`FlowNetwork::edges`].
    pub edge_flows: Vec<f64>,
    /// Total flow value from source to sink.
    pub value: f64,
}

impl Flow {
    /// Verifies capacity constraints and conservation at every node except
    /// `source` and `sink`. Returns an error message on the first
    /// violation.
    pub fn validate(&self, net: &FlowNetwork, source: usize, sink: usize) -> Result<(), String> {
        if self.edge_flows.len() != net.n_edges() {
            return Err(format!(
                "flow has {} entries for {} edges",
                self.edge_flows.len(),
                net.n_edges()
            ));
        }
        let mut balance = vec![0.0; net.n_nodes()];
        for (i, (&f, e)) in self.edge_flows.iter().zip(net.edges()).enumerate() {
            if f < -EPS {
                return Err(format!("edge {i}: negative flow {f}"));
            }
            if f > e.capacity + EPS {
                return Err(format!("edge {i}: flow {f} exceeds capacity {}", e.capacity));
            }
            balance[e.from] -= f;
            balance[e.to] += f;
        }
        for (node, &b) in balance.iter().enumerate() {
            if node == source || node == sink {
                continue;
            }
            if b.abs() > 1e-6 {
                return Err(format!("node {node}: imbalance {b}"));
            }
        }
        let out_value = -balance[source];
        if (out_value - self.value).abs() > 1e-6 {
            return Err(format!(
                "declared value {} but source exports {}",
                self.value, out_value
            ));
        }
        Ok(())
    }

    /// Total cost of this flow under the network's edge costs.
    pub fn cost(&self, net: &FlowNetwork) -> f64 {
        self.edge_flows.iter().zip(net.edges()).map(|(&f, e)| f * e.cost).sum()
    }
}

/// The shared residual graph: arcs come in reverse pairs `(i, i^1)`.
#[derive(Debug, Clone)]
pub(crate) struct Residual {
    pub(crate) head: Vec<usize>,     // arc -> head node
    pub(crate) cap: Vec<f64>,        // arc -> remaining capacity
    pub(crate) cost: Vec<f64>,       // arc -> cost (reverse arcs negated)
    pub(crate) adj: Vec<Vec<usize>>, // node -> outgoing arcs
    pub(crate) orig: Vec<Option<usize>>, // arc -> original edge index (forward arcs)
}

impl Residual {
    pub(crate) fn from_network(net: &FlowNetwork) -> Self {
        let mut r = Residual {
            head: Vec::with_capacity(net.n_edges() * 2),
            cap: Vec::with_capacity(net.n_edges() * 2),
            cost: Vec::with_capacity(net.n_edges() * 2),
            adj: vec![Vec::new(); net.n_nodes()],
            orig: Vec::with_capacity(net.n_edges() * 2),
        };
        for (i, e) in net.edges().iter().enumerate() {
            let fwd = r.head.len();
            r.head.push(e.to);
            r.cap.push(e.capacity);
            r.cost.push(e.cost);
            r.orig.push(Some(i));
            r.adj[e.from].push(fwd);
            let bwd = r.head.len();
            r.head.push(e.from);
            r.cap.push(0.0);
            r.cost.push(-e.cost);
            r.orig.push(None);
            r.adj[e.to].push(bwd);
        }
        r
    }

    /// Extracts per-original-edge flow from the residual state.
    pub(crate) fn edge_flows(&self, net: &FlowNetwork) -> Vec<f64> {
        let mut flows = vec![0.0; net.n_edges()];
        for arc in (0..self.head.len()).step_by(2) {
            if let Some(orig) = self.orig[arc] {
                let sent = net.edge(orig).capacity - self.cap[arc];
                flows[orig] = sent.max(0.0);
            }
        }
        flows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FlowNetwork {
        let mut net = FlowNetwork::new(3);
        net.add_edge(0, 1, 10.0, 1.0);
        net.add_edge(1, 2, 5.0, 2.0);
        net
    }

    #[test]
    fn construction() {
        let net = tiny();
        assert_eq!(net.n_nodes(), 3);
        assert_eq!(net.n_edges(), 2);
        assert_eq!(net.edge(0).capacity, 10.0);
    }

    #[test]
    fn add_node_grows() {
        let mut net = tiny();
        let k = net.add_node();
        assert_eq!(k, 3);
        net.add_edge(2, 3, 1.0, 0.0);
        assert_eq!(net.n_edges(), 3);
    }

    #[test]
    fn validate_accepts_good_flow() {
        let net = tiny();
        let flow = Flow { edge_flows: vec![5.0, 5.0], value: 5.0 };
        assert!(flow.validate(&net, 0, 2).is_ok());
        assert_eq!(flow.cost(&net), 5.0 + 10.0);
    }

    #[test]
    fn validate_rejects_overflow() {
        let net = tiny();
        let flow = Flow { edge_flows: vec![11.0, 11.0], value: 11.0 };
        assert!(flow.validate(&net, 0, 2).unwrap_err().contains("exceeds capacity"));
    }

    #[test]
    fn validate_rejects_imbalance() {
        let net = tiny();
        let flow = Flow { edge_flows: vec![5.0, 3.0], value: 5.0 };
        assert!(flow.validate(&net, 0, 2).unwrap_err().contains("imbalance"));
    }

    #[test]
    fn validate_rejects_wrong_value() {
        let net = tiny();
        let flow = Flow { edge_flows: vec![5.0, 5.0], value: 4.0 };
        assert!(flow.validate(&net, 0, 2).unwrap_err().contains("declared value"));
    }

    #[test]
    fn residual_pairs() {
        let net = tiny();
        let r = Residual::from_network(&net);
        assert_eq!(r.head.len(), 4);
        assert_eq!(r.cap[0], 10.0);
        assert_eq!(r.cap[1], 0.0);
        assert_eq!(r.cost[1], -1.0);
        assert_eq!(r.orig[0], Some(0));
        assert_eq!(r.orig[1], None);
    }

    #[test]
    #[should_panic]
    fn rejects_negative_capacity() {
        let mut net = FlowNetwork::new(2);
        net.add_edge(0, 1, -1.0, 0.0);
    }
}
