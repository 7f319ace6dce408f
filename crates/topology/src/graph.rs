//! A minimal directed multigraph.
//!
//! Design goals, in order: parallel-edge support (Algorithm 1 inserts fake
//! links *next to* real ones), cache-friendly integer ids, and a small
//! surface that the flow/TE layers can consume without adapters. Nodes and
//! edges are never removed in place — the TE loop re-derives topologies
//! each round.

use serde::{Deserialize, Serialize};

/// Index of a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub usize);

/// Index of an edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct EdgeId(pub usize);

/// A directed edge with its payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge<E> {
    /// Tail node.
    pub from: NodeId,
    /// Head node.
    pub to: NodeId,
    /// Payload (capacity, cost, link reference, …).
    pub payload: E,
}

/// A directed multigraph with node payloads `N` and edge payloads `E`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph<N, E> {
    nodes: Vec<N>,
    edges: Vec<Edge<E>>,
    out_adj: Vec<Vec<EdgeId>>,
    in_adj: Vec<Vec<EdgeId>>,
}

impl<N, E> Default for Graph<N, E> {
    fn default() -> Self {
        Self { nodes: Vec::new(), edges: Vec::new(), out_adj: Vec::new(), in_adj: Vec::new() }
    }
}

impl<N, E> Graph<N, E> {
    /// An empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, payload: N) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(payload);
        self.out_adj.push(Vec::new());
        self.in_adj.push(Vec::new());
        id
    }

    /// Adds a directed edge. Parallel edges and self-loops are allowed.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId, payload: E) -> EdgeId {
        assert!(from.0 < self.nodes.len(), "from node out of range");
        assert!(to.0 < self.nodes.len(), "to node out of range");
        let id = EdgeId(self.edges.len());
        self.edges.push(Edge { from, to, payload });
        self.out_adj[from.0].push(id);
        self.in_adj[to.0].push(id);
        id
    }

    /// Number of nodes.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn n_edges(&self) -> usize {
        self.edges.len()
    }

    /// Node payload.
    pub fn node(&self, id: NodeId) -> &N {
        &self.nodes[id.0]
    }

    /// Edge record.
    pub fn edge(&self, id: EdgeId) -> &Edge<E> {
        &self.edges[id.0]
    }

    /// Iterator over all node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Iterator over `(EdgeId, &Edge)`.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge<E>)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// Outgoing edges of a node.
    pub(crate) fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge<E>)> {
        self.out_adj[node.0].iter().map(move |&id| (id, &self.edges[id.0]))
    }

    /// Incoming edges of a node.
    pub(crate) fn in_edges(&self, node: NodeId) -> impl Iterator<Item = (EdgeId, &Edge<E>)> {
        self.in_adj[node.0].iter().map(move |&id| (id, &self.edges[id.0]))
    }

    /// All parallel edges from `from` to `to`.
    #[cfg(test)]
    pub(crate) fn edges_between(&self, from: NodeId, to: NodeId) -> Vec<EdgeId> {
        self.out_adj[from.0]
            .iter()
            .copied()
            .filter(|&id| self.edges[id.0].to == to)
            .collect()
    }

    /// True if every node can reach every other node (treating edges as
    /// undirected) — the usual sanity check on generated WANs.
    pub fn is_connected_undirected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId(0)];
        seen[0] = true;
        while let Some(n) = stack.pop() {
            for (_, e) in self.out_edges(n) {
                if !seen[e.to.0] {
                    seen[e.to.0] = true;
                    stack.push(e.to);
                }
            }
            for (_, e) in self.in_edges(n) {
                if !seen[e.from.0] {
                    seen[e.from.0] = true;
                    stack.push(e.from);
                }
            }
        }
        seen.into_iter().all(|s| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Graph<&'static str, u32> {
        // a -> b -> d, a -> c -> d
        let mut g = Graph::new();
        let a = g.add_node("a");
        let b = g.add_node("b");
        let c = g.add_node("c");
        let d = g.add_node("d");
        g.add_edge(a, b, 1);
        g.add_edge(a, c, 2);
        g.add_edge(b, d, 3);
        g.add_edge(c, d, 4);
        g
    }

    #[test]
    fn construction_and_accessors() {
        let g = diamond();
        assert_eq!(g.n_nodes(), 4);
        assert_eq!(g.n_edges(), 4);
        assert_eq!(*g.node(NodeId(1)), "b");
        assert_eq!(g.edge(EdgeId(0)).payload, 1);
        assert_eq!(g.edge(EdgeId(0)).from, NodeId(0));
        assert_eq!(g.edge(EdgeId(0)).to, NodeId(1));
    }

    #[test]
    fn adjacency() {
        let g = diamond();
        let out: Vec<u32> = g.out_edges(NodeId(0)).map(|(_, e)| e.payload).collect();
        assert_eq!(out, vec![1, 2]);
        let into: Vec<u32> = g.in_edges(NodeId(3)).map(|(_, e)| e.payload).collect();
        assert_eq!(into, vec![3, 4]);
    }

    #[test]
    fn parallel_edges_are_distinct() {
        let mut g: Graph<(), u32> = Graph::new();
        let a = g.add_node(());
        let b = g.add_node(());
        let e1 = g.add_edge(a, b, 10);
        let e2 = g.add_edge(a, b, 20);
        assert_ne!(e1, e2);
        assert_eq!(g.edges_between(a, b), vec![e1, e2]);
        assert_eq!(g.edges_between(b, a), Vec::<EdgeId>::new());
    }

    #[test]
    fn connectivity() {
        let g = diamond();
        assert!(g.is_connected_undirected());
        let mut disconnected: Graph<(), ()> = Graph::new();
        disconnected.add_node(());
        disconnected.add_node(());
        assert!(!disconnected.is_connected_undirected());
        let empty: Graph<(), ()> = Graph::new();
        assert!(empty.is_connected_undirected());
    }

    #[test]
    #[should_panic]
    fn add_edge_validates_nodes() {
        let mut g: Graph<(), ()> = Graph::new();
        let a = g.add_node(());
        g.add_edge(a, NodeId(5), ());
    }

    #[test]
    fn serde_round_trip() {
        let g = diamond();
        let json = serde_json::to_string(&g).unwrap();
        let back: Graph<String, u32> = serde_json::from_str(&json).unwrap();
        assert_eq!(g.n_edges(), back.n_edges());
        assert_eq!(back.edge(EdgeId(3)).payload, 4);
    }
}
