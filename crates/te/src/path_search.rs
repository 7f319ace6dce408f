//! The hop-count constrained shortest-path search that the two heuristic
//! baselines, [`crate::b4`] and [`crate::cspf`], route on.
//!
//! Dijkstra by hop count over the edges a caller's filter admits. Ties pop
//! the larger node first, and a node keeps the first parent that reached
//! it at its final distance: the choices every committed B4 and CSPF row
//! of `repro tput` was computed with.

use rwc_flow::FlowNetwork;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

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

/// A flow network's edges as `(from, to)` pairs and each node's out-edges.
pub(crate) struct HopGraph {
    edges: Vec<(usize, usize)>,
    adj: Vec<Vec<usize>>,
}

impl HopGraph {
    pub(crate) fn new(net: &FlowNetwork) -> Self {
        let edges: Vec<(usize, usize)> = net.edges().iter().map(|e| (e.from, e.to)).collect();
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); net.n_nodes()];
        for (i, &(u, _)) in edges.iter().enumerate() {
            adj[u].push(i);
        }
        Self { edges, adj }
    }

    /// Fewest-hop path from `src` to `dst` over the edges `usable` admits,
    /// as edge indices from `src` on; `None` if `dst` is unreachable.
    pub(crate) fn shortest_path(
        &self,
        src: usize,
        dst: usize,
        usable: impl Fn(usize) -> bool,
    ) -> Option<Vec<usize>> {
        let n = self.adj.len();
        let mut dist = vec![f64::INFINITY; n];
        let mut parent: Vec<Option<usize>> = vec![None; n];
        let mut heap = BinaryHeap::new();
        dist[src] = 0.0;
        heap.push(Entry { dist: 0.0, node: src });
        while let Some(Entry { dist: d, node: u }) = heap.pop() {
            if d > dist[u] {
                continue;
            }
            for &ei in &self.adj[u] {
                if !usable(ei) {
                    continue;
                }
                let v = self.edges[ei].1;
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
            v = self.edges[ei].0;
        }
        path.reverse();
        Some(path)
    }
}
