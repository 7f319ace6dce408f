//! Shortest paths over WAN topologies.
//!
//! Dijkstra with a caller-supplied link weight (hops, kilometres, inverse
//! capacity, …) and Yen's algorithm for k loopless shortest paths — the
//! path inventory tunnel-based TE (B4-style) selects from.

use crate::graph::NodeId;
use crate::wan::{LinkId, WanTopology};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A path: alternating semantics — `nodes` has one more entry than
/// `links`, and `links[i]` joins `nodes[i]` to `nodes[i+1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Path {
    /// Visited nodes, source first.
    pub nodes: Vec<NodeId>,
    /// Traversed links.
    pub links: Vec<LinkId>,
    /// Total weight under the metric used to find it.
    pub weight: f64,
}

impl Path {
    /// Number of hops.
    pub fn len(&self) -> usize {
        self.links.len()
    }

    /// True for a zero-hop (source == sink) path.
    pub fn is_empty(&self) -> bool {
        self.links.is_empty()
    }

    /// Source node.
    pub fn source(&self) -> NodeId {
        *self.nodes.first().expect("paths have at least one node")
    }

    /// Sink node.
    pub fn sink(&self) -> NodeId {
        *self.nodes.last().expect("paths have at least one node")
    }
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap over distance (reverse of the default max-heap).
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| self.node.0.cmp(&other.node.0))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Dijkstra shortest path from `src` to `dst` under a per-link weight.
///
/// Links with non-finite or negative weight are treated as unusable.
/// Returns `None` if `dst` is unreachable.
pub(crate) fn shortest_path<W>(
    wan: &WanTopology,
    src: NodeId,
    dst: NodeId,
    weight: W,
) -> Option<Path>
where
    W: Fn(LinkId) -> f64,
{
    shortest_path_avoiding(wan, src, dst, &weight, &[], &[])
}

/// Dijkstra variant that ignores the given links and nodes (Yen's spur
/// computation). `avoid_nodes` never blocks `src` itself.
fn shortest_path_avoiding<W>(
    wan: &WanTopology,
    src: NodeId,
    dst: NodeId,
    weight: &W,
    avoid_links: &[LinkId],
    avoid_nodes: &[NodeId],
) -> Option<Path>
where
    W: Fn(LinkId) -> f64,
{
    let n = wan.n_nodes();
    assert!(src.0 < n && dst.0 < n, "endpoint out of range");
    let mut dist = vec![f64::INFINITY; n];
    let mut prev: Vec<Option<(NodeId, LinkId)>> = vec![None; n];
    let mut heap = BinaryHeap::new();
    dist[src.0] = 0.0;
    heap.push(HeapEntry { dist: 0.0, node: src });
    while let Some(HeapEntry { dist: d, node }) = heap.pop() {
        if d > dist[node.0] {
            continue;
        }
        if node == dst {
            break;
        }
        for lid in wan.incident(node) {
            if avoid_links.contains(&lid) {
                continue;
            }
            let link = wan.link(lid);
            let next = link.opposite(node);
            if avoid_nodes.contains(&next) && next != dst {
                continue;
            }
            if avoid_nodes.contains(&next) {
                continue;
            }
            let w = weight(lid);
            if !w.is_finite() || w < 0.0 {
                continue;
            }
            let nd = d + w;
            if nd < dist[next.0] {
                dist[next.0] = nd;
                prev[next.0] = Some((node, lid));
                heap.push(HeapEntry { dist: nd, node: next });
            }
        }
    }
    if !dist[dst.0].is_finite() {
        return None;
    }
    let mut nodes = vec![dst];
    let mut links = Vec::new();
    let mut cur = dst;
    while cur != src {
        let (p, l) = prev[cur.0].expect("reachable node must have predecessor");
        nodes.push(p);
        links.push(l);
        cur = p;
    }
    nodes.reverse();
    links.reverse();
    Some(Path { nodes, links, weight: dist[dst.0] })
}

/// Yen's algorithm: the `k` shortest loopless paths from `src` to `dst`.
///
/// Returns fewer than `k` paths when the graph does not contain that many.
pub fn k_shortest_paths<W>(
    wan: &WanTopology,
    src: NodeId,
    dst: NodeId,
    k: usize,
    weight: W,
) -> Vec<Path>
where
    W: Fn(LinkId) -> f64,
{
    assert!(k > 0, "k must be positive");
    let Some(first) = shortest_path(wan, src, dst, &weight) else {
        return Vec::new();
    };
    let mut found = vec![first];
    let mut candidates: Vec<Path> = Vec::new();
    while found.len() < k {
        let last = found.last().unwrap().clone();
        for spur_idx in 0..last.nodes.len() - 1 {
            let spur_node = last.nodes[spur_idx];
            let root_nodes = &last.nodes[..=spur_idx];
            let root_links = &last.links[..spur_idx];

            // Block the next link of every found path sharing this root.
            let mut avoid_links: Vec<LinkId> = Vec::new();
            for p in &found {
                if p.nodes.len() > spur_idx && p.nodes[..=spur_idx] == *root_nodes {
                    if let Some(&l) = p.links.get(spur_idx) {
                        avoid_links.push(l);
                    }
                }
            }
            // Block root nodes (except the spur node) for looplessness.
            let avoid_nodes: Vec<NodeId> =
                root_nodes[..spur_idx].to_vec();

            if let Some(spur) = shortest_path_avoiding(
                wan,
                spur_node,
                dst,
                &weight,
                &avoid_links,
                &avoid_nodes,
            ) {
                let mut nodes = root_nodes.to_vec();
                nodes.extend_from_slice(&spur.nodes[1..]);
                let mut links = root_links.to_vec();
                links.extend_from_slice(&spur.links);
                let root_weight: f64 = root_links.iter().map(|&l| weight(l)).sum();
                let total = Path { nodes, links, weight: root_weight + spur.weight };
                let duplicate = found.iter().chain(candidates.iter()).any(|p| p.links == total.links);
                if !duplicate {
                    candidates.push(total);
                }
            }
        }
        if candidates.is_empty() {
            break;
        }
        candidates.sort_by(|a, b| f64::total_cmp(&a.weight, &b.weight));
        found.push(candidates.remove(0));
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    #[test]
    fn shortest_by_hops_on_fig7() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let p = shortest_path(&wan, a, b, |_| 1.0).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.source(), a);
        assert_eq!(p.sink(), b);
        assert_eq!(p.weight, 1.0);
    }

    #[test]
    fn shortest_by_length_on_abilene() {
        let wan = builders::abilene();
        let sea = wan.node_by_name("SEA").unwrap();
        let nyc = wan.node_by_name("NYC").unwrap();
        let p = shortest_path(&wan, sea, nyc, |l| wan.link(l).length_km).unwrap();
        // SEA–DEN–KSC–IPL–CHI–NYC = 2113+970+818+294+1453 = 5648 km.
        assert!((p.weight - 5648.0).abs() < 1.0, "weight={}", p.weight);
        assert_eq!(p.len(), 5);
        // Path invariant: links[i] connects nodes[i], nodes[i+1].
        for (i, &l) in p.links.iter().enumerate() {
            let link = wan.link(l);
            let (x, y) = (p.nodes[i], p.nodes[i + 1]);
            assert!((link.a == x && link.b == y) || (link.a == y && link.b == x));
        }
    }

    #[test]
    fn unreachable_returns_none() {
        let mut wan = crate::wan::WanTopology::new();
        let a = wan.add_node("A", None);
        let b = wan.add_node("B", None);
        assert!(shortest_path(&wan, a, b, |_| 1.0).is_none());
    }

    #[test]
    fn zero_hop_path() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let p = shortest_path(&wan, a, a, |_| 1.0).unwrap();
        assert!(p.is_empty());
        assert_eq!(p.weight, 0.0);
    }

    #[test]
    fn infinite_weight_blocks_links() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        // Block the direct A–B link; the detour must be used.
        let direct = wan
            .links()
            .find(|(_, l)| (l.a == a && l.b == b) || (l.a == b && l.b == a))
            .unwrap()
            .0;
        let p = shortest_path(&wan, a, b, |l| if l == direct { f64::INFINITY } else { 1.0 })
            .unwrap();
        assert!(p.len() >= 2);
        assert!(!p.links.contains(&direct));
    }

    #[test]
    fn yen_k_shortest_on_fig7() {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let paths = k_shortest_paths(&wan, a, b, 3, |_| 1.0);
        // The Fig. 7 square has exactly two loopless A→B paths: the direct
        // hop and A-C-D-B.
        assert_eq!(paths.len(), 2);
        // Weights non-decreasing.
        assert!(paths.windows(2).all(|w| w[0].weight <= w[1].weight));
        // First is the direct hop; the other is the detour.
        assert_eq!(paths[0].len(), 1);
        assert_eq!(paths[1].len(), 3);
        // All loopless.
        for p in &paths {
            let mut nodes = p.nodes.clone();
            nodes.sort();
            nodes.dedup();
            assert_eq!(nodes.len(), p.nodes.len(), "loop in {:?}", p.nodes);
        }
        // Distinct.
        assert_ne!(paths[0].links, paths[1].links);
    }

    #[test]
    fn yen_exhausts_small_graphs() {
        let wan = builders::ring(4, 100.0);
        let a = crate::graph::NodeId(0);
        let c = crate::graph::NodeId(2);
        // A 4-ring has exactly 2 loopless paths between opposite corners.
        let paths = k_shortest_paths(&wan, a, c, 10, |_| 1.0);
        assert_eq!(paths.len(), 2);
        assert_eq!(paths[0].len(), 2);
        assert_eq!(paths[1].len(), 2);
    }

    #[test]
    fn yen_on_abilene_agrees_with_dijkstra() {
        let wan = builders::abilene();
        let sea = wan.node_by_name("SEA").unwrap();
        let atl = wan.node_by_name("ATL").unwrap();
        let w = |l: LinkId| wan.link(l).length_km;
        let best = shortest_path(&wan, sea, atl, w).unwrap();
        let k = k_shortest_paths(&wan, sea, atl, 4, w);
        assert_eq!(k[0].links, best.links);
        assert_eq!(k.len(), 4);
        assert!(k.windows(2).all(|p| p[0].weight <= p[1].weight + 1e-9));
    }
}
