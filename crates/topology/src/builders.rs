//! Hard-coded research topologies and regular graph families.
//!
//! - [`fig7_example`]: the paper's own four-node illustration of the graph
//!   abstraction (§4.1, Fig. 7);
//! - [`abilene`]: the 11-node Internet2/Abilene backbone, the standard
//!   academic WAN benchmark;
//! - [`b4_like`]: a 12-node topology shaped like Google's published B4
//!   inter-datacenter WAN;
//! - [`ring`], [`grid`], [`scaled_mesh`]: regular families for scaling
//!   studies.

use crate::graph::NodeId;
use crate::wan::WanTopology;

/// The paper's Fig. 7 network: four sites in a square.
///
/// Links (all 100 G): A–B, C–D, A–C, B–D. The Fig. 7 walk-through: demands
/// A→B and C→D of 100 G fill the top and bottom links; when both demands
/// grow to 125 G, every A→B path crosses either A–B or C–D (and likewise
/// for C→D), so the horizontal links need 250 G combined — one upgrade
/// suffices and the other demand's overflow detours through it.
pub fn fig7_example() -> WanTopology {
    let mut wan = WanTopology::new();
    let a = wan.add_node("A", None);
    let b = wan.add_node("B", None);
    let c = wan.add_node("C", None);
    let d = wan.add_node("D", None);
    for (x, y) in [(a, b), (c, d), (a, c), (b, d)] {
        wan.add_link(x, y, 500.0);
    }
    wan
}

/// The Abilene / Internet2 backbone: 11 PoPs, 14 links, with approximate
/// geographic coordinates and route lengths.
pub fn abilene() -> WanTopology {
    let mut wan = WanTopology::new();
    let sites: [(&str, f64, f64); 11] = [
        ("SEA", 47.61, -122.33),
        ("SNV", 37.37, -122.04),
        ("LAX", 34.05, -118.24),
        ("DEN", 39.74, -104.99),
        ("KSC", 39.10, -94.58),
        ("HOU", 29.76, -95.37),
        ("IPL", 39.77, -86.16),
        ("CHI", 41.88, -87.63),
        ("ATL", 33.75, -84.39),
        ("WDC", 38.91, -77.04),
        ("NYC", 40.71, -74.01),
    ];
    let ids: Vec<NodeId> = sites
        .iter()
        .map(|&(name, lat, lon)| wan.add_node(name, Some((lat, lon))))
        .collect();
    let by_name = |n: &str| ids[sites.iter().position(|&(s, ..)| s == n).unwrap()];
    let links: [(&str, &str, f64); 14] = [
        ("SEA", "SNV", 1342.0),
        ("SEA", "DEN", 2113.0),
        ("SNV", "LAX", 560.0),
        ("SNV", "DEN", 1762.0),
        ("LAX", "HOU", 2472.0),
        ("DEN", "KSC", 970.0),
        ("KSC", "HOU", 1184.0),
        ("KSC", "IPL", 818.0),
        ("HOU", "ATL", 1385.0),
        ("IPL", "CHI", 294.0),
        ("IPL", "ATL", 857.0),
        ("CHI", "NYC", 1453.0),
        ("ATL", "WDC", 872.0),
        ("WDC", "NYC", 330.0),
    ];
    for (x, y, km) in links {
        wan.add_link(by_name(x), by_name(y), km);
    }
    wan
}

/// A 12-node inter-datacenter WAN shaped like Google's published B4
/// topology (two sites per region, trans-oceanic long hauls).
pub fn b4_like() -> WanTopology {
    let mut wan = WanTopology::new();
    let names = [
        "US-W1", "US-W2", "US-C1", "US-C2", "US-E1", "US-E2", "EU-1", "EU-2", "ASIA-1", "ASIA-2",
        "SA-1", "APAC-1",
    ];
    let ids: Vec<NodeId> = names.iter().map(|&n| wan.add_node(n, None)).collect();
    let by = |i: usize| ids[i];
    let links: [(usize, usize, f64); 19] = [
        (0, 1, 300.0),    // US-W pair
        (0, 2, 1900.0),   // W1–C1
        (1, 2, 2000.0),   // W2–C1
        (1, 3, 2100.0),   // W2–C2
        (2, 3, 350.0),    // US-C pair
        (2, 4, 1100.0),   // C1–E1
        (3, 5, 1200.0),   // C2–E2
        (4, 5, 320.0),    // US-E pair
        (4, 6, 4200.0),   // E1–EU1
        (5, 6, 4300.0),   // E2–EU1
        (5, 7, 4400.0),   // E2–EU2
        (6, 7, 400.0),    // EU pair
        (0, 8, 4300.0),   // W1–ASIA1
        (1, 9, 4400.0),   // W2–ASIA2
        (8, 9, 450.0),    // ASIA pair
        (8, 11, 4100.0),  // ASIA1–APAC
        (9, 11, 4200.0),  // ASIA2–APAC
        (4, 10, 4500.0),  // E1–SA
        (10, 11, 4600.0), // SA–APAC
    ];
    for (x, y, km) in links {
        wan.add_link(by(x), by(y), km);
    }
    wan
}

/// A ring of `n` sites (minimum 3), each hop `hop_km` long.
pub fn ring(n: usize, hop_km: f64) -> WanTopology {
    assert!(n >= 3, "a ring needs at least 3 nodes");
    let mut wan = WanTopology::new();
    let ids: Vec<NodeId> = (0..n).map(|i| wan.add_node(format!("R{i}"), None)).collect();
    for i in 0..n {
        wan.add_link(ids[i], ids[(i + 1) % n], hop_km);
    }
    wan
}

/// An `rows × cols` grid (both ≥ 2), nearest-neighbour links.
pub fn grid(rows: usize, cols: usize, hop_km: f64) -> WanTopology {
    assert!(rows >= 2 && cols >= 2, "grid needs at least 2x2");
    let mut wan = WanTopology::new();
    let mut ids = Vec::with_capacity(rows * cols);
    for r in 0..rows {
        for c in 0..cols {
            ids.push(wan.add_node(format!("G{r}-{c}"), None));
        }
    }
    let at = |r: usize, c: usize| ids[r * cols + c];
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                wan.add_link(at(r, c), at(r, c + 1), hop_km);
            }
            if r + 1 < rows {
                wan.add_link(at(r, c), at(r + 1, c), hop_km);
            }
        }
    }
    wan
}

/// `scale` replicas of a six-node full mesh chained with cross-links —
/// the `--scale` topology multiplier for large-TE stress runs (the
/// scenario-path counterpart of the fleet `--scale` flag).
///
/// Replica `i`'s node `j` is named `S{i}-{j}`; nodes `0..3` of
/// consecutive replicas are tied together, so the composite stays
/// connected and multipath-rich while links grow linearly:
/// `15·scale + 3·(scale−1)` links, i.e. `2×` that in directed TE edges.
pub fn scaled_mesh(scale: usize, hop_km: f64) -> WanTopology {
    assert!(scale >= 1, "scaled mesh needs at least one replica");
    const MESH_N: usize = 6;
    const CROSS: usize = 3;
    let mut wan = WanTopology::new();
    let mut ids = Vec::with_capacity(scale * MESH_N);
    for i in 0..scale {
        for j in 0..MESH_N {
            ids.push(wan.add_node(format!("S{i}-{j}"), None));
        }
    }
    let at = |i: usize, j: usize| ids[i * MESH_N + j];
    for i in 0..scale {
        for j in 0..MESH_N {
            for jj in j + 1..MESH_N {
                wan.add_link(at(i, j), at(i, jj), hop_km);
            }
        }
        if i + 1 < scale {
            for j in 0..CROSS {
                wan.add_link(at(i, j), at(i + 1, j), hop_km);
            }
        }
    }
    wan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig7_shape() {
        let wan = fig7_example();
        assert_eq!(wan.n_nodes(), 4);
        assert_eq!(wan.n_links(), 4);
        assert!(wan.is_connected());
        // All 100 G initially, as in Fig. 7a.
        assert_eq!(wan.total_capacity(), rwc_util::units::Gbps(400.0));
        // The detour path A–C–D–B must exist.
        let a = wan.node_by_name("A").unwrap();
        let c = wan.node_by_name("C").unwrap();
        assert!(wan
            .links()
            .any(|(_, l)| (l.a == a && l.b == c) || (l.a == c && l.b == a)));
    }

    #[test]
    fn abilene_shape() {
        let wan = abilene();
        assert_eq!(wan.n_nodes(), 11);
        assert_eq!(wan.n_links(), 14);
        assert!(wan.is_connected());
        // Every link must sustain the 100 G default at its length.
        let table = rwc_optics::ModulationTable::paper_default();
        for (id, l) in wan.links() {
            assert!(l.healthy(&table), "link {id:?} ({} km) unhealthy", l.length_km);
        }
    }

    #[test]
    fn abilene_short_links_can_run() {
        // Short routes (WDC–NYC, IPL–CHI) should support 200 G; the longest
        // (LAX–HOU) should not.
        let wan = abilene();
        let table = rwc_optics::ModulationTable::paper_default();
        let link_between = |x: &str, y: &str| {
            let (a, b) = (wan.node_by_name(x).unwrap(), wan.node_by_name(y).unwrap());
            wan.links()
                .find(|(_, l)| (l.a == a && l.b == b) || (l.a == b && l.b == a))
                .unwrap()
                .1
                .clone()
        };
        let short = link_between("WDC", "NYC");
        assert!(table.supports(short.snr, rwc_optics::Modulation::Dp16Qam200));
        let long = link_between("LAX", "HOU");
        assert!(!table.supports(long.snr, rwc_optics::Modulation::Dp16Qam200));
    }

    #[test]
    fn b4_shape() {
        let wan = b4_like();
        assert_eq!(wan.n_nodes(), 12);
        assert_eq!(wan.n_links(), 19);
        assert!(wan.is_connected());
    }

    #[test]
    fn ring_and_grid_and_mesh() {
        let r = ring(6, 400.0);
        assert_eq!(r.n_links(), 6);
        assert!(r.is_connected());
        let g = grid(3, 4, 300.0);
        assert_eq!(g.n_nodes(), 12);
        assert_eq!(g.n_links(), 3 * 3 + 2 * 4); // horizontal + vertical
        assert!(g.is_connected());
    }

    #[test]
    #[should_panic]
    fn tiny_ring_rejected() {
        ring(2, 100.0);
    }

    #[test]
    fn scaled_mesh_grows_linearly_and_stays_connected() {
        for scale in [1usize, 3, 5] {
            let wan = scaled_mesh(scale, 500.0);
            assert_eq!(wan.n_nodes(), 6 * scale);
            assert_eq!(wan.n_links(), 15 * scale + 3 * scale.saturating_sub(1));
            assert!(wan.is_connected(), "scale {scale} disconnected");
            assert!(wan.node_by_name(&format!("S{}-5", scale - 1)).is_some());
        }
    }
}
