//! Random WAN generation over North-America-like geography.
//!
//! The paper's backbone spans North America. For scaling studies we
//! generate Waxman random graphs over a pool of real city coordinates:
//! sample `n` cities, guarantee connectivity with a Euclidean minimum
//! spanning tree, then add Waxman extra links
//! (`P(u,v) = α · exp(−d(u,v) / (β·L))`, `L` = max pairwise distance).

use crate::graph::NodeId;
use crate::wan::WanTopology;
use rwc_util::rng::Xoshiro256;

/// `(name, latitude, longitude)` of candidate PoP cities.
pub(crate) const NA_CITIES: [(&str, f64, f64); 24] = [
    ("SEA", 47.61, -122.33),
    ("PDX", 45.52, -122.68),
    ("SFO", 37.77, -122.42),
    ("LAX", 34.05, -118.24),
    ("SAN", 32.72, -117.16),
    ("PHX", 33.45, -112.07),
    ("LAS", 36.17, -115.14),
    ("SLC", 40.76, -111.89),
    ("DEN", 39.74, -104.99),
    ("ABQ", 35.08, -106.65),
    ("DFW", 32.78, -96.80),
    ("HOU", 29.76, -95.37),
    ("MSP", 44.98, -93.27),
    ("KSC", 39.10, -94.58),
    ("STL", 38.63, -90.20),
    ("CHI", 41.88, -87.63),
    ("IPL", 39.77, -86.16),
    ("ATL", 33.75, -84.39),
    ("MIA", 25.76, -80.19),
    ("CLT", 35.23, -80.84),
    ("WDC", 38.91, -77.04),
    ("PHL", 39.95, -75.17),
    ("NYC", 40.71, -74.01),
    ("BOS", 42.36, -71.06),
];

/// Great-circle distance between two `(lat, lon)` points, km.
pub(crate) fn haversine_km(a: (f64, f64), b: (f64, f64)) -> f64 {
    const R: f64 = 6371.0;
    let (lat1, lon1) = (a.0.to_radians(), a.1.to_radians());
    let (lat2, lon2) = (b.0.to_radians(), b.1.to_radians());
    let dlat = lat2 - lat1;
    let dlon = lon2 - lon1;
    let h = (dlat / 2.0).sin().powi(2) + lat1.cos() * lat2.cos() * (dlon / 2.0).sin().powi(2);
    2.0 * R * h.sqrt().asin()
}

/// Parameters of the Waxman generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WaxmanConfig {
    /// Number of sites (≤ `NA_CITIES` length).
    pub n_nodes: usize,
    /// Waxman α: overall link density, `0 < α ≤ 1`.
    pub alpha: f64,
    /// Waxman β: distance sensitivity, `0 < β ≤ 1` (larger = more long
    /// links).
    pub beta: f64,
    /// Fiber routes are longer than great circles; multiply by this.
    pub route_factor: f64,
    /// Seed.
    pub seed: u64,
}

impl Default for WaxmanConfig {
    fn default() -> Self {
        Self { n_nodes: 12, alpha: 0.35, beta: 0.4, route_factor: 1.3, seed: 1 }
    }
}

/// Generates a connected Waxman WAN over sampled North-American cities.
pub fn waxman(config: &WaxmanConfig) -> WanTopology {
    assert!(config.n_nodes >= 2, "need at least two sites");
    assert!(config.n_nodes <= NA_CITIES.len(), "not enough candidate cities");
    assert!(config.alpha > 0.0 && config.alpha <= 1.0, "alpha out of (0,1]");
    assert!(config.beta > 0.0 && config.beta <= 1.0, "beta out of (0,1]");
    assert!(config.route_factor >= 1.0, "routes cannot beat great circles");
    let mut rng = Xoshiro256::seed_from_u64(config.seed);

    // Sample distinct cities.
    let mut pool: Vec<usize> = (0..NA_CITIES.len()).collect();
    rng.shuffle(&mut pool);
    let chosen = &pool[..config.n_nodes];

    let mut wan = WanTopology::new();
    let ids: Vec<NodeId> = chosen
        .iter()
        .map(|&i| {
            let (name, lat, lon) = NA_CITIES[i];
            wan.add_node(name, Some((lat, lon)))
        })
        .collect();
    let pos = |i: usize| {
        let (_, lat, lon) = NA_CITIES[chosen[i]];
        (lat, lon)
    };
    let n = config.n_nodes;
    let dist =
        |i: usize, j: usize| haversine_km(pos(i), pos(j)) * config.route_factor;

    // Connectivity backbone: Prim's MST over route distances.
    let mut in_tree = vec![false; n];
    in_tree[0] = true;
    let mut added: Vec<(usize, usize)> = Vec::new();
    for _ in 1..n {
        let mut best: Option<(usize, usize, f64)> = None;
        for i in 0..n {
            if !in_tree[i] {
                continue;
            }
            for (j, &jt) in in_tree.iter().enumerate().take(n) {
                if jt {
                    continue;
                }
                let d = dist(i, j);
                if best.is_none_or(|(_, _, bd)| d < bd) {
                    best = Some((i, j, d));
                }
            }
        }
        let (i, j, _) = best.expect("tree not spanning");
        in_tree[j] = true;
        added.push((i, j));
    }

    // Waxman extras.
    let max_d = {
        let mut m: f64 = 0.0;
        for i in 0..n {
            for j in i + 1..n {
                m = m.max(dist(i, j));
            }
        }
        m
    };
    for i in 0..n {
        for j in i + 1..n {
            if added.contains(&(i, j)) || added.contains(&(j, i)) {
                continue;
            }
            let p = config.alpha * (-dist(i, j) / (config.beta * max_d)).exp();
            if rng.chance(p) {
                added.push((i, j));
            }
        }
    }

    for (i, j) in added {
        wan.add_link(ids[i], ids[j], dist(i, j).max(1.0));
    }
    wan
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn haversine_known_pairs() {
        // SEA–NYC great circle ≈ 3,870 km.
        let sea = (47.61, -122.33);
        let nyc = (40.71, -74.01);
        let d = haversine_km(sea, nyc);
        assert!((d - 3870.0).abs() < 60.0, "d={d}");
        // Zero distance to self.
        assert!(haversine_km(sea, sea) < 1e-9);
    }

    #[test]
    fn waxman_is_connected_and_deterministic() {
        let cfg = WaxmanConfig::default();
        let a = waxman(&cfg);
        let b = waxman(&cfg);
        assert_eq!(a, b);
        assert!(a.is_connected());
        assert_eq!(a.n_nodes(), 12);
        // MST guarantees at least n-1 links.
        assert!(a.n_links() >= 11);
    }

    #[test]
    fn different_seeds_differ() {
        let a = waxman(&WaxmanConfig::default());
        let b = waxman(&WaxmanConfig { seed: 2, ..WaxmanConfig::default() });
        assert_ne!(a, b);
    }

    #[test]
    fn alpha_controls_density() {
        let sparse = waxman(&WaxmanConfig { alpha: 0.05, seed: 3, ..WaxmanConfig::default() });
        let dense = waxman(&WaxmanConfig { alpha: 0.95, beta: 0.9, seed: 3, ..WaxmanConfig::default() });
        assert!(dense.n_links() > sparse.n_links());
    }

    #[test]
    fn full_size_generation() {
        let wan = waxman(&WaxmanConfig { n_nodes: 24, seed: 4, ..WaxmanConfig::default() });
        assert_eq!(wan.n_nodes(), 24);
        assert!(wan.is_connected());
        // Link lengths inflated by the route factor but still plausible.
        for (_, l) in wan.links() {
            assert!(l.length_km > 0.0 && l.length_km < 8_000.0);
        }
    }

    #[test]
    #[should_panic]
    fn too_many_nodes_rejected() {
        waxman(&WaxmanConfig { n_nodes: 99, ..WaxmanConfig::default() });
    }
}
