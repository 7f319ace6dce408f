//! The WAN model: sites, fiber cables and wavelength (IP) links.
//!
//! A [`WanTopology`] is a set of named sites joined by *undirected*
//! wavelength links (traffic engineering treats each direction separately
//! and gives every link two directed edges).
//! Each link knows which fiber cable it rides, its length, its current
//! modulation (hence capacity) and its current SNR — everything the
//! run/walk/crawl controller needs to decide feasible rates.

use crate::graph::NodeId;
use rwc_optics::{Modulation, ModulationTable};
use rwc_util::units::{Db, Gbps};
use serde::{Deserialize, Serialize};

/// Index of a link within a [`WanTopology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(pub usize);

/// A WAN site (PoP / datacenter).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WanNode {
    /// Site name ("SEA", "NYC", …).
    pub name: String,
    /// Optional geographic position `(latitude, longitude)` in degrees.
    pub location: Option<(f64, f64)>,
}

/// One wavelength = one IP link (undirected).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WanLink {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Which fiber cable the wavelength rides.
    pub fiber_id: usize,
    /// Index of the wavelength on its cable.
    pub wavelength_index: usize,
    /// Route length in km.
    pub length_km: f64,
    /// Currently configured modulation (sets the IP-layer capacity).
    pub modulation: Modulation,
    /// Most recent SNR reading.
    pub snr: Db,
}

impl WanLink {
    /// Current IP-layer capacity.
    pub fn capacity(&self) -> Gbps {
        self.modulation.capacity()
    }

    /// Rungs above the current rate that the present SNR supports.
    pub fn upgrades(&self, table: &ModulationTable) -> Vec<Modulation> {
        table.upgrades(self.snr, self.modulation)
    }

    /// Whether the link's SNR still supports its configured rate.
    pub fn healthy(&self, table: &ModulationTable) -> bool {
        table.supports(self.snr, self.modulation)
    }

    /// The other endpoint, given one of them.
    pub fn opposite(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else {
            assert_eq!(n, self.b, "node not on link");
            self.a
        }
    }
}

/// A wide-area network topology.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct WanTopology {
    nodes: Vec<WanNode>,
    links: Vec<WanLink>,
}

impl WanTopology {
    /// An empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a site.
    pub fn add_node(&mut self, name: impl Into<String>, location: Option<(f64, f64)>) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(WanNode { name: name.into(), location });
        id
    }

    /// Adds a link at the 100 G default rate. SNR defaults to the
    /// link-budget estimate for the route length.
    pub fn add_link(&mut self, a: NodeId, b: NodeId, length_km: f64) -> LinkId {
        assert!(a != b, "self-loop links are not WAN links");
        assert!(a.0 < self.nodes.len() && b.0 < self.nodes.len(), "node out of range");
        assert!(length_km > 0.0, "link length must be positive");
        let snr = rwc_optics::LinkBudget::for_route_km(length_km).snr();
        let id = LinkId(self.links.len());
        self.links.push(WanLink {
            a,
            b,
            fiber_id: id.0, // one cable per link unless overridden
            wavelength_index: 0,
            length_km,
            modulation: Modulation::DpQpsk100,
            snr,
        });
        id
    }

    /// Number of sites.
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn n_links(&self) -> usize {
        self.links.len()
    }

    /// Site payload.
    pub fn node(&self, id: NodeId) -> &WanNode {
        &self.nodes[id.0]
    }

    /// Looks a site up by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Link record.
    pub fn link(&self, id: LinkId) -> &WanLink {
        &self.links[id.0]
    }

    /// Mutable link record.
    pub fn link_mut(&mut self, id: LinkId) -> &mut WanLink {
        &mut self.links[id.0]
    }

    /// `(LinkId, &WanLink)` iterator.
    pub fn links(&self) -> impl Iterator<Item = (LinkId, &WanLink)> {
        self.links.iter().enumerate().map(|(i, l)| (LinkId(i), l))
    }

    /// Links incident to a node.
    pub fn incident(&self, n: NodeId) -> Vec<LinkId> {
        self.links()
            .filter(|(_, l)| l.a == n || l.b == n)
            .map(|(id, _)| id)
            .collect()
    }

    /// Updates a link's SNR reading.
    pub fn set_snr(&mut self, id: LinkId, snr: Db) {
        self.links[id.0].snr = snr;
    }

    /// Reconfigures a link's modulation.
    pub fn set_modulation(&mut self, id: LinkId, m: Modulation) {
        self.links[id.0].modulation = m;
    }

    /// Sum of link capacities.
    pub fn total_capacity(&self) -> Gbps {
        self.links.iter().map(WanLink::capacity).sum()
    }

    /// True if the topology is one connected component.
    #[cfg(test)]
    pub(crate) fn is_connected(&self) -> bool {
        let mut reached = vec![false; self.nodes.len()];
        if let Some(first) = reached.first_mut() {
            *first = true;
        }
        // Sweep the links until no link reaches a new node.
        let mut grew = true;
        while grew {
            grew = false;
            for (_, l) in self.links() {
                if reached[l.a.0] != reached[l.b.0] {
                    (reached[l.a.0], reached[l.b.0]) = (true, true);
                    grew = true;
                }
            }
        }
        reached.into_iter().all(|r| r)
    }

    /// Serialises to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("topology serialisation cannot fail")
    }

    /// Parses from JSON.
    pub fn from_json(json: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(json)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_node() -> (WanTopology, NodeId, NodeId, LinkId) {
        let mut wan = WanTopology::new();
        let a = wan.add_node("A", Some((47.6, -122.3)));
        let b = wan.add_node("B", None);
        let l = wan.add_link(a, b, 800.0);
        (wan, a, b, l)
    }

    #[test]
    fn construction() {
        let (wan, a, b, l) = two_node();
        assert_eq!(wan.n_nodes(), 2);
        assert_eq!(wan.n_links(), 1);
        assert_eq!(wan.node(a).name, "A");
        assert_eq!(wan.node_by_name("B"), Some(b));
        assert_eq!(wan.node_by_name("Z"), None);
        assert_eq!(wan.link(l).length_km, 800.0);
        assert_eq!(wan.link(l).modulation, Modulation::DpQpsk100);
        assert_eq!(wan.total_capacity(), Gbps(100.0));
    }

    #[test]
    fn default_snr_from_link_budget() {
        let (wan, _, _, l) = two_node();
        let expected = rwc_optics::LinkBudget::for_route_km(800.0).snr();
        assert_eq!(wan.link(l).snr, expected);
        // An 800 km route is healthy at 100 G.
        assert!(wan.link(l).healthy(&ModulationTable::paper_default()));
    }

    #[test]
    fn upgrades_follow_snr() {
        let (mut wan, _, _, l) = two_node();
        let table = ModulationTable::paper_default();
        wan.set_snr(l, Db(12.8));
        let ups = wan.link(l).upgrades(&table);
        assert_eq!(ups.len(), 4, "125/150/175/200 all feasible");
        wan.set_snr(l, Db(5.0));
        assert!(wan.link(l).upgrades(&table).is_empty());
        assert!(!wan.link(l).healthy(&table), "below the 100 G threshold");
    }

    #[test]
    fn modulation_change_updates_capacity() {
        let (mut wan, _, _, l) = two_node();
        wan.set_modulation(l, Modulation::Hybrid175);
        assert_eq!(wan.total_capacity(), Gbps(175.0));
    }

    #[test]
    fn opposite_endpoint() {
        let (wan, a, b, l) = two_node();
        assert_eq!(wan.link(l).opposite(a), b);
        assert_eq!(wan.link(l).opposite(b), a);
    }

    #[test]
    #[should_panic]
    fn opposite_rejects_foreign_node() {
        let (mut wan, a, _, l) = two_node();
        let c = wan.add_node("C", None);
        let link = wan.link(l).clone();
        let _ = link.opposite(c);
        let _ = a;
    }

    #[test]
    fn incident_links() {
        let mut wan = WanTopology::new();
        let a = wan.add_node("A", None);
        let b = wan.add_node("B", None);
        let c = wan.add_node("C", None);
        let ab = wan.add_link(a, b, 100.0);
        let bc = wan.add_link(b, c, 100.0);
        assert_eq!(wan.incident(b), vec![ab, bc]);
        assert_eq!(wan.incident(a), vec![ab]);
    }

    #[test]
    fn connectivity() {
        let (wan, ..) = two_node();
        assert!(wan.is_connected());
        let mut disc = WanTopology::new();
        disc.add_node("X", None);
        disc.add_node("Y", None);
        assert!(!disc.is_connected());
        assert!(WanTopology::new().is_connected());
    }

    #[test]
    fn json_round_trip() {
        let (wan, ..) = two_node();
        let json = wan.to_json();
        let back = WanTopology::from_json(&json).unwrap();
        assert_eq!(wan, back);
    }

    #[test]
    #[should_panic]
    fn rejects_self_loop() {
        let mut wan = WanTopology::new();
        let a = wan.add_node("A", None);
        wan.add_link(a, a, 10.0);
    }
}
