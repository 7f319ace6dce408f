//! Shared-risk link groups (SRLGs).
//!
//! The paper's measurement model makes fiber-level risk explicit: one
//! cable carries many wavelengths, and a fiber cut extinguishes all of
//! them at once (that is why Fig. 1's wavelengths dip together). For TE
//! this means two IP links on the same cable are *not* independent
//! failure domains. This module derives SRLGs from the topology's fiber
//! ids and offers the two standard consumers:
//!
//! - [`srlg_disjoint_paths`]: primary/backup path pairs that share no
//!   fiber (survive any single cut);
//! - [`cut_impact`]: what a given fiber cut does to the topology and to a
//!   TE solution.

use crate::problem::{TeProblem, TeSolution};
use rwc_topology::paths::{k_shortest_paths, Path};
use rwc_topology::graph::NodeId;
use rwc_topology::wan::{LinkId, WanTopology};
use std::collections::{BTreeMap, BTreeSet};

/// Groups link ids by the fiber cable they ride.
pub fn shared_risk_groups(wan: &WanTopology) -> BTreeMap<usize, Vec<LinkId>> {
    let mut groups: BTreeMap<usize, Vec<LinkId>> = BTreeMap::new();
    for (id, link) in wan.links() {
        groups.entry(link.fiber_id).or_default().push(id);
    }
    groups
}

/// The set of fibers a path touches.
pub(crate) fn fibers_of(wan: &WanTopology, path: &Path) -> BTreeSet<usize> {
    path.links.iter().map(|&l| wan.link(l).fiber_id).collect()
}

/// Finds a primary/backup pair between `src` and `dst` whose fiber sets
/// are disjoint, searching the `k` shortest candidates for each role.
///
/// Returns `None` when no fiber-disjoint pair exists within the candidate
/// budget (e.g. a topology where every route crosses one shared conduit).
pub fn srlg_disjoint_paths(
    wan: &WanTopology,
    src: NodeId,
    dst: NodeId,
    k: usize,
) -> Option<(Path, Path)> {
    let candidates = k_shortest_paths(wan, src, dst, k, |l| wan.link(l).length_km);
    for (i, primary) in candidates.iter().enumerate() {
        let primary_fibers = fibers_of(wan, primary);
        for backup in candidates.iter().skip(i + 1) {
            if fibers_of(wan, backup).is_disjoint(&primary_fibers) {
                return Some((primary.clone(), backup.clone()));
            }
        }
    }
    None
}

/// Consequences of one fiber cut.
#[derive(Debug, Clone, PartialEq)]
pub struct CutImpact {
    /// Links extinguished by the cut.
    pub links_down: Vec<LinkId>,
    /// Capacity removed from the topology.
    pub capacity_lost: rwc_util::units::Gbps,
    /// Traffic (from the given solution) that was riding the cut links.
    pub traffic_stranded: f64,
}

/// Evaluates a fiber cut against a topology and a current TE solution
/// (whose edge flows must follow the `TeProblem::from_wan` layout:
/// edges `2·link` and `2·link + 1`).
pub fn cut_impact(
    wan: &WanTopology,
    problem: &TeProblem,
    solution: &TeSolution,
    fiber_id: usize,
) -> CutImpact {
    let links_down: Vec<LinkId> = wan
        .links()
        .filter(|(_, l)| l.fiber_id == fiber_id)
        .map(|(id, _)| id)
        .collect();
    let capacity_lost = links_down.iter().map(|&id| wan.link(id).capacity()).sum();
    let mut stranded = 0.0;
    for &id in &links_down {
        let fwd = 2 * id.0;
        let bwd = fwd + 1;
        if bwd < solution.edge_flows.len() && problem.net.n_edges() == solution.edge_flows.len() {
            stranded += solution.edge_flows[fwd] + solution.edge_flows[bwd];
        }
    }
    CutImpact { links_down, capacity_lost, traffic_stranded: stranded }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::{DemandMatrix, Priority};
    use crate::swan::SwanTe;
    use crate::TeAlgorithm;
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    /// A square where both "horizontal" links share one cable.
    fn shared_conduit_square() -> WanTopology {
        let mut wan = builders::fig7_example();
        // Links 0 (A–B) and 2 (A–C) ride the same fiber.
        wan.link_mut(LinkId(2)).fiber_id = wan.link(LinkId(0)).fiber_id;
        wan
    }

    #[test]
    fn groups_follow_fiber_ids() {
        let wan = shared_conduit_square();
        let groups = shared_risk_groups(&wan);
        // 4 links on 3 cables.
        assert_eq!(groups.len(), 3);
        let shared = groups.get(&wan.link(LinkId(0)).fiber_id).unwrap();
        assert_eq!(shared.len(), 2);
    }

    #[test]
    fn disjoint_pair_on_abilene() {
        let wan = builders::abilene();
        let sea = wan.node_by_name("SEA").unwrap();
        let nyc = wan.node_by_name("NYC").unwrap();
        let (primary, backup) = srlg_disjoint_paths(&wan, sea, nyc, 8).expect("pair exists");
        assert!(fibers_of(&wan, &primary).is_disjoint(&fibers_of(&wan, &backup)));
        assert_eq!(primary.source(), sea);
        assert_eq!(backup.sink(), nyc);
        // Primary is the shorter of the two.
        assert!(primary.weight <= backup.weight);
    }

    #[test]
    fn no_disjoint_pair_through_shared_conduit() {
        // A→C in the modified square: direct A–C shares a cable with A–B,
        // and the only alternative A-B-D-C uses A–B — every pair of A→C
        // paths intersects in fiber space.
        let wan = shared_conduit_square();
        let a = wan.node_by_name("A").unwrap();
        let c = wan.node_by_name("C").unwrap();
        assert!(srlg_disjoint_paths(&wan, a, c, 10).is_none());
    }

    #[test]
    fn cut_impact_counts_capacity_and_traffic() {
        let wan = shared_conduit_square();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(80.0), Priority::Elastic);
        let problem = TeProblem::from_wan(&wan, &dm);
        let sol = SwanTe::default().try_solve(&problem).expect("TE solve");
        let fiber = wan.link(LinkId(0)).fiber_id;
        let impact = cut_impact(&wan, &problem, &sol, fiber);
        assert_eq!(impact.links_down.len(), 2);
        assert_eq!(impact.capacity_lost, Gbps(200.0));
        // The 80 G rode the direct A–B link, which is on the cut cable.
        assert!(impact.traffic_stranded >= 79.0, "{}", impact.traffic_stranded);
    }

    #[test]
    fn cut_of_unknown_fiber_is_empty() {
        let wan = builders::fig7_example();
        let problem = TeProblem::from_wan(&wan, &DemandMatrix::new());
        let sol = SwanTe::default().try_solve(&problem).expect("TE solve");
        let impact = cut_impact(&wan, &problem, &sol, 999);
        assert!(impact.links_down.is_empty());
        assert_eq!(impact.capacity_lost, Gbps(0.0));
    }
}
