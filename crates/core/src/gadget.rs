//! The Fig. 8 node-splitting gadget for unsplittable flows.
//!
//! With plain augmentation, an upgradable 100 G link appears as two
//! parallel edges (real 100 + fake 100). A flow that must stay on a
//! *single* path cannot split across them, so a 200 G unsplittable demand
//! would be unroutable even though the upgraded link could carry it.
//!
//! The paper's fix: split the link with intermediate vertices so that one
//! edge of full upgraded capacity exists, while a series bottleneck keeps
//! the total at the upgraded rate:
//!
//! ```text
//!      A ──(200, 0)── A′ ══╗ real (100, 0)
//!                          ╠══ B
//!                          ╝ fake (200, P)
//! ```
//!
//! An unsplittable 200 G flow rides `A → A′ → (fake) → B` on a single
//! path; the `A → A′` edge caps the combined real+fake throughput at the
//! upgraded rate. Any flow on the fake edge above the current capacity
//! implies the upgrade.

use crate::penalty::PenaltyPolicy;
use rwc_optics::{Modulation, ModulationTable};
use rwc_te::demand::DemandMatrix;
use rwc_te::problem::{EdgeOrigin, TeProblem};
use rwc_topology::wan::{LinkId, WanTopology};

const EPS: f64 = 1e-9;

/// One gadget instance (per upgradable link direction).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gadget {
    /// The physical link.
    pub link: LinkId,
    /// Direction (`true` = `a→b`).
    pub forward: bool,
    /// Index of the series guard edge (`A→A′`).
    pub guard_edge: usize,
    /// Index of the real-capacity edge (`A′→B`, current rate, free).
    pub real_edge: usize,
    /// Index of the full-capacity fake edge (`A′→B`, upgraded rate,
    /// penalised).
    pub fake_edge: usize,
    /// The rung the fake edge represents.
    pub target: Modulation,
}

/// An augmented problem built with the unsplittable-flow gadget.
#[derive(Debug, Clone)]
pub struct GadgetProblem {
    /// The TE problem (contains auxiliary nodes).
    pub problem: TeProblem,
    /// Gadgets in insertion order.
    pub gadgets: Vec<Gadget>,
}

/// Builds the gadget-augmented problem.
///
/// Non-upgradable links appear as plain directed edges. Upgradable links
/// are replaced (per direction) by the three-edge gadget above.
pub fn augment_unsplittable(
    wan: &WanTopology,
    demands: &DemandMatrix,
    table: &ModulationTable,
    penalty: &PenaltyPolicy,
    current_traffic: &[f64],
) -> GadgetProblem {
    let mut net = rwc_flow::network::FlowNetwork::new(wan.n_nodes());
    let mut origins = Vec::new();
    let mut gadgets = Vec::new();

    for (id, link) in wan.links() {
        let traffic = current_traffic.get(id.0).copied().unwrap_or(0.0);
        let upgrades = table.upgrades(link.snr, link.modulation);
        let current = link.capacity().value();
        match upgrades.last() {
            None => {
                net.add_edge(link.a.0, link.b.0, current, penalty.real_cost(link));
                origins.push(EdgeOrigin::Real { link: id, forward: true });
                net.add_edge(link.b.0, link.a.0, current, penalty.real_cost(link));
                origins.push(EdgeOrigin::Real { link: id, forward: false });
            }
            Some(&fastest) => {
                let upgraded = fastest.capacity().value();
                for forward in [true, false] {
                    let (from, to) =
                        if forward { (link.a.0, link.b.0) } else { (link.b.0, link.a.0) };
                    let mid = net.add_node();
                    let guard_edge =
                        net.add_edge(from, mid, upgraded, penalty.real_cost(link));
                    origins.push(EdgeOrigin::Auxiliary);
                    let real_edge = net.add_edge(mid, to, current, 0.0);
                    origins.push(EdgeOrigin::Real { link: id, forward });
                    let fake_edge = net.add_edge(
                        mid,
                        to,
                        upgraded,
                        penalty.fake_cost(link, fastest, traffic),
                    );
                    origins.push(EdgeOrigin::Fake { link: id, forward });
                    gadgets.push(Gadget {
                        link: id,
                        forward,
                        guard_edge,
                        real_edge,
                        fake_edge,
                        target: fastest,
                    });
                }
            }
        }
    }

    let commodities = demands
        .demands()
        .iter()
        .map(|d| rwc_te::problem::Commodity {
            source: d.from.0,
            sink: d.to.0,
            demand: d.volume.value(),
        })
        .collect();
    GadgetProblem {
        problem: TeProblem {
            net,
            origins,
            commodities,
            demands: demands.demands().to_vec(),
        },
        gadgets,
    }
}

/// Reads upgrade decisions out of a gadget solution: a link direction
/// needs its upgrade if the *combined* real+fake flow exceeds the current
/// capacity (a fake-edge trickle below the current rate could have ridden
/// the real edge and is not an upgrade).
pub fn gadget_upgrades(
    gp: &GadgetProblem,
    wan: &WanTopology,
    edge_flows: &[f64],
) -> Vec<(LinkId, Modulation)> {
    let mut upgrades: Vec<(LinkId, Modulation)> = Vec::new();
    for g in &gp.gadgets {
        let combined = edge_flows[g.real_edge] + edge_flows[g.fake_edge];
        let current = wan.link(g.link).capacity().value();
        if combined > current + EPS && !upgrades.iter().any(|(l, _)| *l == g.link) {
            // Smallest rung covering the combined flow.
            let target = Modulation::LADDER
                .iter()
                .copied()
                .find(|m| m.capacity().value() + EPS >= combined)
                .unwrap_or(g.target);
            upgrades.push((g.link, target));
        }
    }
    upgrades
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_topology::builders;
    use rwc_util::units::Db;

    /// Two-node network, one link upgradable to 200 G.
    fn ab_wan() -> WanTopology {
        let mut wan = WanTopology::new();
        let a = wan.add_node("A", None);
        let b = wan.add_node("B", None);
        wan.add_link(a, b, 400.0);
        wan.set_snr(rwc_topology::wan::LinkId(0), Db(13.0));
        wan
    }

    #[test]
    fn gadget_structure() {
        let wan = ab_wan();
        let gp = augment_unsplittable(
            &wan,
            &DemandMatrix::new(),
            &ModulationTable::paper_default(),
            &PenaltyPolicy::paper_example(),
            &[],
        );
        // One link, both directions gadgetised: 2 aux nodes, 6 edges.
        assert_eq!(gp.gadgets.len(), 2);
        assert_eq!(gp.problem.net.n_nodes(), 4);
        assert_eq!(gp.problem.net.n_edges(), 6);
        let g = &gp.gadgets[0];
        assert_eq!(gp.problem.net.edge(g.guard_edge).capacity, 200.0);
        assert_eq!(gp.problem.net.edge(g.real_edge).capacity, 100.0);
        assert_eq!(gp.problem.net.edge(g.fake_edge).capacity, 200.0);
        assert_eq!(gp.problem.net.edge(g.fake_edge).cost, 100.0);
    }

    #[test]
    fn unsplittable_200g_single_path_exists() {
        // Fig. 8's motivating case: a single path of 200 G from A to B.
        let wan = ab_wan();
        let gp = augment_unsplittable(
            &wan,
            &DemandMatrix::new(),
            &ModulationTable::paper_default(),
            &PenaltyPolicy::paper_example(),
            &[],
        );
        let g = &gp.gadgets.iter().find(|g| g.forward).unwrap();
        // The path guard→fake carries min(200, 200) = 200 on ONE path.
        let single_path_cap = gp
            .problem
            .net
            .edge(g.guard_edge)
            .capacity
            .min(gp.problem.net.edge(g.fake_edge).capacity);
        assert_eq!(single_path_cap, 200.0);
    }

    #[test]
    fn total_capacity_capped_at_upgraded_rate() {
        // Max-flow through the gadget must be 200, not 100+200.
        let wan = ab_wan();
        let gp = augment_unsplittable(
            &wan,
            &DemandMatrix::new(),
            &ModulationTable::paper_default(),
            &PenaltyPolicy::paper_example(),
            &[],
        );
        let f = rwc_flow::max_flow(&gp.problem.net, 0, 1);
        assert!((f.value - 200.0).abs() < 1e-9, "value={}", f.value);
    }

    #[test]
    fn upgrade_readout() {
        let wan = ab_wan();
        let gp = augment_unsplittable(
            &wan,
            &DemandMatrix::new(),
            &ModulationTable::paper_default(),
            &PenaltyPolicy::paper_example(),
            &[],
        );
        let mc = rwc_flow::min_cost_max_flow(&gp.problem.net, 0, 1);
        let upgrades = gadget_upgrades(&gp, &wan, &mc.flow.edge_flows);
        assert_eq!(upgrades.len(), 1);
        assert_eq!(upgrades[0].1, Modulation::Dp16Qam200);
    }

    #[test]
    fn trickle_on_fake_edge_is_not_an_upgrade() {
        let wan = ab_wan();
        let gp = augment_unsplittable(
            &wan,
            &DemandMatrix::new(),
            &ModulationTable::paper_default(),
            &PenaltyPolicy::paper_example(),
            &[],
        );
        let g = gp.gadgets[0];
        let mut flows = vec![0.0; gp.problem.net.n_edges()];
        flows[g.guard_edge] = 60.0;
        flows[g.fake_edge] = 60.0; // fits within the current 100 G
        assert!(gadget_upgrades(&gp, &wan, &flows).is_empty());
        flows[g.real_edge] = 80.0; // combined 140 > 100
        flows[g.guard_edge] = 140.0;
        let ups = gadget_upgrades(&gp, &wan, &flows);
        assert_eq!(ups.len(), 1);
        assert_eq!(ups[0].1, Modulation::Dp8Qam150, "140 G fits the 150 rung");
    }

    #[test]
    fn non_upgradable_links_stay_plain() {
        let mut wan = builders::fig7_example();
        for (id, _) in wan.clone().links() {
            wan.set_snr(id, Db(7.0)); // no headroom anywhere
        }
        let gp = augment_unsplittable(
            &wan,
            &DemandMatrix::new(),
            &ModulationTable::paper_default(),
            &PenaltyPolicy::paper_example(),
            &[],
        );
        assert!(gp.gadgets.is_empty());
        assert_eq!(gp.problem.net.n_nodes(), 4, "no auxiliary nodes");
        assert_eq!(gp.problem.net.n_edges(), 8);
    }

    #[test]
    fn min_cost_prefers_real_capacity_first() {
        let wan = ab_wan();
        let gp = augment_unsplittable(
            &wan,
            &DemandMatrix::new(),
            &ModulationTable::paper_default(),
            &PenaltyPolicy::paper_example(),
            &[],
        );
        let g = *gp.gadgets.iter().find(|g| g.forward).unwrap();
        // Route only 80 G: min-cost flow must keep it on the free real
        // edge.
        let r = rwc_flow::mincost::min_cost_flow_up_to(&gp.problem.net, 0, 1, 80.0);
        assert!((r.flow.edge_flows[g.real_edge] - 80.0).abs() < 1e-9);
        assert!(r.flow.edge_flows[g.fake_edge] < 1e-9);
        assert_eq!(r.cost, 0.0);
    }
}
