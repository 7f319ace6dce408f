//! Step 3 of the Theorem 1 construction: translating TE output.
//!
//! The TE algorithm returns flow over the augmented graph, oblivious to
//! which edges are fake. Translation folds each fake edge's flow back onto
//! its physical link and reads off:
//!
//! - **(a)** which link capacities must change — the smallest rung whose
//!   capacity covers the folded per-direction flow;
//! - **(b)** the flow paths of the demands on the *real* topology.

use crate::augment::AugmentedProblem;
use crate::error::RwcError;
use rwc_optics::Modulation;
use rwc_te::problem::{EdgeOrigin, TeProblem, TeSolution};
use rwc_te::TeError;
use rwc_topology::wan::LinkId;

const EPS: f64 = 1e-9;

/// Result of translating an augmented-graph TE solution.
#[derive(Debug, Clone, PartialEq)]
pub struct Translation {
    /// Links to reconfigure, with their target rungs.
    pub upgrades: Vec<(LinkId, Modulation)>,
    /// Flow per *real* edge (fake flow folded in), parallel to the first
    /// `n_real_edges` of the augmented problem.
    pub real_edge_flows: Vec<f64>,
    /// Routed volume per commodity (unchanged by translation).
    pub routed: Vec<f64>,
    /// Total penalty the solver paid on fake edges (flow-weighted, as the
    /// min-cost objective sees it).
    pub penalty_paid: f64,
    /// Penalty charged only on flow *above* each link's current capacity —
    /// the true upgrade cost. Differs from `penalty_paid` when a
    /// cost-oblivious TE algorithm routes gratuitously over fake parallels
    /// that the real edge could have carried.
    pub effective_penalty: f64,
}

impl Translation {
    /// Whether any reconfiguration is required.
    pub fn requires_changes(&self) -> bool {
        !self.upgrades.is_empty()
    }

    /// The upgrade target for a link, if any.
    #[cfg(test)]
    pub(crate) fn upgrade_of(&self, link: LinkId) -> Option<Modulation> {
        self.upgrades.iter().find(|(l, _)| *l == link).map(|&(_, m)| m)
    }
}

/// Translates a TE solution on the augmented problem back to the physical
/// network.
///
/// Fails with [`RwcError::Te`] when the solution does not fit the
/// augmented problem (wrong edge count) or when the folded flow on some
/// link exceeds the fastest modulation rung — both indicate corrupt
/// solver output, not a routable condition, and must not crash a serving
/// daemon.
pub fn translate(
    aug: &AugmentedProblem,
    wan: &rwc_topology::wan::WanTopology,
    solution: &TeSolution,
) -> Result<Translation, RwcError> {
    if solution.edge_flows.len() != aug.problem.net.n_edges() {
        return Err(RwcError::Te(TeError::SolverAbort {
            algorithm: "translate",
            detail: format!(
                "solution carries {} edge flows but the augmented problem has {} edges",
                solution.edge_flows.len(),
                aug.problem.net.n_edges()
            ),
        }));
    }
    let mut real_edge_flows: Vec<f64> = solution.edge_flows[..aug.n_real_edges].to_vec();
    let mut penalty_paid = 0.0;

    // Fold fake flow onto the real directed edges.
    for fake in &aug.fake_edges {
        let flow = solution.edge_flows[fake.edge_index];
        if flow <= EPS {
            continue;
        }
        let real_index = TeProblem::link_edges(fake.link)[usize::from(!fake.forward)];
        real_edge_flows[real_index] += flow;
        penalty_paid += flow * fake.penalty;
    }

    // Upgrade decision per link: smallest rung covering the folded flow of
    // the busier direction (never below the current rung). The effective
    // penalty charges each link's cheapest fake steps for the overflow
    // only.
    let mut upgrades = Vec::new();
    let mut effective_penalty = 0.0;
    for (id, link) in wan.links() {
        let [fwd, bwd] = TeProblem::link_edges(id).map(|e| real_edge_flows[e]);
        let needed = fwd.max(bwd);
        let mut overflow = needed - link.capacity().value();
        if overflow > EPS {
            // Charge the link's fake steps (ascending capacity) for the
            // overflow.
            let mut steps: Vec<&crate::augment::FakeEdge> = aug
                .fake_edges
                .iter()
                .filter(|f| f.link == id && f.forward)
                .collect();
            steps.sort_by(|a, b| f64::total_cmp(&a.target.capacity().value(), &b.target.capacity().value()));
            for step in steps {
                if overflow <= EPS {
                    break;
                }
                let used = overflow.min(step.extra_capacity);
                effective_penalty += used * step.penalty;
                overflow -= used;
            }
        }
        if needed <= link.capacity().value() + EPS {
            continue;
        }
        // Only links that had fake edges can exceed their capacity, and
        // fake-edge capacities are bounded by the ladder — more flow than
        // the fastest rung means the solver violated an edge capacity.
        let Some(target) = Modulation::LADDER.iter().copied().find(|m| {
            m.capacity().value() + EPS >= needed && m.capacity() > link.capacity()
        }) else {
            return Err(RwcError::Te(TeError::SolverAbort {
                algorithm: "translate",
                detail: format!(
                    "link {} folded flow {needed:.3} Gbps exceeds the fastest rung",
                    id.0
                ),
            }));
        };
        upgrades.push((id, target));
    }

    // Suppress origins warning: origins carry the same information and are
    // used by debug assertions below.
    debug_assert!(aug
        .problem
        .origins
        .iter()
        .take(aug.n_real_edges)
        .all(|o| matches!(o, EdgeOrigin::Real { .. })));

    Ok(Translation {
        upgrades,
        real_edge_flows,
        routed: solution.routed.clone(),
        penalty_paid,
        effective_penalty,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::augment::{augment, AugmentConfig};
    use crate::penalty::PenaltyPolicy;
    use rwc_te::demand::{DemandMatrix, Priority};
    use rwc_te::problem::TeSolution;
    use rwc_topology::builders;
    use rwc_util::units::{Db, Gbps};

    /// The paper's Fig. 7 walk-through: demands A→B and C→D grow from 100
    /// to 125 G; links (A,B) and (C,D) can double; penalty 100 per unit.
    fn fig7_setup() -> (rwc_topology::wan::WanTopology, DemandMatrix, AugmentConfig) {
        let mut wan = builders::fig7_example();
        for (id, _) in wan.clone().links() {
            wan.set_snr(id, Db(7.5)); // healthy at 100 G, no headroom
        }
        wan.set_snr(rwc_topology::wan::LinkId(0), Db(13.0)); // A–B
        wan.set_snr(rwc_topology::wan::LinkId(1), Db(13.0)); // C–D
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let c = wan.node_by_name("C").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(125.0), Priority::Elastic);
        dm.add(c, d, Gbps(125.0), Priority::Elastic);
        let cfg = AugmentConfig {
            penalty: PenaltyPolicy::paper_example(),
            ..AugmentConfig::default()
        };
        (wan, dm, cfg)
    }

    #[test]
    fn fig7_upgrades_exactly_one_link() {
        let (wan, dm, cfg) = fig7_setup();
        let aug = augment(&wan, &dm, &cfg, &[]);
        // Solve with the exact LP (min penalties are encoded as costs...
        // the LP maximises throughput; use SWAN-style then check): for the
        // equivalence-grade check we use min-cost max-flow per commodity
        // pair via the exact TE + penalties. Here: route with the LP on
        // the augmented problem, then translate.
        use rwc_te::TeAlgorithm;
        let sol = rwc_te::TeSolver::builder()
            .build()
            .unwrap()
            .try_solve(&aug.problem)
            .expect("TE solve");
        let tr = translate(&aug, &wan, &sol).unwrap();
        // All 250 G must route.
        assert!((sol.total - 250.0).abs() < 1e-6, "total={}", sol.total);
        // Penalty-minimising TE upgrades exactly ONE of the two upgradable
        // links (the other demand detours through the spare capacity) —
        // exact LP may pick either; both are valid per the paper.
        // NOTE: the max-throughput LP treats costs only as a tie-break, so it may upgrade
        // both; the penalty-aware check uses min-cost flow in theorem.rs.
        // Here we verify the translation mechanics: upgrades cover flows.
        for (id, link) in wan.links() {
            let [fwd, bwd] = TeProblem::link_edges(id).map(|e| tr.real_edge_flows[e]);
            let cap = tr
                .upgrade_of(id)
                .map(|m| m.capacity().value())
                .unwrap_or(link.capacity().value());
            assert!(fwd <= cap + 1e-6 && bwd <= cap + 1e-6, "link {id:?}");
        }
    }

    #[test]
    fn no_fake_flow_means_no_upgrades() {
        let (wan, _, cfg) = fig7_setup();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(60.0), Priority::Elastic); // fits in 100 G
        let aug = augment(&wan, &dm, &cfg, &[]);
        use rwc_te::TeAlgorithm;
        let sol = rwc_te::swan::SwanTe::default().try_solve(&aug.problem).expect("TE solve");
        let tr = translate(&aug, &wan, &sol).unwrap();
        assert!(!tr.requires_changes(), "upgrades={:?}", tr.upgrades);
        // A cost-oblivious solver may have sprinkled flow on fake edges
        // (raw penalty_paid ≥ 0), but nothing exceeded real capacity, so
        // the effective upgrade cost is zero.
        assert_eq!(tr.effective_penalty, 0.0);
    }

    #[test]
    fn folded_flows_preserve_totals() {
        let (wan, dm, cfg) = fig7_setup();
        let aug = augment(&wan, &dm, &cfg, &[]);
        use rwc_te::TeAlgorithm;
        let sol = rwc_te::TeSolver::builder()
            .build()
            .unwrap()
            .try_solve(&aug.problem)
            .expect("TE solve");
        let tr = translate(&aug, &wan, &sol).unwrap();
        let aug_total: f64 = sol.edge_flows.iter().sum();
        let real_total: f64 = tr.real_edge_flows.iter().sum();
        assert!((aug_total - real_total).abs() < 1e-6);
        assert_eq!(tr.routed, sol.routed);
    }

    #[test]
    fn smallest_sufficient_rung_chosen() {
        let (wan, _, cfg) = fig7_setup();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        // 130 G across the A–B cut... the direct link can take 125 G with
        // an upgrade to Hybrid125; force single-path pressure by demanding
        // only slightly more than 100.
        dm.add(a, b, Gbps(120.0), Priority::Elastic);
        let aug = augment(&wan, &dm, &cfg, &[]);
        // Hand-craft solutions: `real` on the real direct edge, `extra`
        // on the fake one. A 60 G trickle on the fake edge alone fits the
        // current 100 G and is no upgrade.
        let fake = aug
            .fake_edges
            .iter()
            .find(|f| f.link.0 == 0 && f.forward)
            .unwrap();
        use rwc_optics::Modulation::{Dp8Qam150, Hybrid125};
        for (real, extra, rung) in
            [(0.0, 60.0, None), (100.0, 20.0, Some(Hybrid125)), (100.0, 40.0, Some(Dp8Qam150))]
        {
            let mut flows = vec![0.0; aug.problem.net.n_edges()];
            flows[0] = real;
            flows[fake.edge_index] = extra;
            let total = real + extra;
            let sol = TeSolution { routed: vec![total], edge_flows: flows, total };
            let tr = translate(&aug, &wan, &sol).unwrap();
            assert_eq!(
                tr.upgrade_of(rwc_topology::wan::LinkId(0)),
                rung,
                "{total} G needs the smallest sufficient rung, not 200"
            );
            assert!((tr.penalty_paid - extra * 100.0).abs() < 1e-9);
        }
    }

    #[test]
    fn penalty_accounting_sums_directions() {
        let (wan, _, cfg) = fig7_setup();
        let dm = DemandMatrix::new();
        let aug = augment(&wan, &dm, &cfg, &[]);
        let fwd = aug.fake_edges.iter().find(|f| f.link.0 == 1 && f.forward).unwrap();
        let bwd = aug.fake_edges.iter().find(|f| f.link.0 == 1 && !f.forward).unwrap();
        let mut flows = vec![0.0; aug.problem.net.n_edges()];
        flows[fwd.edge_index] = 10.0;
        flows[bwd.edge_index] = 5.0;
        let sol = TeSolution { routed: vec![], edge_flows: flows, total: 0.0 };
        let tr = translate(&aug, &wan, &sol).unwrap();
        assert!((tr.penalty_paid - 1_500.0).abs() < 1e-9);
    }
}
