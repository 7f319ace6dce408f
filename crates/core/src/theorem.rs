//! Executable Theorem 1.
//!
//! *"Let G be a topology consisting of links with variable capacities,
//! with penalty function P. There is an augmented topology G′ such that
//! solving the min-cost max-flow problem on G′ is equivalent to solving
//! max-flow on G."*
//!
//! [`check_single_commodity`] runs both sides: min-cost max-flow on the
//! augmented graph (fake links priced by the penalty function) versus
//! plain max-flow on the dynamic-capacity graph (every feasible upgrade
//! applied). Equality of the flow values *is* the theorem; the min-cost
//! side additionally selects a cheapest set of upgrades achieving it, and
//! the translated solution is verified feasible on the upgraded topology.

use crate::augment::{augment, AugmentConfig};
use crate::translate::{translate, Translation};
use rwc_te::demand::DemandMatrix;
use rwc_te::problem::{TeProblem, TeSolution};
use rwc_topology::graph::NodeId;
use rwc_topology::wan::WanTopology;

/// Outcome of one Theorem 1 check.
#[derive(Debug, Clone, PartialEq)]
pub struct TheoremReport {
    /// Min-cost max-flow value on the augmented graph G′.
    pub augmented_value: f64,
    /// Max-flow value on G with all SNR-feasible upgrades applied.
    pub upgraded_value: f64,
    /// Max-flow value on G without any upgrades (context).
    pub static_value: f64,
    /// Cost paid by the min-cost solution (flow-weighted penalties).
    pub penalty_paid: f64,
    /// Number of links the translated solution upgrades.
    pub upgrades_used: usize,
    /// Whether the equivalence holds (values equal within tolerance).
    pub holds: bool,
}

fn max_flow_value(wan: &WanTopology, src: NodeId, dst: NodeId) -> f64 {
    let problem = TeProblem::from_wan(wan, &DemandMatrix::new());
    rwc_flow::max_flow(&problem.net, src.0, dst.0).value
}

/// `wan` with every SNR-feasible upgrade applied: G's side of the theorem.
fn fully_upgraded(wan: &WanTopology, config: &AugmentConfig) -> WanTopology {
    let mut upgraded = wan.clone();
    for (id, link) in wan.links() {
        if let Some(&fastest) = config.table.upgrades(link.snr, link.modulation).last() {
            upgraded.set_modulation(id, fastest);
        }
    }
    upgraded
}

/// Panics unless the translated flow is feasible on the topology its own
/// upgrades produce (not just on the fully upgraded one).
fn assert_translation_fits(wan: &WanTopology, translation: &Translation) {
    let mut translated_wan = wan.clone();
    for &(id, m) in &translation.upgrades {
        translated_wan.set_modulation(id, m);
    }
    for (id, link) in translated_wan.links() {
        let cap = link.capacity().value() + 1e-6;
        let [fwd, bwd] = TeProblem::link_edges(id).map(|e| translation.real_edge_flows[e]);
        assert!(fwd <= cap && bwd <= cap, "translated flow infeasible on link {id:?}");
    }
}

/// Runs the theorem for one source–sink pair.
pub fn check_single_commodity(
    wan: &WanTopology,
    config: &AugmentConfig,
    src: NodeId,
    dst: NodeId,
) -> TheoremReport {
    assert!(src != dst, "source and sink must differ");

    // Left side: min-cost max-flow on G′, built without demands (augment
    // ignores them for structure).
    let aug = augment(wan, &DemandMatrix::new(), config, &[]);
    let mcmf = rwc_flow::min_cost_max_flow(&aug.problem.net, src.0, dst.0);
    let te_solution = TeSolution {
        routed: vec![mcmf.flow.value],
        edge_flows: mcmf.flow.edge_flows.clone(),
        total: mcmf.flow.value,
    };
    let translation =
        translate(&aug, wan, &te_solution).expect("theorem translation on solver output");

    // Right side: max-flow on G with every feasible upgrade applied.
    let upgraded_value = max_flow_value(&fully_upgraded(wan, config), src, dst);
    let static_value = max_flow_value(wan, src, dst);
    assert_translation_fits(wan, &translation);

    TheoremReport {
        augmented_value: mcmf.flow.value,
        upgraded_value,
        static_value,
        penalty_paid: translation.penalty_paid,
        upgrades_used: translation.upgrades.len(),
        holds: (mcmf.flow.value - upgraded_value).abs() < 1e-6,
    }
}

/// Multicommodity corollary of Theorem 1: maximum *total* throughput on
/// the augmented graph (computed by the exact LP TE) equals the optimum on
/// the fully upgraded topology, for any demand set.
#[derive(Debug, Clone, PartialEq)]
pub struct McTheoremReport {
    /// Optimal total throughput on G′ (exact LP on the augmented problem).
    pub augmented_total: f64,
    /// Optimal total on G with every feasible upgrade applied.
    pub upgraded_total: f64,
    /// Optimal total on the unmodified topology (context).
    pub static_total: f64,
    /// Whether the equivalence holds.
    pub holds: bool,
}

/// Runs the multicommodity variant with the exact LP solver on both sides.
pub fn check_multicommodity(
    wan: &WanTopology,
    config: &AugmentConfig,
    demands: &DemandMatrix,
) -> McTheoremReport {
    use rwc_te::TeAlgorithm;
    let exact = rwc_te::TeSolver::builder().build().expect("default TE solver");

    let aug = augment(wan, demands, config, &[]);
    let augmented = exact.try_solve(&aug.problem).expect("TE solve");
    // Translation must stay feasible (exercises the full pipeline).
    let tr = translate(&aug, wan, &augmented).expect("theorem translation on solver output");
    assert_translation_fits(wan, &tr);

    let upgraded = fully_upgraded(wan, config);
    let upgraded_total =
        exact.try_solve(&TeProblem::from_wan(&upgraded, demands)).expect("TE solve").total;
    let static_total = exact.try_solve(&TeProblem::from_wan(wan, demands)).expect("TE solve").total;
    McTheoremReport {
        augmented_total: augmented.total,
        upgraded_total,
        static_total,
        holds: (augmented.total - upgraded_total).abs() < 1e-4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::penalty::PenaltyPolicy;
    use rwc_topology::builders;
    use rwc_topology::random::{waxman, WaxmanConfig};
    use rwc_util::rng::Xoshiro256;
    use rwc_util::units::Db;

    fn config() -> AugmentConfig {
        AugmentConfig { penalty: PenaltyPolicy::Uniform(10.0), ..AugmentConfig::default() }
    }

    #[test]
    fn holds_on_fig7() {
        let mut wan = builders::fig7_example();
        wan.set_snr(rwc_topology::wan::LinkId(0), Db(13.0));
        wan.set_snr(rwc_topology::wan::LinkId(1), Db(13.0));
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let report = check_single_commodity(&wan, &config(), a, b);
        assert!(report.holds, "{report:?}");
        // The A–B cut gains 100 G from the (A,B) upgrade.
        assert!(report.augmented_value > report.static_value);
    }

    #[test]
    fn holds_on_abilene() {
        let wan = builders::abilene(); // SNR from link budgets
        let sea = wan.node_by_name("SEA").unwrap();
        let nyc = wan.node_by_name("NYC").unwrap();
        let report = check_single_commodity(&wan, &config(), sea, nyc);
        assert!(report.holds, "{report:?}");
        assert!(report.upgraded_value >= report.static_value);
    }

    #[test]
    fn holds_on_random_wans() {
        // Randomised check across Waxman graphs, SNR assignments and
        // endpoint pairs.
        let mut rng = Xoshiro256::seed_from_u64(99);
        for seed in 0..8u64 {
            let mut wan = waxman(&WaxmanConfig { seed, n_nodes: 8, ..WaxmanConfig::default() });
            // Randomise SNR so upgrade structure varies.
            for (id, _) in wan.clone().links() {
                wan.set_snr(id, Db(rng.uniform_in(6.6, 14.5)));
            }
            let src = NodeId(rng.below(wan.n_nodes()));
            let mut dst = NodeId(rng.below(wan.n_nodes()));
            if dst == src {
                dst = NodeId((src.0 + 1) % wan.n_nodes());
            }
            let report = check_single_commodity(&wan, &config(), src, dst);
            assert!(report.holds, "seed {seed}: {report:?}");
        }
    }

    #[test]
    fn penalty_free_when_no_upgrade_needed() {
        // If static max-flow already equals upgraded max-flow, min-cost
        // max-flow must avoid every fake edge.
        let mut wan = builders::ring(4, 300.0);
        // Only one link upgradable; the ring's min cut for opposite nodes
        // is two links, so upgrading one link cannot raise the cut (the
        // other cut link stays at 100).
        wan.set_snr(rwc_topology::wan::LinkId(0), Db(13.0));
        let report =
            check_single_commodity(&wan, &config(), NodeId(0), NodeId(2));
        assert!(report.holds, "{report:?}");
        if (report.upgraded_value - report.static_value).abs() < 1e-9 {
            assert_eq!(report.penalty_paid, 0.0, "{report:?}");
            assert_eq!(report.upgrades_used, 0);
        }
    }

    #[test]
    fn multi_step_ladder_also_holds() {
        let mut wan = builders::fig7_example();
        for (id, _) in wan.clone().links() {
            wan.set_snr(id, Db(12.0)); // 175 G feasible everywhere
        }
        let cfg = AugmentConfig { multi_step: true, ..config() };
        let a = wan.node_by_name("A").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let report = check_single_commodity(&wan, &cfg, a, d);
        assert!(report.holds, "{report:?}");
    }

    #[test]
    fn multicommodity_variant_holds_on_fig7() {
        let mut wan = builders::fig7_example();
        for (id, _) in wan.clone().links() {
            wan.set_snr(id, Db(7.5));
        }
        wan.set_snr(rwc_topology::wan::LinkId(0), Db(13.0));
        wan.set_snr(rwc_topology::wan::LinkId(1), Db(13.0));
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let c = wan.node_by_name("C").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let mut dm = rwc_te::demand::DemandMatrix::new();
        dm.add(a, b, rwc_util::units::Gbps(125.0), rwc_te::demand::Priority::Elastic);
        dm.add(c, d, rwc_util::units::Gbps(125.0), rwc_te::demand::Priority::Elastic);
        let report = check_multicommodity(&wan, &config(), &dm);
        assert!(report.holds, "{report:?}");
        assert!((report.augmented_total - 250.0).abs() < 1e-4);
        assert!(report.static_total < 250.0 - 1.0, "static cannot serve both");
    }

    #[test]
    fn multicommodity_variant_holds_on_random_wans() {
        let mut rng = Xoshiro256::seed_from_u64(0xA11);
        for seed in 0..4u64 {
            let mut wan =
                waxman(&WaxmanConfig { seed, n_nodes: 6, ..WaxmanConfig::default() });
            for (id, _) in wan.clone().links() {
                wan.set_snr(id, Db(rng.uniform_in(6.6, 14.5)));
            }
            let dm = rwc_te::demand::DemandMatrix::gravity(
                &wan,
                rwc_util::units::Gbps(rng.uniform_in(100.0, 600.0)),
                seed,
            );
            // Thin to the 6 largest demands to keep the LP small.
            let mut top: Vec<_> = dm.demands().to_vec();
            top.sort_by(|x, y| f64::total_cmp(&y.volume.value(), &x.volume.value()));
            let mut thin = rwc_te::demand::DemandMatrix::new();
            for d in top.into_iter().take(6) {
                thin.add(d.from, d.to, d.volume * 3.0, d.priority);
            }
            let report = check_multicommodity(&wan, &config(), &thin);
            assert!(report.holds, "seed {seed}: {report:?}");
            assert!(report.augmented_total + 1e-6 >= report.static_total);
        }
    }

    #[test]
    fn lp_cross_validation() {
        // The min-cost max-flow value on G′ must match the exact LP TE's
        // max-flow on the fully upgraded topology: one commodity whose
        // demand exceeds every capacity combined.
        use rwc_te::TeAlgorithm;
        let mut wan = builders::fig7_example();
        for (id, _) in wan.clone().links() {
            wan.set_snr(id, Db(7.5)); // only link 0 gets upgrade headroom
        }
        wan.set_snr(rwc_topology::wan::LinkId(0), Db(13.0));
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let report = check_single_commodity(&wan, &config(), a, b);
        let mut upgraded = wan.clone();
        upgraded.set_modulation(
            rwc_topology::wan::LinkId(0),
            rwc_optics::Modulation::Dp16Qam200,
        );
        let capacity: f64 = upgraded.links().map(|(_, l)| 2.0 * l.capacity().value()).sum();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, rwc_util::units::Gbps(capacity + 1.0), rwc_te::demand::Priority::Elastic);
        let problem = rwc_te::problem::TeProblem::from_wan(&upgraded, &dm);
        let lp_value = rwc_te::TeSolver::default().try_solve(&problem).expect("TE solve").total;
        assert!((report.augmented_value - lp_value).abs() < 1e-6,
            "mcmf {} vs lp {lp_value}", report.augmented_value);
    }
}
