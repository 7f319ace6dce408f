//! Fig. 7 / §4.1 worked example: the graph abstraction in action.
//!
//! Initial state: four sites, all links 100 G, demands A→B = C→D = 100 G.
//! Next TE round: both demands grow to 125 G; links (A,B) and (C,D) have
//! SNR headroom for another 100 G; changing a modulation costs 100 per
//! unit of disrupted traffic. The penalty-minimising solution upgrades
//! **one** link and detours the other demand's overflow. With unit
//! weights (Fig. 7c) the TE instead keeps every flow on one hop.

use crate::{Report, Scale};
use rwc_core::{augment, translate, AugmentConfig, PenaltyPolicy};
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::TeSolver;
use rwc_te::TeAlgorithm;
use rwc_topology::builders;
use rwc_topology::wan::LinkId;
use rwc_util::units::{Db, Gbps};

fn setup() -> (rwc_topology::wan::WanTopology, DemandMatrix) {
    let mut wan = builders::fig7_example();
    for (id, _) in wan.clone().links() {
        wan.set_snr(id, Db(7.5));
    }
    wan.set_snr(LinkId(0), Db(13.0)); // A–B can double
    wan.set_snr(LinkId(1), Db(13.0)); // C–D can double
    let a = wan.node_by_name("A").unwrap();
    let b = wan.node_by_name("B").unwrap();
    let c = wan.node_by_name("C").unwrap();
    let d = wan.node_by_name("D").unwrap();
    let mut dm = DemandMatrix::new();
    dm.add(a, b, Gbps(125.0), Priority::Elastic);
    dm.add(c, d, Gbps(125.0), Priority::Elastic);
    (wan, dm)
}

/// Runs the experiment.
pub fn run(_scale: Scale) -> Report {
    let mut report = Report::new("fig7", "worked example: one upgrade serves both grown demands");
    let (wan, dm) = setup();

    // Penalty-minimising TE (Fig. 7b).
    let cfg = AugmentConfig { penalty: PenaltyPolicy::paper_example(), ..Default::default() };
    let aug = augment(&wan, &dm, &cfg, &[]);
    let sol = TeSolver::builder()
        .build()
        .expect("default TE solver")
        .try_solve(&aug.problem)
        .expect("TE solve");
    let tr = translate(&aug, &wan, &sol).expect("experiment translation on solver output");
    report.line(format!(
        "demands 2×125 G: routed {:.0} G; upgrades: {:?}; effective penalty {:.0}",
        sol.total,
        tr.upgrades
            .iter()
            .map(|(l, m)| format!("link{} → {}", l.0, m))
            .collect::<Vec<_>>(),
        tr.effective_penalty
    ));
    report.line(format!(
        "paper: the penalty-minimising solution increases the capacity of only ONE link — \
         measured {} upgrade(s)",
        tr.upgrades.len()
    ));

    // Unit-weight variant (Fig. 7c): short paths at all costs.
    let unit_cfg = AugmentConfig { penalty: PenaltyPolicy::UnitWeights, ..Default::default() };
    let unit_aug = augment(&wan, &dm, &unit_cfg, &[]);
    let unit_sol = TeSolver::builder()
        .build()
        .expect("default TE solver")
        .try_solve(&unit_aug.problem)
        .expect("TE solve");
    let unit_tr = translate(&unit_aug, &wan, &unit_sol)
        .expect("experiment translation on solver output");
    // Hop count of the solution = total flow-hops / total flow.
    let flow_hops: f64 = unit_tr.real_edge_flows.iter().sum();
    report.line(format!(
        "unit weights (7c): routed {:.0} G over {:.2} average hops (1.0 = every flow direct); \
         upgrades: {}",
        unit_sol.total,
        flow_hops / unit_sol.total,
        unit_tr.upgrades.len()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_upgrade_suffices() {
        let (wan, dm) = setup();
        let cfg =
            AugmentConfig { penalty: PenaltyPolicy::paper_example(), ..Default::default() };
        let aug = augment(&wan, &dm, &cfg, &[]);
        let sol = TeSolver::builder()
            .build()
            .expect("default TE solver")
            .try_solve(&aug.problem)
            .expect("TE solve");
        let tr = translate(&aug, &wan, &sol).expect("experiment translation on solver output");
        assert!((sol.total - 250.0).abs() < 1e-6, "both demands fully routed");
        assert_eq!(tr.upgrades.len(), 1, "exactly one link upgraded: {:?}", tr.upgrades);
        let (link, target) = tr.upgrades[0];
        assert!(link == LinkId(0) || link == LinkId(1));
        assert_eq!(
            target,
            rwc_optics::Modulation::Dp8Qam150,
            "the upgraded link carries its own 125 G plus the other demand's 25 G detour"
        );
    }

    #[test]
    fn unit_weights_favour_single_hops() {
        let (wan, dm) = setup();
        let cfg = AugmentConfig { penalty: PenaltyPolicy::UnitWeights, ..Default::default() };
        let aug = augment(&wan, &dm, &cfg, &[]);
        let sol = TeSolver::builder()
            .build()
            .expect("default TE solver")
            .try_solve(&aug.problem)
            .expect("TE solve");
        let tr = translate(&aug, &wan, &sol).expect("experiment translation on solver output");
        assert!((sol.total - 250.0).abs() < 1e-6);
        let flow_hops: f64 = tr.real_edge_flows.iter().sum();
        // Fig. 7c: all flows take only one hop, so both upgradable links
        // are upgraded instead of detouring.
        assert!((flow_hops / sol.total - 1.0).abs() < 1e-6, "avg hops = {}", flow_hops / sol.total);
        assert_eq!(tr.upgrades.len(), 2, "{:?}", tr.upgrades);
    }

    #[test]
    fn report_renders() {
        let text = run(Scale::Quick).render();
        assert!(text.contains("ONE link"));
    }
}
