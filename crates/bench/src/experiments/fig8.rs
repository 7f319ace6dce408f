//! Fig. 8: the node-splitting gadget for unsplittable flows.
//!
//! With plain augmentation a 200 G *unsplittable* flow cannot cross an
//! upgradable 100 G link (it would have to split across the real and fake
//! parallels). The gadget the solver routes on under
//! [`TeObjective::Unsplittable`] inserts intermediate vertices so a single
//! 200 G path exists while total capacity stays capped at 200 G.

use crate::{Report, Scale};
use rwc_core::{augment, translate, AugmentConfig, PenaltyPolicy};
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::{TeFormulation, TeObjective, TeSolver};
use rwc_topology::wan::{LinkId, WanTopology};
use rwc_util::units::{Db, Gbps};

/// One A–B link at 100 G whose SNR supports 200 G, and a 200 G A→B demand.
fn ab_setup() -> (WanTopology, DemandMatrix) {
    let mut wan = WanTopology::new();
    let a = wan.add_node("A", None);
    let b = wan.add_node("B", None);
    wan.add_link(a, b, 400.0);
    wan.set_snr(LinkId(0), Db(13.0));
    let mut dm = DemandMatrix::new();
    dm.add(a, b, Gbps(200.0), Priority::Elastic);
    (wan, dm)
}

/// Runs the experiment.
pub fn run(_scale: Scale) -> Report {
    let mut report = Report::new("fig8", "unsplittable 200 G flow via the node-splitting gadget");
    let (wan, dm) = ab_setup();
    let cfg = AugmentConfig { penalty: PenaltyPolicy::paper_example(), ..Default::default() };
    let aug = augment(&wan, &dm, &cfg, &[]);

    // Plain augmentation: parallel 100+100 edges — widest single path 100.
    let plain_width = rwc_flow::widest_path(&aug.problem.net, 0, 1);
    report.line(format!(
        "plain augmentation: widest single path A→B = {plain_width:.0} G \
         (a 200 G unsplittable flow is UNROUTABLE)"
    ));

    // The solver's gadget: single 200 G path exists, total still capped
    // at 200.
    let objective = TeObjective::Unsplittable;
    let lowered = TeFormulation::new(objective.clone()).lower(&aug.problem).expect("lowering");
    let net = &lowered.routing_problem().net;
    let gadget_width = rwc_flow::widest_path(net, 0, 1);
    let total = rwc_flow::max_flow(net, 0, 1).value;
    report.line(format!(
        "gadget: widest single path A→B = {gadget_width:.0} G, total max-flow {total:.0} G \
         (paper: single 200 G path, abstracted link stays at 200 G)"
    ));

    let solve = TeSolver::builder()
        .objective(objective)
        .build()
        .expect("unsplittable TE solver")
        .solve_detailed(&aug.problem)
        .expect("TE solve");
    let tr = translate(&aug, &wan, &solve.solution).expect("translation of solver output");
    report.line(format!(
        "min-cost max-flow pays penalty {:.0} and upgrades {} link(s) to {}",
        tr.penalty_paid,
        tr.upgrades.len(),
        tr.upgrades.first().map(|&(_, m)| m.to_string()).unwrap_or_default()
    ));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gadget_enables_single_200g_path() {
        let (wan, dm) = ab_setup();
        let aug = augment(&wan, &dm, &AugmentConfig::default(), &[]);
        assert_eq!(rwc_flow::widest_path(&aug.problem.net, 0, 1), 100.0);
        let formulation = TeFormulation::new(TeObjective::Unsplittable);
        let lowered = formulation.lower(&aug.problem).unwrap();
        let net = &lowered.routing_problem().net;
        assert_eq!(rwc_flow::widest_path(net, 0, 1), 200.0);
        assert_eq!(rwc_flow::max_flow(net, 0, 1).value, 200.0);
    }

    #[test]
    fn report_renders() {
        let text = run(Scale::Quick).render();
        assert!(text.contains("UNROUTABLE"));
        assert!(text.contains("pays penalty 10000 and upgrades 1 link(s) to DP-16QAM (200G)"));
    }
}
