//! Design-choice ablations (beyond the paper's figures).
//!
//! 1. **Penalty policy**: free vs paper-100 vs current-traffic vs unit
//!    weights — how many upgrades each triggers and what churn costs;
//! 2. **Hysteresis margin**: reconfiguration count of the controller on a
//!    noisy link as the upgrade margin grows (flap suppression);
//! 3. **BVT procedure**: throughput lost during consistent updates under
//!    legacy vs efficient reconfiguration.

use crate::parallel::parallel_arms;
use crate::{Report, Scale};
use rwc_core::controller::{Controller, ControllerConfig};
use rwc_core::{augment, translate, AugmentConfig, PenaltyPolicy};
use rwc_te::demand::DemandMatrix;
use rwc_te::problem::TeProblem;
use rwc_te::TeSolver;
use rwc_te::updates::{try_plan_capacity_changes, CapacityChange};
use rwc_te::TeAlgorithm;
use rwc_topology::builders;
use rwc_topology::wan::LinkId;
use rwc_util::rng::Xoshiro256;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::{Db, Gbps};
use std::fmt::Write as _;

fn fig7_under_pressure() -> (rwc_topology::wan::WanTopology, DemandMatrix) {
    let mut wan = builders::fig7_example();
    for (id, _) in wan.clone().links() {
        wan.set_snr(id, Db(13.0)); // everything upgradable
    }
    let a = wan.node_by_name("A").unwrap();
    let b = wan.node_by_name("B").unwrap();
    let c = wan.node_by_name("C").unwrap();
    let d = wan.node_by_name("D").unwrap();
    let mut dm = DemandMatrix::new();
    dm.add(a, b, Gbps(125.0), rwc_te::demand::Priority::Elastic);
    dm.add(c, d, Gbps(125.0), rwc_te::demand::Priority::Elastic);
    (wan, dm)
}

/// Penalty-policy ablation rows: `(name, upgrades, effective_penalty)`.
pub(crate) fn penalty_ablation() -> Vec<(&'static str, usize, f64)> {
    let (wan, dm) = fig7_under_pressure();
    let policies: Vec<(&str, PenaltyPolicy)> = vec![
        ("free", PenaltyPolicy::Uniform(0.0)),
        ("paper-100", PenaltyPolicy::paper_example()),
        ("current-traffic", PenaltyPolicy::CurrentTraffic),
        ("unit-weights", PenaltyPolicy::UnitWeights),
    ];
    let mut rows = Vec::new();
    for (name, penalty) in policies {
        let cfg = AugmentConfig { penalty, ..Default::default() };
        // Current traffic: both demand links loaded at 100 G.
        let traffic = vec![100.0, 100.0, 0.0, 0.0, 0.0];
        let aug = augment(&wan, &dm, &cfg, &traffic);
        let sol = TeSolver::builder()
            .build()
            .expect("default TE solver")
            .try_solve(&aug.problem)
            .expect("TE solve");
        let tr = translate(&aug, &wan, &sol).expect("experiment translation on solver output");
        rows.push((name, tr.upgrades.len(), tr.effective_penalty));
    }
    rows
}

/// Hysteresis ablation: reconfigurations of one noisy link over `ticks`
/// telemetry ticks for each upgrade margin.
pub(crate) fn hysteresis_ablation(margins_db: &[f64], ticks: usize) -> Vec<(f64, usize)> {
    // Every grid cell builds its own topology, controller, and seeded
    // rng, so the cells run concurrently; results return in margin order.
    let arms = margins_db
        .iter()
        .map(|&margin| {
            Box::new(move || {
                let mut wan = rwc_topology::WanTopology::new();
            let a = wan.add_node("A", None);
            let b = wan.add_node("B", None);
            wan.add_link(a, b, 500.0);
            let mut controller = Controller::new(
                ControllerConfig {
                    upgrade_margin: Db(margin),
                    dwell: SimDuration::ZERO, // isolate the margin's effect
                    ..ControllerConfig::default()
                },
                1,
                13,
            );
            // SNR wobbling around the 200 G threshold (12.5 dB).
            let mut rng = Xoshiro256::seed_from_u64(17);
            let mut changes = 0usize;
            for i in 0..ticks {
                let snr = Db(12.5 + rng.normal(0.0, 0.4));
                let now = SimTime::EPOCH + SimDuration::TELEMETRY_TICK * i as u64;
                let report = controller.sweep(&mut wan, &[(LinkId(0), Some(snr))], now);
                changes += report.changes.len();
            }
                (margin, changes)
            }) as Box<dyn FnOnce() -> (f64, usize) + Send>
        })
        .collect();
    parallel_arms(arms)
}

/// BVT-procedure ablation: interim throughput gap of a consistent update
/// under hitless (efficient) vs draining (legacy) reconfiguration.
pub(crate) fn procedure_ablation() -> (f64, f64) {
    let (wan, dm) = fig7_under_pressure();
    let change = CapacityChange {
        link: LinkId(0),
        to: rwc_optics::Modulation::Dp16Qam200,
    };
    let algo = rwc_te::swan::SwanTe::default();
    let mut upgraded = wan.clone();
    upgraded.set_modulation(change.link, change.to);
    let final_total = algo
        .try_solve(&TeProblem::from_wan(&upgraded, &dm))
        .expect("the upgraded Fig. 7 WAN solves")
        .total;
    let gap = |hitless| {
        let plan = try_plan_capacity_changes(&wan, &dm, &[change], &algo, hitless, None)
            .expect("the Fig. 7 upgrade plans");
        (final_total - plan.interim.total).max(0.0)
    };
    (gap(true), gap(false))
}

/// Runs all ablations.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new("ablation", "design-choice ablations");

    report.line("— penalty policy (Fig. 7 scenario, exact LP) —".to_string());
    let mut csv = String::from("policy,upgrades,effective_penalty\n");
    for (name, upgrades, penalty) in penalty_ablation() {
        report.line(format!(
            "{name:<16} upgrades={upgrades}  effective penalty={penalty:.0}"
        ));
        let _ = writeln!(csv, "{name},{upgrades},{penalty:.1}");
    }
    report.csv("ablation_penalty.csv", csv);

    report.line("— hysteresis margin vs reconfigurations (noisy link) —".to_string());
    let ticks = match scale {
        Scale::Quick => 2_000,
        Scale::Full | Scale::Scaled(_) => 20_000,
    };
    let mut csv = String::from("margin_db,reconfigurations\n");
    for (margin, changes) in hysteresis_ablation(&[0.0, 0.25, 0.5, 1.0, 1.5, 2.0], ticks) {
        report.line(format!("margin {margin:>4.2} dB → {changes} reconfigurations"));
        let _ = writeln!(csv, "{margin},{changes}");
    }
    report.csv("ablation_hysteresis.csv", csv);

    report.line("— BVT procedure vs interim throughput loss —".to_string());
    let (hitless_gap, legacy_gap) = procedure_ablation();
    report.line(format!(
        "interim throughput gap: efficient/hitless {hitless_gap:.0} G vs legacy/drain \
         {legacy_gap:.0} G"
    ));

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_penalty_upgrades_most() {
        let rows = penalty_ablation();
        let by = |name: &str| rows.iter().find(|r| r.0 == name).unwrap();
        // The paper's penalty consolidates to a single upgrade; unit
        // weights force both links up; free is unconstrained.
        assert_eq!(by("paper-100").1, 1, "{rows:?}");
        assert_eq!(by("unit-weights").1, 2, "{rows:?}");
        assert!(by("free").1 >= 1);
        assert_eq!(by("current-traffic").1, 1, "{rows:?}");
    }

    #[test]
    fn hysteresis_monotonically_suppresses_flaps() {
        let rows = hysteresis_ablation(&[0.0, 1.0, 2.0], 2_000);
        assert!(rows[0].1 > rows[1].1, "{rows:?}");
        assert!(rows[1].1 >= rows[2].1, "{rows:?}");
        // A 2 dB margin on a σ=0.4 wobble nearly eliminates changes.
        assert!(rows[2].1 < rows[0].1 / 4, "{rows:?}");
    }

    #[test]
    fn legacy_drain_loses_more_interim_throughput() {
        let (hitless, legacy) = procedure_ablation();
        assert!(legacy > hitless, "legacy {legacy} vs hitless {hitless}");
    }
}
