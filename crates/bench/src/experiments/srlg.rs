//! SRLG campaign: correlated amplifier-span outages, with and without
//! make-before-break reconfiguration.
//!
//! Two questions the paper's availability argument leaves open at fleet
//! scale. First, what happens when faults are *correlated*: one amplifier
//! serves every wavelength on a fiber segment, so a single outage takes
//! down all links sharing that span — a shared-risk link group (SRLG) —
//! and availability math that assumes independent failures undercounts
//! the damage. Second, whether staged make-before-break reconfiguration
//! (prepare → drain → commit, rollback on failure) actually converts
//! would-be capacity losses into clean rollbacks when flaky hardware
//! strikes mid-change.
//!
//! The experiment runs the same seeded fault plan — amplifier-span SRLG
//! events layered over per-link transceiver faults — through the full
//! pipeline twice: once with make-before-break (the default) and once
//! with the legacy break-then-make path, then reports the outage split
//! (correlated vs independent link-ticks) and the rollback accounting.

use super::scenario::build_campaign;
use crate::parallel::parallel_pair;
use crate::report::series_csv;
use crate::{Report, Scale};
use rwc_core::scenario::{Fig7Campaign, ScenarioReport};
use rwc_faults::FaultPlan;
use rwc_te::swan::SwanTe;
use rwc_util::time::SimDuration;

fn run_arm(scale: Scale, make_before_break: bool) -> (ScenarioReport, FaultPlan, SimDuration) {
    let (mut scenario, horizon, plan) =
        build_campaign(Fig7Campaign::srlg(make_before_break), scale);
    let result = scenario
        .run(horizon, &SwanTe::default())
        .expect("SRLG campaign horizon fits its telemetry");
    (result, plan, horizon)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new(
        "srlg",
        "correlated SRLG fault domains, make-before-break vs break-then-make",
    );
    // The two arms replay the same fault plan independently — run them
    // concurrently; the pair comes back in (MBB, legacy) order.
    let ((mbb, plan, horizon), (legacy, _, _)) =
        parallel_pair(|| run_arm(scale, true), || run_arm(scale, false));

    let (bvt_events, _, _, optical_events) = plan.class_counts();
    report.line(format!(
        "injected over {horizon}: {optical_events} amplifier-span (SRLG) events across \
         {} correlated faults, {bvt_events} per-link BVT faults",
        plan.correlated_count(),
    ));
    report.line(format!(
        "outage attribution (MBB arm): {} correlated vs {} independent link-ticks — \
         {:.1}% of outage time traces to shared fiber segments",
        mbb.correlated_outage_link_ticks,
        mbb.independent_outage_link_ticks,
        100.0 * mbb.correlated_outage_share(),
    ));
    report.line(format!(
        "make-before-break: {} failed changes, {} rolled back cleanly, availability {:.5}, \
         mean gain {:.1}%",
        mbb.failed_changes,
        mbb.rolled_back_changes,
        mbb.availability(),
        100.0 * mbb.mean_gain(),
    ));
    report.line(format!(
        "break-then-make:   {} failed changes, {} rolled back, availability {:.5}, \
         mean gain {:.1}%",
        legacy.failed_changes,
        legacy.rolled_back_changes,
        legacy.availability(),
        100.0 * legacy.mean_gain(),
    ));
    report.line(format!(
        "downtime: {} (MBB) vs {} (legacy); TE fallbacks {} vs {}",
        mbb.reconfig_downtime,
        legacy.reconfig_downtime,
        mbb.te_fallbacks,
        legacy.te_fallbacks,
    ));

    let series: Vec<(f64, f64)> = mbb
        .samples
        .iter()
        .map(|s| (s.time.since_epoch().as_hours_f64(), s.throughput))
        .collect();
    report.csv("srlg_mbb_throughput.csv", series_csv("hours,dynamic_gbps", &series));
    let series: Vec<(f64, f64)> = legacy
        .samples
        .iter()
        .map(|s| (s.time.since_epoch().as_hours_f64(), s.throughput))
        .collect();
    report.csv("srlg_legacy_throughput.csv", series_csv("hours,dynamic_gbps", &series));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn srlg_experiment_runs() {
        let r = run(Scale::Quick);
        let text = r.render();
        assert!(text.contains("SRLG"));
        assert!(text.contains("make-before-break"));
        assert_eq!(r.csv.len(), 2);
    }

    #[test]
    fn srlg_campaign_is_deterministic_and_correlated() {
        let (a, plan, _) = run_arm(Scale::Quick, true);
        let (b, _, _) = run_arm(Scale::Quick, true);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap(),
            "same seed must reproduce byte-identically"
        );
        // The plan really schedules shared-segment events, and whenever
        // outage occurred at all, some of it is attributed correlated.
        assert!(plan.correlated_count() > 0, "no SRLG events generated");
        if a.outage_link_ticks > 0 {
            assert!(
                a.correlated_outage_link_ticks > 0,
                "amplifier campaign produced outage but none attributed correlated"
            );
        }
    }
}
