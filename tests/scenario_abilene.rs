//! Integration: the full multi-period pipeline on a real research
//! topology — telemetry ticks, controller safety actions, hourly TE rounds
//! through the graph abstraction, against the binary counterfactual.

use rwc::core::scenario::{Scenario, ScenarioConfig};
use rwc::te::swan::SwanTe;
use rwc::te::{DemandMatrix, Priority, TeAlgorithm, TeSolver, WarmStartPolicy};
use rwc::telemetry::FleetConfig;
use rwc::topology::builders;
use rwc::util::time::SimDuration;
use rwc::util::units::Gbps;

fn abilene_scenario(days: u64, lol_rate: f64) -> Scenario {
    let wan = builders::abilene();
    // Gravity matrix thinned to its 24 largest entries (full 330-demand
    // matrices are exercised in the release-mode repro harness; the test
    // keeps the hourly-round structure while staying fast in dev builds).
    let full = DemandMatrix::gravity(&wan, Gbps(wan.total_capacity().value()), 31);
    let mut top: Vec<_> = full.demands().to_vec();
    top.sort_by(|a, b| b.volume.partial_cmp(&a.volume).unwrap());
    let mut demands = DemandMatrix::new();
    for d in top.into_iter().take(24) {
        demands.add(d.from, d.to, d.volume, d.priority);
    }
    // Rescale the thinned matrix back to an overload that forces upgrades.
    let factor = 1.4 * wan.total_capacity().value() / demands.total().value();
    let demands = demands.scaled(factor);
    let fleet = FleetConfig {
        n_fibers: 2,
        wavelengths_per_fiber: 7, // 14 streams for 14 links
        horizon: SimDuration::from_days(days + 1),
        fiber_baseline_mean_db: 12.8,
        fiber_baseline_sd_db: 0.8,
        wavelength_jitter_sd_db: 0.6,
        link_lol_rate: lol_rate,
        ..FleetConfig::paper()
    };
    Scenario::builder(wan, fleet, demands)
        .config(ScenarioConfig::default())
        .build()
        .expect("abilene scenario wiring is valid")
}

#[test]
fn abilene_week_dynamic_dominates() {
    let mut scenario = abilene_scenario(2, 0.25);
    let report = scenario.run(SimDuration::from_days(2), &SwanTe::default()).unwrap();
    assert_eq!(report.samples.len(), 48, "hourly rounds over 2 days");
    // Dynamic throughput never falls meaningfully below the binary
    // counterfactual, and wins on average under this overload.
    for s in &report.samples {
        assert!(
            s.throughput >= s.static_throughput - 10.0,
            "at {}: dynamic {} vs binary {}",
            s.time,
            s.throughput,
            s.static_throughput
        );
    }
    assert!(report.mean_gain() > 0.0, "gain={}", report.mean_gain());
}

#[test]
fn degradations_become_flaps_not_failures() {
    // Crank loss-of-light + dips so the window contains real impairments.
    let mut scenario = abilene_scenario(6, 12.0);
    let report = scenario.run(SimDuration::from_days(6), &SwanTe::default()).unwrap();
    assert!(
        report.flaps > 0 || report.hard_downs > 0,
        "impairment-heavy window must show controller activity"
    );
    // Efficient BVT: total reconfiguration downtime stays tiny even with
    // frequent changes.
    assert!(
        report.reconfig_downtime < SimDuration::from_minutes(5),
        "{}",
        report.reconfig_downtime
    );
}

#[test]
fn churn_stays_bounded_round_to_round() {
    let mut scenario = abilene_scenario(2, 0.25);
    let report = scenario.run(SimDuration::from_days(2), &SwanTe::default()).unwrap();
    // Total capacity of Abilene bounds how much traffic can move per
    // round; churn beyond ~2× capacity per round would indicate thrash.
    let cap = builders::abilene().total_capacity().value();
    for s in report.samples.iter().skip(1) {
        assert!(s.churn <= 2.0 * cap, "round churn {} vs capacity {cap}", s.churn);
    }
}

/// A calm Abilene week: six 120 G commodities on a high-SNR fleet, so
/// ladders keep their shape most rounds — the regime warm starts exist for.
fn calm_abilene_week() -> Scenario {
    let wan = builders::abilene();
    let pick = |n: &str| wan.node_by_name(n).expect("abilene site");
    let mut demands = DemandMatrix::new();
    for (s, t) in
        [("SEA", "NYC"), ("LAX", "WDC"), ("SNV", "CHI"), ("DEN", "ATL"), ("KSC", "NYC"), ("HOU", "CHI")]
    {
        demands.add(pick(s), pick(t), Gbps(120.0), Priority::Elastic);
    }
    let fleet = FleetConfig {
        n_fibers: 2,
        wavelengths_per_fiber: 7,
        horizon: SimDuration::from_days(8),
        fiber_baseline_mean_db: 14.5,
        fiber_baseline_sd_db: 0.1,
        wavelength_jitter_sd_db: 0.15,
        ..FleetConfig::paper()
    };
    Scenario::builder(wan, fleet, demands).build().expect("abilene scenario wiring is valid")
}

#[test]
fn warm_solver_tracks_cold_through_the_round_engine() {
    // Every round solves the static problem and then its augmentation on
    // the same solver; the pair differs in the warm-start policy and
    // nothing else, so both reach an optimum of the same LP each round.
    let week = SimDuration::from_days(7);
    let cold = TeSolver::builder()
        .warm_start(WarmStartPolicy::AlwaysCold)
        .build()
        .expect("default TE solver");
    let cold_report = calm_abilene_week().run(week, &cold).unwrap();
    let warm = TeSolver::default();
    let warm_report = calm_abilene_week().run(week, &warm).unwrap();

    assert_eq!(cold_report.samples.len(), 168, "hourly rounds over 7 days");
    assert_eq!(warm_report.samples.len(), cold_report.samples.len());
    for (c, w) in cold_report.samples.iter().zip(&warm_report.samples) {
        assert!(
            (c.throughput - w.throughput).abs() <= 1e-6,
            "at {}: cold {} vs warm {}",
            c.time,
            c.throughput,
            w.throughput
        );
    }
    // Static → augmented is one warm chain: a hit rate near 0.65 means
    // every augmented solve went cold.
    let stats = warm.warm_stats().expect("default solver warm-starts");
    assert!(stats.warm_attempts > 0, "{stats:?}");
    assert!(stats.warm_hit_rate() >= 0.9, "{stats:?}");
    assert!(stats.eta_updates > 0, "{stats:?}");
}
