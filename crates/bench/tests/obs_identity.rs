//! Observability must be a pure sidecar: attaching a collecting
//! [`MetricsObserver`] to the pipeline cannot change a single byte of the
//! serialized [`ScenarioReport`]. The observer is never consulted by the
//! decision logic and never touches the RNG stream, so an observed run
//! and a blind run of the same seeded scenario are the same run.

use rwc_core::scenario::{Scenario, ScenarioConfig, ScenarioReport};
use rwc_faults::FaultPlanConfig;
use rwc_obs::{MetricsObserver, Observer};
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::swan::SwanTe;
use rwc_telemetry::FleetConfig;
use rwc_topology::builders;
use rwc_util::time::SimDuration;
use rwc_util::units::Gbps;
use std::sync::Arc;

fn campaign(obs: Arc<dyn Observer>) -> ScenarioReport {
    let wan = builders::fig7_example();
    let a = wan.node_by_name("A").unwrap();
    let b = wan.node_by_name("B").unwrap();
    let c = wan.node_by_name("C").unwrap();
    let d = wan.node_by_name("D").unwrap();
    let mut dm = DemandMatrix::new();
    dm.add(a, b, Gbps(120.0), Priority::Elastic);
    dm.add(c, d, Gbps(120.0), Priority::Elastic);
    let fleet = FleetConfig {
        n_fibers: 1,
        wavelengths_per_fiber: 4,
        horizon: SimDuration::from_days(4),
        fiber_baseline_mean_db: 12.8,
        fiber_baseline_sd_db: 0.4,
        wavelength_jitter_sd_db: 0.6,
        ..FleetConfig::paper()
    };
    // A fault plan dense enough to drive every instrumented path:
    // retries, quarantines, stale holds, TE fallbacks.
    let plan = FaultPlanConfig {
        n_links: 5,
        horizon: SimDuration::from_days(3),
        bvt_rate_per_link_day: 2.0,
        telemetry_rate_per_link_day: 1.5,
        te_rate_per_day: 1.0,
        bvt_mean_duration: SimDuration::from_hours(8),
        seed: 0x0B5,
        ..FaultPlanConfig::default()
    }
    .generate();
    let config = ScenarioConfig { fault_plan: Some(plan), ..ScenarioConfig::default() };
    let mut scenario = Scenario::builder(wan, fleet, dm)
        .config(config)
        .observer(obs)
        .build()
        .expect("campaign wiring is valid");
    scenario.run(SimDuration::from_days(3), &SwanTe::default()).unwrap()
}

#[test]
fn observed_and_blind_runs_serialize_byte_identically() {
    let blind = campaign(rwc_obs::noop());
    let metrics = Arc::new(MetricsObserver::new());
    let observed = campaign(Arc::clone(&metrics) as Arc<dyn Observer>);
    assert_eq!(
        serde_json::to_string(&blind).unwrap(),
        serde_json::to_string(&observed).unwrap(),
        "attaching an observer changed the report"
    );
    // And the comparison is not vacuous: the observed run really collected.
    let snap = metrics.snapshot();
    assert!(snap.counters["scenario.ticks"] > 0, "no ticks counted");
    assert!(snap.counters["te.rounds"] > 0, "no TE rounds counted");
    assert!(
        snap.counters["controller.decisions.hold"]
            + snap.counters["controller.decisions.step"]
            + snap.counters["controller.decisions.down"]
            > 0,
        "no controller decisions counted"
    );
    assert!(
        snap.counters["scenario.faults.bvt"]
            + snap.counters["scenario.faults.telemetry"]
            + snap.counters["scenario.faults.te"]
            > 0,
        "fault plan injected nothing"
    );
    assert!(snap.histograms["te.round_micros"].count > 0, "no round timing recorded");
}

#[test]
fn repeated_observed_runs_collect_identical_metrics() {
    let a = Arc::new(MetricsObserver::new());
    let b = Arc::new(MetricsObserver::new());
    campaign(Arc::clone(&a) as Arc<dyn Observer>);
    campaign(Arc::clone(&b) as Arc<dyn Observer>);
    let (mut sa, mut sb) = (a.snapshot(), b.snapshot());
    // Wall-clock histograms legitimately differ run to run; everything
    // simulation-derived (counters, sim-time histograms, gauges) must not.
    for s in [&mut sa, &mut sb] {
        s.histograms.retain(|name, _| !name.ends_with("_micros"));
    }
    assert_eq!(sa.to_json(), sb.to_json(), "sim-derived metrics must be deterministic");
}
