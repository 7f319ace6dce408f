//! A week-in-the-life scenario: telemetry → run/walk/crawl controller →
//! hourly TE rounds through the graph abstraction, against a pinned
//! binary-policy counterfactual. This is the paper's whole §1–§4 pipeline
//! in one run.

use crate::report::series_csv;
use crate::{Report, Scale};
use rwc_core::prelude::*;
use rwc_faults::{FaultPlan, FaultPlanConfig};
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::swan::SwanTe;
use rwc_telemetry::FleetConfig;
use rwc_topology::builders;

/// The Fig. 7 campaign that the `scenario`, `faults` and `srlg`
/// experiments run: 120 G elastic demands A→B and C→D over a one-fiber,
/// four-wavelength fleet, for a week (60 days at full scale).
pub(crate) struct Fig7Campaign {
    /// Fiber baseline SNR mean and spread, and per-wavelength jitter (dB).
    pub snr_db: (f64, f64, f64),
    /// Fault rates and seed; the campaign fills in the links, the horizon
    /// and each link's fiber. `None` injects nothing.
    pub faults: Option<FaultPlanConfig>,
    /// Puts links 0 and 2 on one fiber segment: the SRLG an amplifier
    /// event takes down in a single shot.
    pub shared_fiber: bool,
    /// Make-before-break reconfiguration, or break-then-make.
    pub make_before_break: bool,
}

impl Fig7Campaign {
    /// Builds the scenario and returns it with its horizon and the fault
    /// plan it replays (empty without faults).
    pub(crate) fn build(self, scale: Scale) -> (Scenario, SimDuration, FaultPlan) {
        let mut wan = builders::fig7_example();
        if self.shared_fiber {
            let shared = wan.link(LinkId(0)).fiber_id;
            wan.link_mut(LinkId(2)).fiber_id = shared;
        }
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let c = wan.node_by_name("C").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(120.0), Priority::Elastic);
        dm.add(c, d, Gbps(120.0), Priority::Elastic);
        let horizon = match scale {
            Scale::Quick => SimDuration::from_days(7),
            Scale::Full | Scale::Scaled(_) => SimDuration::from_days(60),
        };
        let (mean, sd, jitter) = self.snr_db;
        let fleet = FleetConfig {
            n_fibers: 1,
            wavelengths_per_fiber: 4,
            horizon: horizon + SimDuration::from_days(1),
            fiber_baseline_mean_db: mean,
            fiber_baseline_sd_db: sd,
            wavelength_jitter_sd_db: jitter,
            ..FleetConfig::paper()
        };
        let plan = self.faults.map(|faults| {
            FaultPlanConfig {
                n_links: wan.n_links(),
                horizon,
                fiber_of_link: wan.links().map(|(_, link)| link.fiber_id).collect(),
                ..faults
            }
            .generate()
        });
        let config = ScenarioConfig {
            fault_plan: plan.clone(),
            make_before_break: self.make_before_break,
            ..ScenarioConfig::default()
        };
        let scenario = Scenario::builder(wan, fleet, dm)
            .config(config)
            .observer(super::observer())
            .build()
            .expect("Fig. 7 campaign wiring is valid");
        (scenario, horizon, plan.unwrap_or_else(FaultPlan::none))
    }
}

fn build(scale: Scale) -> (Scenario, SimDuration) {
    let (scenario, horizon, _) = Fig7Campaign {
        snr_db: (13.2, 0.2, 0.4),
        faults: None,
        shared_fiber: false,
        make_before_break: true,
    }
    .build(scale);
    (scenario, horizon)
}

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report =
        Report::new("scenario", "week-in-the-life: dynamic fleet vs binary counterfactual");
    let (mut scenario, horizon) = build(scale);
    let result = scenario
        .run(horizon, &SwanTe::default())
        .expect("scenario horizon fits its telemetry");
    report.line(format!(
        "{} TE rounds over {horizon}: mean dynamic-over-binary gain {:.1}%",
        result.samples.len(),
        100.0 * result.mean_gain()
    ));
    report.line(format!(
        "{} degradations ridden out as flaps, {} hard downs, {} reconfiguration downtime, \
         {:.0} G total churn",
        result.flaps,
        result.hard_downs,
        result.reconfig_downtime,
        result.total_churn()
    ));
    let series: Vec<(f64, f64)> = result
        .samples
        .iter()
        .map(|s| (s.time.since_epoch().as_hours_f64(), s.throughput))
        .collect();
    report.csv("scenario_dynamic_throughput.csv", series_csv("hours,dynamic_gbps", &series));
    let series: Vec<(f64, f64)> = result
        .samples
        .iter()
        .map(|s| (s.time.since_epoch().as_hours_f64(), s.static_throughput))
        .collect();
    report.csv("scenario_static_throughput.csv", series_csv("hours,static_gbps", &series));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_experiment_runs() {
        let r = run(Scale::Quick);
        assert_eq!(r.csv.len(), 2);
        assert!(r.render().contains("TE rounds"));
    }

    #[test]
    fn dynamic_dominates_binary_on_average() {
        let (mut scenario, horizon) = build(Scale::Quick);
        let result = scenario.run(horizon, &SwanTe::default()).unwrap();
        assert!(result.mean_gain() >= 0.0, "gain={}", result.mean_gain());
        // Per-sample: dynamic never does worse than the binary
        // counterfactual by more than solver noise.
        for s in &result.samples {
            assert!(
                s.throughput >= s.static_throughput - 5.0,
                "at {}: dynamic {} vs binary {}",
                s.time,
                s.throughput,
                s.static_throughput
            );
        }
    }
}
