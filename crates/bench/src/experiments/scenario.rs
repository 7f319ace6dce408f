//! A week-in-the-life scenario: telemetry → run/walk/crawl controller →
//! hourly TE rounds through the graph abstraction, against a pinned
//! binary-policy counterfactual. This is the paper's whole §1–§4 pipeline
//! in one run.

use crate::report::series_csv;
use crate::{Report, Scale};
use rwc_core::scenario::{Fig7Campaign, Scenario};
use rwc_faults::FaultPlan;
use rwc_te::swan::SwanTe;
use rwc_util::time::SimDuration;

/// Builds `campaign` for a week (60 days at full scale) with the
/// experiments' observer attached; returns it with its horizon and the
/// fault plan it replays.
pub(crate) fn build_campaign(
    campaign: Fig7Campaign,
    scale: Scale,
) -> (Scenario, SimDuration, FaultPlan) {
    let horizon = match scale {
        Scale::Quick => SimDuration::from_days(7),
        Scale::Full | Scale::Scaled(_) => SimDuration::from_days(60),
    };
    let (mut scenario, plan) = campaign.build(horizon);
    scenario.set_observer(super::observer());
    (scenario, horizon, plan)
}

fn build(scale: Scale) -> (Scenario, SimDuration) {
    let (scenario, horizon, _) = build_campaign(Fig7Campaign::scenario(), scale);
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
