//! Fig. 3a: number of failures each link of a high-quality fiber would
//! suffer if driven statically at each capacity rung.
//! Fig. 3b: duration of those hypothetical failures across the WAN.
//!
//! The paper's setup for 3a: "a high quality WAN fiber where each link …
//! has a high enough SNR to make all capacity denominations feasible" —
//! failures stay flat up to 175 G, then blow up at 200 G for some links.

use crate::{Report, Scale};
use rwc_optics::{Modulation, ModulationTable};
use rwc_telemetry::{analysis::LinkAnalysis, FleetConfig, FleetGenerator, FleetKernel};
use rwc_util::stats::Summary;
use std::fmt::Write as _;

/// A fiber whose wavelengths all have ≥ 200 G-feasible baselines, with
/// some sitting close enough to the 12.5 dB threshold that micro-noise
/// crosses it.
fn high_quality_fiber(scale: Scale) -> Vec<LinkAnalysis> {
    let mut cfg = FleetConfig {
        n_fibers: 1,
        wavelengths_per_fiber: 40,
        fiber_baseline_mean_db: 14.2,
        fiber_baseline_sd_db: 0.01,
        wavelength_jitter_sd_db: 0.9,
        baseline_clamp_db: (13.1, 16.5),
        noisy_link_fraction: 0.0,
        // Keep only shallow per-link events so rungs ≤ 175 G stay clean.
        deep_dip_rate: 0.0,
        link_lol_rate: 0.0,
        fiber_cut_rate: 0.0,
        shallow_dip_rate: 1.0,
        step_rate: 0.0,
        maintenance_rate: 0.5,
        ..FleetConfig::paper()
    };
    if scale == Scale::Quick {
        cfg.horizon = rwc_util::time::SimDuration::from_days(120);
    }
    let gen = FleetGenerator::new(cfg);
    let table = ModulationTable::paper_default();
    let mut kernel = FleetKernel::with_observer(super::observer());
    (0..gen.n_links())
        .map(|i| kernel.analyze_generated(&gen, i, &table))
        .collect()
}

/// Fig. 3a.
pub fn run_3a(scale: Scale) -> Report {
    let mut report =
        Report::new("fig3a", "failures per link vs hypothetical static capacity (one fiber)");
    let links = high_quality_fiber(scale);
    let mut csv = String::from("wavelength,capacity_gbps,failures\n");
    for m in Modulation::LADDER {
        let counts: Vec<f64> =
            links.iter().map(|l| l.failures_at(m).len() as f64).collect();
        let nonzero = counts.iter().filter(|&&c| c > 0.0).count();
        let max = counts.iter().cloned().fold(0.0, f64::max);
        report.line(format!(
            "{:>5.0} Gbps: {:>2} of {} links fail at all; worst link {:>4.0} failures; mean {:.2}",
            m.capacity().value(),
            nonzero,
            links.len(),
            max,
            counts.iter().sum::<f64>() / counts.len() as f64
        ));
        for (w, c) in counts.iter().enumerate() {
            let _ = writeln!(csv, "{w},{},{}", m.capacity().value(), c);
        }
    }
    report.line(
        "paper shape: no significant increase up to 175 Gbps, large failure counts at 200 Gbps"
            .to_string(),
    );
    report.csv("fig3a_failures_per_link.csv", csv);
    report
}

/// Fig. 3b.
pub fn run_3b(scale: Scale) -> Report {
    let mut report =
        Report::new("fig3b", "duration of hypothetical link failures vs capacity (whole WAN)");
    let gen = FleetGenerator::new(scale.fleet());
    let table = ModulationTable::paper_default();
    let acc = super::fleet_sweep(&gen, &table);
    let mut csv = String::from("capacity_gbps,mean_h,p25_h,median_h,p75_h,max_h,episodes\n");
    for m in Modulation::LADDER {
        let durations = acc.failure_durations_hours(m);
        if durations.is_empty() {
            report.line(format!("{:>5.0} Gbps: no failure episodes", m.capacity().value()));
            continue;
        }
        let s = Summary::of(durations);
        report.line(format!(
            "{:>5.0} Gbps: {} episodes, duration hours {}",
            m.capacity().value(),
            s.count,
            s
        ));
        let _ = writeln!(
            csv,
            "{},{:.3},{:.3},{:.3},{:.3},{:.3},{}",
            m.capacity().value(),
            s.mean,
            s.p25,
            s.median,
            s.p75,
            s.max,
            s.count
        );
    }
    report.line("paper shape: failures last several hours at every capacity".to_string());
    report.csv("fig3b_failure_durations.csv", csv);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig3a_shape_flat_then_blowup() {
        let links = high_quality_fiber(Scale::Quick);
        let total_at = |m: Modulation| -> usize {
            links.iter().map(|l| l.failures_at(m).len()).sum()
        };
        // All denominations feasible: essentially no failures ≤ 175 G.
        let low = total_at(Modulation::DpQpsk100)
            + total_at(Modulation::Hybrid125)
            + total_at(Modulation::Dp8Qam150);
        let t175 = total_at(Modulation::Hybrid175);
        let t200 = total_at(Modulation::Dp16Qam200);
        assert!(t200 > 5 * (t175 + 1), "200G must blow up: {t200} vs {t175}");
        assert!(t200 > 10, "some links must fail repeatedly at 200 G: {t200}");
        assert!(low <= t175 + 2, "low rungs stay clean: {low}");
    }

    #[test]
    fn fig3b_durations_in_hours() {
        let r = run_3b(Scale::Quick);
        // At 100 G, mean failure duration must be hours, not minutes.
        let gen = rwc_telemetry::FleetGenerator::new(Scale::Quick.fleet());
        let acc = gen.fleet_analysis(&ModulationTable::paper_default());
        let d100 = acc.failure_durations_hours(Modulation::DpQpsk100);
        assert!(!d100.is_empty());
        let mean = d100.iter().sum::<f64>() / d100.len() as f64;
        assert!((1.0..30.0).contains(&mean), "mean={mean}h");
        assert!(r.render().contains("Gbps"));
    }
}
