//! Fig. 1: SNR over time of 40 wavelengths on one WAN fiber cable, with
//! the modulation thresholds as horizontal reference lines.

use crate::report::series_csv;
use crate::{Report, Scale};
use rwc_optics::Modulation;
use rwc_telemetry::FleetGenerator;
use rwc_util::stats::Summary;
use std::fmt::Write as _;

/// Runs the experiment.
pub fn run(scale: Scale) -> Report {
    let mut report = Report::new("fig1", "SNR of 40 wavelengths on one fiber vs time");
    let mut cfg = scale.fleet();
    cfg.wavelengths_per_fiber = 40; // Fig. 1's cable regardless of scale
    let gen = FleetGenerator::new(cfg);
    let fiber = gen.fiber(0);

    report.line(format!(
        "fiber 0: {} wavelengths over {}",
        fiber.len(),
        gen.config().horizon
    ));
    for m in Modulation::LADDER {
        report.line(format!(
            "threshold {:>6.1} dB → {}",
            m.required_snr().value(),
            m
        ));
    }
    let baselines: Vec<f64> = fiber.iter().map(|l| l.baseline.value()).collect();
    report.line(format!("baselines: {}", Summary::of(&baselines)));
    let mins: Vec<f64> = fiber.iter().map(|l| l.trace.min().value()).collect();
    let maxs: Vec<f64> = fiber.iter().map(|l| l.trace.max().value()).collect();
    report.line(format!("per-wavelength minima: {}", Summary::of(&mins)));
    report.line(format!("per-wavelength maxima: {}", Summary::of(&maxs)));
    let dips = fiber.iter().filter(|l| l.trace.min().value() < 6.5).count();
    report.line(format!(
        "{dips}/{} wavelengths dipped below the 100 G threshold at least once",
        fiber.len()
    ));

    // CSV: decimated series, one column per wavelength.
    let stride = (fiber[0].trace.len() / 2_000).max(1);
    let decimated: Vec<_> = fiber.iter().map(|l| l.trace.decimate(stride)).collect();
    let mut csv = String::from("hours");
    for w in 0..decimated.len() {
        let _ = write!(csv, ",w{w}");
    }
    csv.push('\n');
    for i in 0..decimated[0].len() {
        let _ = write!(csv, "{:.2}", decimated[0].time_at(i).since_epoch().as_hours_f64());
        for d in &decimated {
            let _ = write!(csv, ",{:.3}", d.values()[i]);
        }
        csv.push('\n');
    }
    report.csv("fig1_snr_timeseries.csv", csv);

    // Also one example wavelength at full resolution for close-ups.
    let w0 = &fiber[0].trace;
    let series: Vec<(f64, f64)> = w0
        .iter()
        .map(|(t, snr)| (t.since_epoch().as_hours_f64(), snr.value()))
        .collect();
    report.csv("fig1_wavelength0_full.csv", series_csv("hours,snr_db", &series));
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn produces_forty_wavelength_csv() {
        let r = run(Scale::Quick);
        assert_eq!(r.id, "fig1");
        let (name, csv) = &r.csv[0];
        assert!(name.contains("timeseries"));
        let header = csv.lines().next().unwrap();
        assert_eq!(header.split(',').count(), 41, "time + 40 wavelengths");
        assert!(csv.lines().count() > 100);
    }

    #[test]
    fn reports_thresholds() {
        let r = run(Scale::Quick);
        let text = r.render();
        assert!(text.contains("6.5 dB"));
        assert!(text.contains("12.5 dB"));
    }
}
