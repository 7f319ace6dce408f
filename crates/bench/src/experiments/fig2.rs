//! Fig. 2a: CDFs of per-link SNR variation (95% HDR width vs range).
//! Fig. 2b: CDF of feasible capacities from the HDR lower edge, and the
//! fleet-wide capacity gain (the paper's 145 Tbps headline).

use crate::report::series_csv;
use crate::{Report, Scale};
use rwc_optics::ModulationTable;
use rwc_telemetry::{FleetAccumulator, FleetGenerator};
use rwc_util::units::{Db, Gbps};

fn fleet_analysis(scale: Scale) -> (FleetAccumulator, usize) {
    let gen = FleetGenerator::new(scale.fleet());
    let table = ModulationTable::paper_default();
    // The shared crash-safe sweep: panic-retrying workers, plus interval
    // checkpoint/resume when `repro --checkpoint/--resume` installed one.
    let acc = super::fleet_sweep(&gen, &table);
    (acc, gen.n_links())
}

/// Fig. 2a.
pub fn run_2a(scale: Scale) -> Report {
    let mut report = Report::new("fig2a", "CDF of SNR variation: 95% HDR width vs range");
    let (acc, n) = fleet_analysis(scale);
    let hdr = acc.hdr_width_ecdf();
    let range = acc.range_ecdf();
    report.line(format!("links analysed: {n}"));
    report.line(format!(
        "HDR width: median {:.2} dB, p95 {:.2} dB — {:.1}% of links below 2 dB (paper: 83%)",
        hdr.median(),
        hdr.quantile(0.95),
        100.0 * acc.fraction_hdr_below(Db(2.0))
    ));
    report.line(format!(
        "range (max−min): median {:.2} dB, mean {:.2} dB, p95 {:.2} dB (paper: wide, ~12 dB avg)",
        range.median(),
        range.mean(),
        range.quantile(0.95)
    ));
    report.csv("fig2a_hdr_cdf.csv", series_csv("hdr_width_db,cdf", &hdr.series(200)));
    report.csv("fig2a_range_cdf.csv", series_csv("range_db,cdf", &range.series(200)));
    report
}

/// Fig. 2b.
pub fn run_2b(scale: Scale) -> Report {
    let mut report =
        Report::new("fig2b", "CDF of feasible link capacity (HDR floor) + fleet gain");
    let (acc, n) = fleet_analysis(scale);
    let caps = acc.feasible_capacity_ecdf();
    report.line(format!("links analysed: {n}"));
    for gbps in [100.0, 125.0, 150.0, 175.0, 200.0] {
        report.line(format!(
            "feasible ≥ {gbps:>5.0} Gbps: {:>5.1}% of links",
            100.0 * acc.fraction_feasible_at_least(Gbps(gbps))
        ));
    }
    let frac175 = acc.fraction_feasible_at_least(Gbps(175.0));
    report.line(format!(
        "paper headline: 80% of links ≥ 175 Gbps — measured {:.1}%",
        100.0 * frac175
    ));
    let gain = acc.total_gain();
    let scaled_gain_tbps = gain.as_tbps() * (2000.0 / n as f64);
    report.line(format!(
        "fleet capacity gain: {gain} over the 100 G static config ({scaled_gain_tbps:.0} Tbps \
         normalised to the paper's 2,000 links; paper: 145 Tbps)"
    ));
    report.csv(
        "fig2b_feasible_capacity_cdf.csv",
        series_csv("capacity_gbps,cdf", &caps.series(200)),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_calibration_matches_paper_shape() {
        let (acc, _) = fleet_analysis(Scale::Quick);
        // 83% ± 8% of links keep a sub-2 dB HDR.
        let frac = acc.fraction_hdr_below(Db(2.0));
        assert!((0.74..0.92).contains(&frac), "hdr<2dB fraction = {frac}");
        // Ranges must exceed HDR widths (rare deep events). At quick scale
        // (120 days) deep events are rare enough that the gap is modest;
        // at the full 2.5-year horizon the ratio exceeds 3x (see
        // EXPERIMENTS.md).
        assert!(acc.range_ecdf().mean() > 1.5 * acc.hdr_width_ecdf().mean());
    }

    #[test]
    fn fig2b_calibration_matches_paper_shape() {
        let (acc, n) = fleet_analysis(Scale::Quick);
        let frac = acc.fraction_feasible_at_least(Gbps(175.0));
        assert!((0.70..0.92).contains(&frac), "≥175G fraction = {frac}");
        // Normalised gain within ±25% of the paper's 145 Tbps.
        let scaled = acc.total_gain().as_tbps() * 2000.0 / n as f64;
        assert!((110.0..185.0).contains(&scaled), "gain = {scaled} Tbps");
    }

    #[test]
    fn reports_render() {
        let r = run_2a(Scale::Quick);
        assert!(r.render().contains("HDR"));
        assert_eq!(r.csv.len(), 2);
        let r = run_2b(Scale::Quick);
        assert!(r.render().contains("Tbps"));
    }
}
