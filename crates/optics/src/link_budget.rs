//! Span/EDFA link-budget model.
//!
//! Produces a *baseline* SNR for a wavelength from first-order physics:
//! a route is a chain of fiber spans, each span attenuates the signal and is
//! followed by an EDFA that restores the power while adding amplified
//! spontaneous emission (ASE) noise. With N identical spans the ASE
//! accumulates linearly, so OSNR drops by `10·log10(N)` relative to a single
//! span. We use the standard engineering form
//!
//! ```text
//! OSNR[dB] ≈ 58 + P_launch[dBm] − span_loss[dB] − NF[dB] − 10·log10(N)
//! ```
//!
//! (58 dB absorbs h·ν·B_ref at 1550 nm / 12.5 GHz) plus an optional
//! nonlinear-interference penalty that grows with launch power, giving the
//! familiar power-vs-OSNR hump.
//!
//! This is the physical grounding for `rwc-telemetry`'s synthetic traces:
//! link length (span count) determines the baseline SNR a wavelength sits
//! at, which in turn determines its feasible capacity — exactly the chain of
//! reasoning behind the paper's Fig. 2b.

use crate::snr::osnr_to_snr;
use rwc_util::units::Db;
use serde::{Deserialize, Serialize};

/// Parameters of one amplified optical line system.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkBudget {
    /// Length of each span in km.
    pub span_km: f64,
    /// Number of spans (EDFA hops) on the route.
    pub n_spans: u32,
    /// Per-channel launch power into each span, dBm.
    pub launch_dbm: f64,
    /// Fiber attenuation in dB/km (≈0.20 for modern SMF-28).
    pub attenuation_db_per_km: f64,
    /// EDFA noise figure in dB (typically 4.5–6).
    pub noise_figure_db: f64,
    /// Symbol rate used when converting OSNR to electrical SNR (GBd).
    pub baud_gbd: f64,
    /// Nonlinear-interference coefficient: dB of SNR penalty per dB of
    /// launch power above the 0 dBm reference, squared (set 0 to disable).
    pub nli_coeff: f64,
    /// Lumped implementation penalty (connectors, filtering, transceiver
    /// back-to-back), dB.
    pub implementation_penalty_db: f64,
}

impl LinkBudget {
    /// 58 dB ≈ −10·log10(h·ν·B_ref) − 30 at 1550 nm over 12.5 GHz: the
    /// constant in the engineering OSNR formula.
    pub(crate) const OSNR_CONSTANT_DB: f64 = 58.0;

    /// A typical terrestrial long-haul system: 80 km spans, 0 dBm launch,
    /// 0.2 dB/km fiber, 5.5 dB NF amplifiers, 32 GBd transceivers, mild
    /// nonlinearity and a 6 dB lumped implementation penalty (transceiver
    /// back-to-back, ROADM filtering cascade, PDL and aging allowances —
    /// sized so that reach-vs-rate crossovers land where the paper's
    /// threshold table puts them).
    pub fn terrestrial(n_spans: u32) -> Self {
        Self {
            span_km: 80.0,
            n_spans,
            launch_dbm: 0.0,
            attenuation_db_per_km: 0.20,
            noise_figure_db: 5.5,
            baud_gbd: crate::snr::DEFAULT_BAUD_GBD,
            nli_coeff: 0.15,
            implementation_penalty_db: 6.0,
        }
    }

    /// Builds the budget for a route of the given total length, using
    /// 80 km spans (rounded up, minimum one span).
    pub fn for_route_km(total_km: f64) -> Self {
        assert!(total_km > 0.0, "route length must be positive");
        let spans = (total_km / 80.0).ceil().max(1.0) as u32;
        Self::terrestrial(spans)
    }

    /// Loss of a single span, dB.
    pub(crate) fn span_loss_db(&self) -> f64 {
        self.span_km * self.attenuation_db_per_km
    }

    /// ASE-limited OSNR over the 0.1 nm reference bandwidth.
    pub fn osnr(&self) -> Db {
        assert!(self.n_spans > 0, "a route needs at least one span");
        Db(Self::OSNR_CONSTANT_DB + self.launch_dbm
            - self.span_loss_db()
            - self.noise_figure_db
            - 10.0 * (self.n_spans as f64).log10())
    }

    /// Electrical SNR after OSNR conversion, nonlinear penalty and
    /// implementation penalty — the number the paper's telemetry reports.
    pub fn snr(&self) -> Db {
        let linear = osnr_to_snr(self.osnr(), self.baud_gbd);
        let nli_penalty = self.nli_coeff * self.launch_dbm.max(0.0).powi(2);
        linear - Db(nli_penalty) - Db(self.implementation_penalty_db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modulation::ModulationTable;

    #[test]
    fn doubling_spans_costs_three_db_of_osnr() {
        let short = LinkBudget::terrestrial(4);
        let long = LinkBudget::terrestrial(8);
        let delta = short.osnr() - long.osnr();
        assert!((delta.value() - 10.0 * 2f64.log10()).abs() < 1e-9, "delta={delta}");
    }

    #[test]
    fn longer_routes_have_lower_snr() {
        let mut last = f64::INFINITY;
        for spans in [1, 2, 5, 10, 20, 40] {
            let snr = LinkBudget::terrestrial(spans).snr().value();
            assert!(snr < last, "spans={spans} snr={snr}");
            last = snr;
        }
    }

    #[test]
    fn metro_route_supports_200g() {
        // A short metro route (~160 km) should sit comfortably above the
        // 12.5 dB threshold for 200 G.
        let snr = LinkBudget::for_route_km(160.0).snr();
        assert!(
            ModulationTable::paper_default().supports(snr, crate::Modulation::Dp16Qam200),
            "snr={snr}"
        );
    }

    #[test]
    fn transcontinental_route_still_carries_100g() {
        // ~4000 km (50 spans): the default fleet rate of 100 G must hold —
        // this mirrors the paper's fleet where every link sustains 100 G.
        let snr = LinkBudget::for_route_km(4000.0).snr();
        let table = ModulationTable::paper_default();
        assert!(table.supports(snr, crate::Modulation::DpQpsk100), "snr={snr}");
        // ...but 200 G should NOT be feasible at that reach.
        assert!(!table.supports(snr, crate::Modulation::Dp16Qam200), "snr={snr}");
    }

    #[test]
    fn for_route_rounds_spans_up() {
        assert_eq!(LinkBudget::for_route_km(81.0).n_spans, 2);
        assert_eq!(LinkBudget::for_route_km(80.0).n_spans, 1);
        assert_eq!(LinkBudget::for_route_km(1.0).n_spans, 1);
    }

    #[test]
    fn launch_power_hump() {
        // SNR should rise with launch power in the ASE-limited regime, then
        // fall once nonlinearity dominates — the classic optimum.
        let snr_at = |p: f64| {
            let mut b = LinkBudget::terrestrial(10);
            b.launch_dbm = p;
            b.snr().value()
        };
        assert!(snr_at(1.0) > snr_at(-3.0), "ASE-limited side");
        assert!(snr_at(8.0) < snr_at(1.0), "NLI-limited side");
    }

    #[test]
    fn span_loss_and_length() {
        let b = LinkBudget::terrestrial(12);
        assert!((b.span_loss_db() - 16.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn zero_spans_rejected() {
        LinkBudget::terrestrial(0).osnr();
    }
}
