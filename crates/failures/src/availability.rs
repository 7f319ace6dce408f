//! Availability with and without dynamic capacity links.
//!
//! §2.2's conclusion: a binary up/down link turns *every* ticket into an
//! outage, but a dynamic-capacity link survives any event whose SNR floor
//! still clears some rung of the ladder, taking a capacity "flap" instead
//! of a failure. This module replays a ticket corpus under both policies
//! and reports the difference.

use crate::reliability::mtbf_mttr;
use crate::ticket::FailureTicket;
use rwc_optics::ModulationTable;
use rwc_util::time::SimDuration;
use rwc_util::units::Gbps;
use serde::{Deserialize, Serialize};

/// Outcome of replaying a corpus under binary vs dynamic link policies.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AvailabilityReport {
    /// Events analysed.
    pub total_events: usize,
    /// Events that remain hard outages even with dynamic capacity (SNR
    /// floor below the slowest rung).
    pub hard_outages: usize,
    /// Events converted from outage to a degraded-capacity flap.
    pub converted_to_flaps: usize,
    /// Outage time under the binary policy.
    pub binary_outage: SimDuration,
    /// Outage time under the dynamic policy (only hard outages count).
    pub dynamic_outage: SimDuration,
    /// Capacity-weighted delivered fraction during events under the dynamic
    /// policy: 1.0 would mean no capacity was lost at all. Uses the rate
    /// feasible at each event's floor, relative to the 100 G static rate.
    pub delivered_fraction_during_events: f64,
    /// `binary_outage` and `dynamic_outage` in hours, summed event by event
    /// (the repair time MTBF and MTTR divide up).
    binary_outage_hours: f64,
    dynamic_outage_hours: f64,
}

impl AvailabilityReport {
    /// Replays a corpus against a modulation table.
    ///
    /// `static_rate` is the fleet's fixed rate (the paper's 100 Gbps); a
    /// flap delivers `feasible_capacity(floor)` of it for the event's
    /// duration.
    pub fn replay(
        tickets: &[FailureTicket],
        table: &ModulationTable,
        static_rate: Gbps,
    ) -> Self {
        assert!(!tickets.is_empty(), "empty ticket corpus");
        assert!(static_rate > Gbps::ZERO);
        let mut hard = 0usize;
        let mut flaps = 0usize;
        let mut binary = SimDuration::ZERO;
        let mut dynamic = SimDuration::ZERO;
        let mut delivered_x_hours = 0.0;
        let mut total_hours = 0.0;
        let mut hard_hours = 0.0;
        for t in tickets {
            binary += t.duration;
            total_hours += t.duration.as_hours_f64();
            let salvage = table.feasible_capacity(t.lowest_snr).min(static_rate);
            if salvage > Gbps::ZERO {
                flaps += 1;
                delivered_x_hours += (salvage / static_rate) * t.duration.as_hours_f64();
            } else {
                hard += 1;
                dynamic += t.duration;
                hard_hours += t.duration.as_hours_f64();
            }
        }
        Self {
            total_events: tickets.len(),
            hard_outages: hard,
            converted_to_flaps: flaps,
            binary_outage: binary,
            dynamic_outage: dynamic,
            delivered_fraction_during_events: delivered_x_hours / total_hours,
            binary_outage_hours: total_hours,
            dynamic_outage_hours: hard_hours,
        }
    }

    /// Fraction of failure events avoided (turned into flaps), 0..1.
    pub fn events_avoided_fraction(&self) -> f64 {
        self.converted_to_flaps as f64 / self.total_events as f64
    }

    /// Fraction of outage *time* avoided, 0..1.
    pub fn outage_time_avoided_fraction(&self) -> f64 {
        1.0 - self.dynamic_outage.as_secs_f64() / self.binary_outage.as_secs_f64()
    }

    /// Availability over a window under the binary policy, as a fraction
    /// (e.g. 0.999). Assumes events are serialised on one link-population
    /// of the given size.
    pub fn binary_availability(&self, window: SimDuration, n_links: usize) -> f64 {
        availability(self.binary_outage, window, n_links)
    }

    /// Availability over a window under the dynamic policy.
    pub fn dynamic_availability(&self, window: SimDuration, n_links: usize) -> f64 {
        availability(self.dynamic_outage, window, n_links)
    }

    /// Per-link `(MTBF, MTTR, MTBF / (MTBF + MTTR))` over a window under
    /// the binary policy, where every event is a failure.
    pub fn binary_mtbf_mttr(
        &self,
        window: SimDuration,
        n_links: usize,
    ) -> (SimDuration, SimDuration, f64) {
        mtbf_mttr(self.total_events, self.binary_outage_hours, window, n_links)
    }

    /// Per-link `(MTBF, MTTR, MTBF / (MTBF + MTTR))` over a window under
    /// the dynamic policy, where only hard outages are failures.
    pub fn dynamic_mtbf_mttr(
        &self,
        window: SimDuration,
        n_links: usize,
    ) -> (SimDuration, SimDuration, f64) {
        mtbf_mttr(self.hard_outages, self.dynamic_outage_hours, window, n_links)
    }
}

fn availability(outage: SimDuration, window: SimDuration, n_links: usize) -> f64 {
    assert!(n_links > 0 && window > SimDuration::ZERO);
    let total = window.as_secs_f64() * n_links as f64;
    1.0 - outage.as_secs_f64() / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TicketConfig, TicketGenerator};
    use crate::rootcause::RootCause;
    use rwc_util::time::SimTime;
    use rwc_util::units::Db;

    fn ticket(snr: f64, hours: u64) -> FailureTicket {
        FailureTicket {
            id: 0,
            root_cause: RootCause::HardwareFailure,
            link_id: 0,
            start: SimTime::EPOCH,
            duration: SimDuration::from_hours(hours),
            lowest_snr: Db(snr),
        }
    }

    #[test]
    fn conversion_logic() {
        let table = ModulationTable::paper_default();
        // floors: 4.0 dB → 50 G flap; 0.2 dB → hard outage.
        let corpus = vec![ticket(4.0, 10), ticket(0.2, 5)];
        let r = AvailabilityReport::replay(&corpus, &table, Gbps(100.0));
        assert_eq!(r.converted_to_flaps, 1);
        assert_eq!(r.hard_outages, 1);
        assert_eq!(r.binary_outage, SimDuration::from_hours(15));
        assert_eq!(r.dynamic_outage, SimDuration::from_hours(5));
        assert!((r.events_avoided_fraction() - 0.5).abs() < 1e-12);
        assert!((r.outage_time_avoided_fraction() - 2.0 / 3.0).abs() < 1e-12);
        // Delivered: 50/100 for 10 h out of 15 h of events = 1/3.
        assert!((r.delivered_fraction_during_events - 10.0 * 0.5 / 15.0).abs() < 1e-12);
    }

    #[test]
    fn salvage_capped_at_static_rate() {
        // A floor of 12.6 dB would allow 200 G, but the link only ever
        // carried 100 G: delivered fraction must cap at 1.
        let table = ModulationTable::paper_default();
        let corpus = vec![ticket(6.4, 4)];
        let r = AvailabilityReport::replay(&corpus, &table, Gbps(100.0));
        assert!(r.delivered_fraction_during_events <= 1.0);
        assert_eq!(r.converted_to_flaps, 1);
    }

    #[test]
    fn paper_corpus_quarter_avoided() {
        let tickets =
            TicketGenerator::new(TicketConfig { n_events: 20_000, ..TicketConfig::paper() })
                .generate();
        let table = ModulationTable::paper_default();
        let r = AvailabilityReport::replay(&tickets, &table, Gbps(100.0));
        // Events with floor >= 3 dB flap at 50 G: the paper's ~25%.
        let avoided = r.events_avoided_fraction();
        assert!((0.20..0.40).contains(&avoided), "avoided={avoided}");
        assert!(r.outage_time_avoided_fraction() > 0.1);
        assert!(r.dynamic_outage < r.binary_outage);
    }

    #[test]
    fn availability_nines() {
        let table = ModulationTable::paper_default();
        // 9 hours with a 4 dB floor: binary policy goes dark, dynamic
        // policy flaps to 50 G and never counts as an outage.
        let corpus = vec![ticket(4.0, 9)];
        let r = AvailabilityReport::replay(&corpus, &table, Gbps(100.0));
        // One link over ~1 year: 9h/8760h ≈ 0.1% unavailability.
        let window = SimDuration::from_days(365);
        let a = r.binary_availability(window, 1);
        assert!((a - (1.0 - 9.0 / 8760.0)).abs() < 1e-9);
        assert_eq!(r.dynamic_availability(window, 1), 1.0);
    }
}
