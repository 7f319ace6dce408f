//! Reliability metrics of a replayed corpus: MTBF, MTTR, availability.
//!
//! The operator-facing summary of §2.2: how often links fail (mean time
//! between failures), how long repairs take (mean time to repair), and the
//! steady-state availability `MTBF / (MTBF + MTTR)` — for the binary
//! policy and for the dynamic policy where flap-able events don't count as
//! failures at all. [`AvailabilityReport::replay`] sorts the events and
//! sums their outage time once; its `binary_mtbf_mttr` and
//! `dynamic_mtbf_mttr` turn those sums into the figures here.
//!
//! [`AvailabilityReport::replay`]: crate::AvailabilityReport::replay

use rwc_util::time::SimDuration;

/// Per-link `(MTBF, MTTR, MTBF / (MTBF + MTTR))` of `failures` outages
/// lasting `repair_hours` in all, across `n_links` links observed over
/// `window`.
pub(crate) fn mtbf_mttr(
    failures: usize,
    repair_hours: f64,
    window: SimDuration,
    n_links: usize,
) -> (SimDuration, SimDuration, f64) {
    assert!(n_links > 0, "no links");
    assert!(window > SimDuration::ZERO, "empty window");
    if failures == 0 {
        return (window * n_links as u64, SimDuration::ZERO, 1.0);
    }
    let total_link_time = window.as_hours_f64() * n_links as f64;
    let uptime = (total_link_time - repair_hours).max(0.0);
    let mtbf_h = uptime / failures as f64;
    let mttr_h = repair_hours / failures as f64;
    (
        SimDuration::from_hours_f64(mtbf_h),
        SimDuration::from_hours_f64(mttr_h),
        mtbf_h / (mtbf_h + mttr_h),
    )
}

/// Converts an availability fraction into "nines" (0.999 → 3.0).
pub fn nines(availability: f64) -> f64 {
    assert!((0.0..=1.0).contains(&availability), "availability out of [0,1]");
    if availability >= 1.0 {
        f64::INFINITY
    } else {
        -(1.0 - availability).log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TicketConfig, TicketGenerator};
    use crate::rootcause::RootCause;
    use crate::ticket::FailureTicket;
    use crate::AvailabilityReport;
    use rwc_optics::ModulationTable;
    use rwc_util::time::SimTime;
    use rwc_util::units::{Db, Gbps};

    fn ticket(hours: u64, snr: f64) -> FailureTicket {
        FailureTicket {
            id: 0,
            root_cause: RootCause::HardwareFailure,
            link_id: 0,
            start: SimTime::EPOCH,
            duration: SimDuration::from_hours(hours),
            lowest_snr: Db(snr),
        }
    }

    fn replay(tickets: &[FailureTicket]) -> AvailabilityReport {
        AvailabilityReport::replay(tickets, &ModulationTable::paper_default(), Gbps(100.0))
    }

    #[test]
    fn hand_computed_mtbf_mttr() {
        // 1 link, 100 h window, two 10 h outages: uptime 80 h.
        let r = replay(&[ticket(10, 0.1), ticket(10, 0.2)]);
        assert_eq!(r.total_events, 2);
        let (mtbf, mttr, availability) = r.binary_mtbf_mttr(SimDuration::from_hours(100), 1);
        assert!((mtbf.as_hours_f64() - 40.0).abs() < 1e-9);
        assert!((mttr.as_hours_f64() - 10.0).abs() < 1e-9);
        assert!((availability - 0.8).abs() < 1e-9);
    }

    #[test]
    fn dynamic_discounts_flapable_events() {
        // One hard outage (0.1 dB) and one flap-able event (4 dB).
        let r = replay(&[ticket(10, 0.1), ticket(10, 4.0)]);
        let window = SimDuration::from_hours(100);
        let (binary_mtbf, _, binary) = r.binary_mtbf_mttr(window, 1);
        let (dynamic_mtbf, _, dynamic) = r.dynamic_mtbf_mttr(window, 1);
        assert_eq!(r.total_events, 2);
        assert_eq!(r.hard_outages, 1);
        assert!(dynamic > binary);
        assert!(dynamic_mtbf > binary_mtbf);
    }

    #[test]
    fn no_failures_is_perfect() {
        // A single flap-able event: no failure under the dynamic policy.
        let r = replay(&[ticket(10, 4.0)]);
        let window = SimDuration::from_days(30);
        let (mtbf, mttr, availability) = r.dynamic_mtbf_mttr(window, 10);
        assert_eq!(r.hard_outages, 0);
        assert_eq!((mtbf, mttr, availability), (window * 10, SimDuration::ZERO, 1.0));
        assert_eq!(nines(availability), f64::INFINITY);
    }

    #[test]
    fn nines_scale() {
        assert!((nines(0.999) - 3.0).abs() < 1e-9);
        assert!((nines(0.99999) - 5.0).abs() < 1e-9);
        assert!((nines(0.5) - 0.301).abs() < 1e-3);
    }

    #[test]
    fn paper_corpus_gains_fraction_of_a_nine() {
        let cfg = TicketConfig::paper();
        let r = replay(&TicketGenerator::new(cfg.clone()).generate());
        let (_, _, binary) = r.binary_mtbf_mttr(cfg.window, cfg.n_links);
        let (_, _, dynamic) = r.dynamic_mtbf_mttr(cfg.window, cfg.n_links);
        assert!(binary > 0.999, "fleet-wide: {binary}");
        assert!(nines(dynamic) > nines(binary), "dynamic {dynamic} vs binary {binary}");
        // A visible fraction of events is discounted.
        assert!(r.hard_outages < r.total_events * 9 / 10);
    }
}
