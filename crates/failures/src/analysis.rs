//! Ticket-corpus analysis: the paper's Fig. 4.
//!
//! Three views of the same corpus:
//!
//! - **duration share** per root cause (Fig. 4a): which causes cost the
//!   most outage time;
//! - **event share** per root cause (Fig. 4b): which causes fire most
//!   often;
//! - **SNR-floor distribution** (Fig. 4c): how far links actually fell
//!   during failures, which bounds how much capacity a dynamic link could
//!   have salvaged.

use crate::rootcause::RootCause;
use crate::ticket::FailureTicket;
use rwc_util::stats::{percentage_shares, Ecdf};
use rwc_util::units::Db;

/// Aggregated corpus statistics.
#[derive(Debug, Clone)]
pub struct TicketAnalysis {
    /// Per-cause event counts, parallel to [`RootCause::ALL`].
    pub event_counts: [usize; 4],
    /// Per-cause total outage hours, parallel to [`RootCause::ALL`].
    pub outage_hours: [f64; 4],
    /// All SNR floors, dB.
    floors: Vec<f64>,
    total_events: usize,
}

impl TicketAnalysis {
    /// Analyses a corpus. Panics on an empty corpus.
    pub fn new(tickets: &[FailureTicket]) -> Self {
        assert!(!tickets.is_empty(), "empty ticket corpus");
        let mut event_counts = [0usize; 4];
        let mut outage_hours = [0f64; 4];
        let mut floors = Vec::with_capacity(tickets.len());
        for t in tickets {
            let idx = RootCause::ALL.iter().position(|&c| c == t.root_cause).unwrap();
            event_counts[idx] += 1;
            outage_hours[idx] += t.duration.as_hours_f64();
            floors.push(t.lowest_snr.value());
        }
        Self {
            event_counts,
            outage_hours,
            floors,
            total_events: tickets.len(),
        }
    }

    /// Fig. 4b: percentage of events per cause, parallel to
    /// [`RootCause::ALL`].
    pub fn event_shares_percent(&self) -> Vec<f64> {
        percentage_shares(&self.event_counts.map(|c| c as f64))
    }

    /// Fig. 4a: percentage of total outage duration per cause.
    pub fn duration_shares_percent(&self) -> Vec<f64> {
        percentage_shares(&self.outage_hours)
    }

    /// Fig. 4c: ECDF of the lowest SNR during failure events.
    pub fn floor_ecdf(&self) -> Ecdf {
        Ecdf::new(self.floors.clone())
    }

    /// Share of events (0..1) whose floor stayed at or above `floor` — the
    /// fraction of failures a dynamic link could have survived at the
    /// capacity feasible at `floor`.
    pub fn fraction_floor_at_least(&self, floor: Db) -> f64 {
        self.floors.iter().filter(|&&f| f >= floor.value()).count() as f64
            / self.total_events as f64
    }

    /// Share of events (0..1) *not* caused by fiber cuts — the paper's
    /// ">90% of failure events present an opportunity".
    pub fn fraction_non_fiber_cut(&self) -> f64 {
        let cut_idx = RootCause::ALL.iter().position(|&c| c == RootCause::FiberCut).unwrap();
        1.0 - self.event_counts[cut_idx] as f64 / self.total_events as f64
    }

    /// Total events analysed.
    pub fn total_events(&self) -> usize {
        self.total_events
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{TicketConfig, TicketGenerator};
    use rwc_util::time::{SimDuration, SimTime};

    fn ticket(cause: RootCause, hours: u64, snr: f64) -> FailureTicket {
        FailureTicket {
            id: 0,
            root_cause: cause,
            link_id: 0,
            start: SimTime::EPOCH,
            duration: SimDuration::from_hours(hours),
            lowest_snr: Db(snr),
        }
    }

    #[test]
    fn shares_on_handmade_corpus() {
        let corpus = vec![
            ticket(RootCause::MaintenanceCoincident, 2, 4.0),
            ticket(RootCause::FiberCut, 10, 0.2),
            ticket(RootCause::HardwareFailure, 5, 1.0),
            ticket(RootCause::HardwareFailure, 3, 3.5),
        ];
        let a = TicketAnalysis::new(&corpus);
        assert_eq!(a.event_counts, [1, 1, 2, 0]);
        let ev = a.event_shares_percent();
        assert!((ev[2] - 50.0).abs() < 1e-9);
        let dur = a.duration_shares_percent();
        assert!((dur[1] - 50.0).abs() < 1e-9, "fiber cut 10 of 20 hours");
        assert!((a.fraction_non_fiber_cut() - 0.75).abs() < 1e-12);
        assert!((a.fraction_floor_at_least(Db(3.0)) - 0.5).abs() < 1e-12);
        assert_eq!(a.total_events(), 4);
    }

    #[test]
    fn paper_corpus_matches_fig4() {
        let tickets = TicketGenerator::new(TicketConfig {
            n_events: 20_000,
            ..TicketConfig::paper()
        })
        .generate();
        let a = TicketAnalysis::new(&tickets);
        let ev = a.event_shares_percent();
        // Fig. 4b: maintenance ~25%, fiber cuts ~5%.
        assert!((ev[0] - 25.0).abs() < 2.0, "maintenance events {ev:?}");
        assert!((ev[1] - 5.0).abs() < 1.0, "fiber-cut events {ev:?}");
        let dur = a.duration_shares_percent();
        // Fig. 4a: maintenance ~20% of outage time, fiber cuts ~10%.
        assert!((dur[0] - 20.0).abs() < 4.0, "maintenance duration {dur:?}");
        assert!((dur[1] - 10.0).abs() < 3.0, "fiber-cut duration {dur:?}");
        // Fiber cuts cost more duration-share than event-share.
        assert!(dur[1] > ev[1]);
        // >90% of events are not fiber cuts.
        assert!(a.fraction_non_fiber_cut() > 0.90);
        // ~25% of events could run at 50 G.
        let frac = a.fraction_floor_at_least(Db(3.0));
        assert!((0.20..0.40).contains(&frac), "frac={frac}");
    }

    #[test]
    fn floor_ecdf_support() {
        let tickets = TicketGenerator::new(TicketConfig {
            n_events: 2_000,
            ..TicketConfig::paper()
        })
        .generate();
        let analysis = TicketAnalysis::new(&tickets);
        let ecdf = analysis.floor_ecdf();
        // Fig. 4c's x-axis spans 0..6.5 dB.
        assert!(ecdf.min() >= 0.0);
        assert!(ecdf.max() < 6.5);
        // A visible mass of hard-down events near the floor.
        assert!(ecdf.cdf(0.5) > 0.2);
    }

    #[test]
    #[should_panic]
    fn rejects_empty() {
        TicketAnalysis::new(&[]);
    }
}
