//! The failure ticket record.

use crate::rootcause::RootCause;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::Db;
use serde::{Deserialize, Serialize};

/// One unplanned failure event, as a field operator would file it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailureTicket {
    /// Ticket number.
    pub id: u32,
    /// Diagnosed root cause.
    pub root_cause: RootCause,
    /// Which link failed (fleet link id).
    pub link_id: usize,
    /// Onset of the outage.
    pub start: SimTime,
    /// Outage duration (until the link was restored at full rate).
    pub duration: SimDuration,
    /// The lowest SNR the link's receiver reported during the event — the
    /// paper's Fig. 4c metric. Near the noise floor (≲0.5 dB) for severed
    /// or dead paths; several dB for degraded-but-alive signals.
    pub lowest_snr: Db,
}

impl FailureTicket {
    /// End of the outage.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Whether the signal stayed alive (degraded) rather than going dark.
    ///
    /// The paper's opportunity analysis: an event whose floor clears the
    /// 50 Gbps threshold (3.0 dB) could have been a capacity flap instead
    /// of an outage.
    #[cfg(test)]
    pub(crate) fn signal_survived(&self, floor: Db) -> bool {
        self.lowest_snr >= floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ticket(snr: f64) -> FailureTicket {
        FailureTicket {
            id: 1,
            root_cause: RootCause::HardwareFailure,
            link_id: 42,
            start: SimTime::EPOCH + SimDuration::from_hours(10),
            duration: SimDuration::from_hours(5),
            lowest_snr: Db(snr),
        }
    }

    #[test]
    fn end_time() {
        let t = ticket(4.0);
        assert_eq!(t.end(), SimTime::EPOCH + SimDuration::from_hours(15));
    }

    #[test]
    fn survival_threshold() {
        assert!(ticket(4.0).signal_survived(Db(3.0)));
        assert!(ticket(3.0).signal_survived(Db(3.0)));
        assert!(!ticket(0.2).signal_survived(Db(3.0)));
    }

    #[test]
    fn serde_round_trip() {
        let t = ticket(2.5);
        let json = serde_json::to_string(&t).unwrap();
        let back: FailureTicket = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
