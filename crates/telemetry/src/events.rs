//! Ground-truth event schedules for synthetic traces.
//!
//! Each link's SNR series is shaped by a sparse list of events. Keeping the
//! schedule explicit (rather than baked into the samples) gives the failure
//! analyses a ground truth to validate against: every loss-of-light event
//! must be detected as a 100 G failure, every shallow dip must not, etc.

use rwc_util::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// What kind of impairment an event is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// Transient SNR dip of the given depth (dB) — amplifier trouble,
    /// maintenance-coincident impairment, transient loss.
    Dip {
        /// SNR reduction while the event is active, dB.
        depth_db: f64,
    },
    /// Persistent degradation of the given magnitude until repaired —
    /// component aging, partial hardware failure.
    Step {
        /// SNR reduction while the event is active, dB.
        delta_db: f64,
    },
    /// Complete loss of light: the receiver reads the noise floor.
    LossOfLight,
}

/// One scheduled impairment on a link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Kind and magnitude.
    pub kind: EventKind,
    /// Onset.
    pub start: SimTime,
    /// How long the impairment lasts.
    pub duration: SimDuration,
}

impl Event {
    /// End of the event (exclusive).
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }

    /// Whether the event is active at time `t`.
    pub(crate) fn active_at(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end()
    }

    /// SNR contribution at time `t`: a negative dB offset, or `None` when
    /// the event forces loss-of-light.
    pub fn snr_effect_at(&self, t: SimTime) -> Option<f64> {
        if !self.active_at(t) {
            return Some(0.0);
        }
        match self.kind {
            EventKind::Dip { depth_db } => Some(-depth_db),
            EventKind::Step { delta_db } => Some(-delta_db),
            EventKind::LossOfLight => None,
        }
    }
}

/// The full, ordered schedule of events for one link.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct EventLog {
    events: Vec<Event>,
}

impl EventLog {
    /// An empty schedule.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an event (kept sorted by start time).
    pub fn push(&mut self, event: Event) {
        let idx = self.events.partition_point(|e| e.start <= event.start);
        self.events.insert(idx, event);
    }

    /// All events, ordered by start.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Merges another log into this one.
    pub fn extend(&mut self, other: &EventLog) {
        for &e in other.events() {
            self.push(e);
        }
    }

    /// Combined SNR effect at `t`: total negative offset in dB, or `None`
    /// if any active event is a loss-of-light.
    pub fn snr_effect_at(&self, t: SimTime) -> Option<f64> {
        let mut total = 0.0;
        for e in &self.events {
            total += e.snr_effect_at(t)?;
        }
        Some(total)
    }

    /// Events of a given kind predicate (e.g. all loss-of-light events).
    pub fn filter<F: Fn(&Event) -> bool>(&self, pred: F) -> Vec<Event> {
        self.events.iter().copied().filter(|e| pred(e)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hours(h: u64) -> SimDuration {
        SimDuration::from_hours(h)
    }

    fn at(h: u64) -> SimTime {
        SimTime::EPOCH + hours(h)
    }

    #[test]
    fn event_window() {
        let e = Event { kind: EventKind::Dip { depth_db: 3.0 }, start: at(10), duration: hours(2) };
        assert!(!e.active_at(at(9)));
        assert!(e.active_at(at(10)));
        assert!(e.active_at(at(11)));
        assert!(!e.active_at(at(12)), "end is exclusive");
        assert_eq!(e.end(), at(12));
    }

    #[test]
    fn dip_and_step_effects() {
        let dip = Event { kind: EventKind::Dip { depth_db: 3.0 }, start: at(0), duration: hours(1) };
        assert_eq!(dip.snr_effect_at(at(0)), Some(-3.0));
        assert_eq!(dip.snr_effect_at(at(2)), Some(0.0));
        let step =
            Event { kind: EventKind::Step { delta_db: 1.5 }, start: at(0), duration: hours(100) };
        assert_eq!(step.snr_effect_at(at(50)), Some(-1.5));
    }

    #[test]
    fn loss_of_light_dominates() {
        let mut log = EventLog::new();
        log.push(Event { kind: EventKind::Dip { depth_db: 2.0 }, start: at(0), duration: hours(5) });
        log.push(Event { kind: EventKind::LossOfLight, start: at(1), duration: hours(2) });
        assert_eq!(log.snr_effect_at(at(0)), Some(-2.0));
        assert_eq!(log.snr_effect_at(at(1)), None, "LOL overrides any offset");
        assert_eq!(log.snr_effect_at(at(4)), Some(-2.0));
    }

    #[test]
    fn overlapping_effects_sum() {
        let mut log = EventLog::new();
        log.push(Event { kind: EventKind::Dip { depth_db: 2.0 }, start: at(0), duration: hours(4) });
        log.push(Event { kind: EventKind::Step { delta_db: 1.0 }, start: at(2), duration: hours(4) });
        assert_eq!(log.snr_effect_at(at(1)), Some(-2.0));
        assert_eq!(log.snr_effect_at(at(3)), Some(-3.0));
        assert_eq!(log.snr_effect_at(at(5)), Some(-1.0));
        assert_eq!(log.snr_effect_at(at(7)), Some(0.0));
    }

    #[test]
    fn log_stays_sorted() {
        let mut log = EventLog::new();
        log.push(Event { kind: EventKind::LossOfLight, start: at(5), duration: hours(1) });
        log.push(Event { kind: EventKind::LossOfLight, start: at(1), duration: hours(1) });
        log.push(Event { kind: EventKind::LossOfLight, start: at(3), duration: hours(1) });
        let starts: Vec<_> = log.events().iter().map(|e| e.start).collect();
        assert_eq!(starts, vec![at(1), at(3), at(5)]);
    }

    #[test]
    fn extend_merges_sorted() {
        let mut a = EventLog::new();
        a.push(Event { kind: EventKind::LossOfLight, start: at(4), duration: hours(1) });
        let mut b = EventLog::new();
        b.push(Event { kind: EventKind::LossOfLight, start: at(2), duration: hours(1) });
        a.extend(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.events()[0].start, at(2));
    }

    #[test]
    fn filter_by_kind() {
        let mut log = EventLog::new();
        log.push(Event { kind: EventKind::LossOfLight, start: at(0), duration: hours(1) });
        log.push(Event { kind: EventKind::Dip { depth_db: 2.0 }, start: at(2), duration: hours(1) });
        let lols = log.filter(|e| matches!(e.kind, EventKind::LossOfLight));
        assert_eq!(lols.len(), 1);
    }
}
