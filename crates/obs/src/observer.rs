//! The [`Observer`] trait and its two stock implementations.

use crate::event::Event;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The hook surface instrumented components call into.
///
/// Every method has an empty default body — but [`Observer::record_each`],
/// which hands each value to [`Observer::record`] — and
/// [`Observer::enabled`] defaults to `false`, so a no-op implementation
/// is literally the empty `impl`. Hot paths that would do work *before*
/// calling a hook (reading a clock, computing a delta, filling a batch)
/// guard it on `enabled()`; plain counter bumps just call through — the
/// virtual call to an empty body is the whole cost. A component that
/// produces many samples per unit of work publishes them once per unit
/// (the fleet kernel: once per link), not once per sample.
pub trait Observer: fmt::Debug + Send + Sync {
    /// Whether this observer records anything. Components skip
    /// measurement setup (clock reads, stat deltas) when `false`.
    fn enabled(&self) -> bool {
        false
    }

    /// Adds `by` to the counter `name` (a [`crate::names`] entry).
    fn incr(&self, name: &'static str, by: u64) {
        let _ = (name, by);
    }

    /// Sets the gauge `name` to `value`.
    ///
    /// Every value a snapshot holds is finite, so it survives JSON (which
    /// has no NaN or ∞): a collecting observer stores a NaN gauge as 0 and
    /// ±∞ as ±`f64::MAX`; a histogram ([`Observer::record`],
    /// [`Observer::record_each`]) keeps NaN and negatives as 0 and +∞ as
    /// `f64::MAX`.
    fn gauge(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records one `value` into the histogram `name`.
    fn record(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records every value of `values` into the histogram `name`, in
    /// order — what calling [`Observer::record`] once per value does, and
    /// the default does exactly that. A collecting observer overrides it
    /// to look `name` up once and publish the batch in one pass.
    fn record_each(&self, name: &'static str, values: &[f64]) {
        for &value in values {
            self.record(name, value);
        }
    }

    /// Delivers one pipeline event.
    fn event(&self, event: &Event) {
        let _ = event;
    }
}

/// The zero-cost default: records nothing, `enabled()` is `false`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopObserver;

impl Observer for NoopObserver {}

/// The shared no-op instance components default to — one allocation per
/// process, cloned as a cheap `Arc` bump.
pub fn noop() -> Arc<dyn Observer> {
    static NOOP: OnceLock<Arc<dyn Observer>> = OnceLock::new();
    NOOP.get_or_init(|| Arc::new(NoopObserver)).clone()
}

/// An [`Observer`] backed by a [`MetricsRegistry`]. Counters, gauges and
/// histograms land in the registry; each event increments its `events.*`
/// counter and is optionally forwarded to a secondary sink (the console
/// event echo).
#[derive(Debug, Default)]
pub struct MetricsObserver {
    registry: MetricsRegistry,
    forward: Option<Arc<dyn Observer>>,
}

impl MetricsObserver {
    /// A collecting observer over a fresh registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Like [`MetricsObserver::new`], but every event is also forwarded
    /// to `sink` after being counted.
    pub fn with_forward(sink: Arc<dyn Observer>) -> Self {
        Self { registry: MetricsRegistry::new(), forward: Some(sink) }
    }

    /// The backing registry (for [`MetricsRegistry::absorb`]-style
    /// merges).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Snapshot of everything collected so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

impl Observer for MetricsObserver {
    fn enabled(&self) -> bool {
        true
    }

    fn incr(&self, name: &'static str, by: u64) {
        self.registry.incr(name, by);
    }

    fn gauge(&self, name: &'static str, value: f64) {
        self.registry.gauge_set(name, value);
    }

    fn record(&self, name: &'static str, value: f64) {
        self.registry.record(name, value);
    }

    fn record_each(&self, name: &'static str, values: &[f64]) {
        self.registry.record_each(name, values);
    }

    fn event(&self, event: &Event) {
        self.registry.incr(event.counter_name(), 1);
        if let Some(sink) = &self.forward {
            sink.event(event);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_is_disabled_and_silent() {
        let o = NoopObserver;
        assert!(!o.enabled());
        o.incr("te.rounds", 1);
        o.event(&Event::WarmSolve { pivots: 1 });
        // Nothing to assert beyond "does not panic"; the shared instance
        // is the same story.
        assert!(!noop().enabled());
    }

    #[test]
    fn metrics_observer_counts_events() {
        let o = MetricsObserver::new();
        assert!(o.enabled());
        o.event(&Event::WarmSolve { pivots: 4 });
        o.event(&Event::WarmSolve { pivots: 2 });
        o.event(&Event::ColdFallback { pivots: 60, reason: crate::ColdReason::NoBasis });
        let s = o.snapshot();
        assert_eq!(s.counters["events.warm_solve"], 2);
        assert_eq!(s.counters["events.cold_fallback"], 1);
    }

    #[test]
    fn forwarding_reaches_the_secondary_sink() {
        #[derive(Debug)]
        struct Counting(std::sync::atomic::AtomicU64);
        impl Observer for Counting {
            fn event(&self, _: &Event) {
                self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }
        let sink = Arc::new(Counting(std::sync::atomic::AtomicU64::new(0)));
        let o = MetricsObserver::with_forward(sink.clone());
        o.event(&Event::Quarantine { link: 3, until_millis: 99 });
        assert_eq!(sink.0.load(std::sync::atomic::Ordering::Relaxed), 1);
        assert_eq!(o.snapshot().counters["events.quarantine"], 1);
    }

    /// Edge values for the histogram path: NaN, negatives and zeros clamp
    /// into the catch-all bucket, huge values saturate the last one.
    const EDGE: [f64; 12] =
        [3.0, f64::NAN, -7.5, 0.0, -0.0, 0.4, 1.0, 1e300, f64::INFINITY, f64::MAX, 2.5e19, 17.0];

    #[test]
    fn record_each_equals_repeated_record() {
        let batched = MetricsObserver::new();
        let single = MetricsObserver::new();
        for values in [&EDGE[..], &[], &[12.0, 12.0, 90.0], &[f64::NAN], &[-1.0, 0.0]] {
            batched.record_each("fleet.episode_ticks", values);
            for &v in values {
                single.record("fleet.episode_ticks", v);
            }
            let (b, s) = (batched.snapshot(), single.snapshot());
            assert_eq!(b, s);
            assert_eq!(b.to_json(), s.to_json());
        }
        assert_eq!(batched.snapshot().histograms["fleet.episode_ticks"].count, 18);
    }

    #[test]
    fn non_finite_values_leave_a_snapshot_json_can_read() {
        let o = MetricsObserver::new();
        let odd = [f64::INFINITY, f64::NAN, f64::NEG_INFINITY];
        for v in odd {
            o.record("te.solve_micros", v);
        }
        o.record_each("fleet.episode_ticks", &odd);
        o.gauge("te.warm_hit_rate", f64::NAN);
        o.gauge("scenario.availability", f64::INFINITY);
        o.gauge("scenario.degraded_share", f64::NEG_INFINITY);
        let s = o.snapshot();
        for h in ["te.solve_micros", "fleet.episode_ticks"] {
            assert_eq!((s.histograms[h].min, s.histograms[h].max), (0.0, f64::MAX), "{h}");
        }
        assert_eq!(s.gauges["te.warm_hit_rate"], 0.0);
        assert_eq!(s.gauges["scenario.availability"], f64::MAX);
        assert_eq!(s.gauges["scenario.degraded_share"], f64::MIN);
        let back: MetricsSnapshot =
            serde_json::from_str(&s.to_json()).expect("snapshot deserializes");
        assert_eq!(back, s);
    }

    #[test]
    fn default_record_each_hands_every_value_on_in_order() {
        #[derive(Debug, Default)]
        struct Recording(std::sync::Mutex<Vec<(&'static str, u64)>>);
        impl Observer for Recording {
            fn record(&self, name: &'static str, value: f64) {
                self.0.lock().unwrap().push((name, value.to_bits()));
            }
        }
        let o = Recording::default();
        o.record_each("fleet.episode_ticks", &EDGE);
        o.record_each("te.solve_micros", &[]);
        o.record_each("te.solve_micros", &[5.0, 4.0]);
        let expected: Vec<(&str, u64)> = EDGE
            .iter()
            .map(|v| ("fleet.episode_ticks", v.to_bits()))
            .chain([5.0f64, 4.0].map(|v| ("te.solve_micros", v.to_bits())))
            .collect();
        assert_eq!(*o.0.lock().unwrap(), expected);
    }
}
