//! The [`Observer`] trait and its two stock implementations.

use crate::event::Event;
use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// The hook surface instrumented components call into.
///
/// Every method has an empty default body and [`Observer::enabled`]
/// defaults to `false`, so a no-op implementation is literally the empty
/// `impl`. Hot paths that would do work *before* calling a hook (reading
/// a clock, computing a delta) guard it on `enabled()`; plain counter
/// bumps just call through — the virtual call to an empty body is the
/// whole cost.
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
    fn gauge(&self, name: &'static str, value: f64) {
        let _ = (name, value);
    }

    /// Records one `value` into the histogram `name`.
    fn record(&self, name: &'static str, value: f64) {
        let _ = (name, value);
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
}
