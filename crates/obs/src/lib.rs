//! Runtime observability for the BVT → controller → TE pipeline.
//!
//! The paper's case for dynamic capacity rests on *measuring* the fleet
//! (§2–3): SNR stability, failure episodes, reconfiguration latency. This
//! crate is the production-telemetry counterpart for the reproduction —
//! a lock-free [`MetricsRegistry`] (atomic counters, gauges, log-linear
//! histograms with p50/p99 snapshots), lightweight [`Span`] timing, and a
//! typed [`Event`] stream, all behind the [`Observer`] trait.
//!
//! The default observer is [`NoopObserver`]: every hook method is an
//! empty default body, `enabled()` is `false`, and instrumented hot paths
//! guard their bookkeeping on it, so a pipeline built without an observer
//! pays a virtual call that inlines to nothing (`benchmark/` reports the
//! cost of the *enabled* mode, spans included, as
//! `obs.trace_overhead_share`; disabled mode costs less than that).
//!
//! Attach a [`MetricsObserver`] to collect: counters and histograms land
//! in its registry, every event increments an `events.*` counter, and
//! [`MetricsObserver::snapshot`] renders a deterministic, serializable
//! [`MetricsSnapshot`] (`repro --obs-json OBS.json`). Per-worker
//! registries merge deterministically — counter and bucket addition
//! commutes — so parallel sweeps aggregate into the same snapshot as a
//! sequential run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod names;
pub mod observer;
pub mod sink;
pub mod span;

pub use event::{ColdReason, Event, FaultDomain};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use observer::{noop, MetricsObserver, NoopObserver, Observer};
pub use sink::ConsoleSink;
pub use span::Span;
