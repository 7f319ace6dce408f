//! # rwc-faults
//!
//! Deterministic, seeded fault injection for the *Run, Walk, Crawl*
//! reproduction.
//!
//! The paper's argument — flap capacity instead of failing links — only
//! matters because real optical WANs misbehave: transceivers fail to
//! relock, management buses time out, telemetry goes stale, TE solvers
//! blow their deadline. This crate describes those misbehaviours as a
//! declarative [`FaultPlan`] (*what* fails, *where*, *when*, for *how
//! long*) that the simulation pipeline interprets:
//!
//! - **BVT faults** ([`BvtFault`], re-exported from `rwc-optics`) are
//!   armed on the per-link transceiver model and trip the next
//!   reconfiguration or MDIO transaction;
//! - **telemetry faults** ([`TelemetryFault`]) drop, freeze or corrupt
//!   the SNR samples the controller sees;
//! - **TE faults** ([`TeFault`]) abort or time out a traffic-engineering
//!   round, exercising the last-feasible-solution fallback;
//! - **optical faults** ([`OpticalFault`]) model amplifier and fiber-span
//!   incidents that drag the *physical* SNR down — usually for every
//!   wavelength riding the affected segment at once.
//!
//! ## Fault domains
//!
//! The paper's failure data (and the robust-design literature it cites)
//! says the dangerous events are *shared*: one amplifier failure dims
//! every wavelength on its span together. Each event therefore carries a
//! [`FaultScope`]:
//!
//! - [`FaultScope::Link`] — one wavelength;
//! - [`FaultScope::Srlg`] — every link sharing a fiber segment: the links
//!   of the topology whose `fiber_id` is the segment's.
//!
//! Severities inside a correlated event are drawn *correlated*: the event
//! stores one common shock and every covered link sees that shock plus a
//! small deterministic per-link deviation (see
//! [`FaultInjector::optical_penalty_db`]).
//!
//! Everything is reproducible: plans are plain data (serde-serialisable)
//! and the random generator ([`FaultPlanConfig::generate`]) derives every
//! event from a single seed, so the same plan + scenario seed produces a
//! byte-identical report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use rwc_optics::bvt::BvtFault;

use rwc_topology::wan::LinkId;
use rwc_util::rng::Xoshiro256;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::Db;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A telemetry-path fault on one link's SNR stream.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TelemetryFault {
    /// Samples are lost: the controller receives no reading.
    DropSamples,
    /// The stream freezes: the controller keeps receiving the value that
    /// was current when the fault started.
    FreezeReadings,
    /// Readings are corrupted by an additive spike (dB, either sign).
    SnrSpike {
        /// Offset added to every delivered reading while active.
        delta_db: f64,
    },
}

/// A traffic-engineering-layer fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TeFault {
    /// The solver exceeds its deadline; the round produces no solution.
    SolverTimeout,
    /// The solver aborts (crash, numerical failure) mid-round.
    SolverAbort,
}

/// An optical-layer incident: the *physical* SNR of every covered link
/// drops by the severity for the duration of the window. Unlike a
/// [`TelemetryFault::SnrSpike`] — which only lies to the controller —
/// an optical fault changes what the light can actually carry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum OpticalFault {
    /// An inline amplifier on the span fails or brown-outs: a deep,
    /// shared SNR collapse (typically enough to force links to crawl or
    /// go dark).
    AmplifierOutage {
        /// Common SNR penalty (dB) applied to every covered link.
        severity_db: f64,
    },
    /// Span ageing, a macro-bend or a dirty splice: a milder correlated
    /// penalty that degrades but rarely kills.
    SpanDegradation {
        /// Common SNR penalty (dB) applied to every covered link.
        severity_db: f64,
    },
}

impl OpticalFault {
    /// The common (shared-shock) severity of the incident, in dB.
    pub fn severity_db(&self) -> f64 {
        match *self {
            OpticalFault::AmplifierOutage { severity_db }
            | OpticalFault::SpanDegradation { severity_db } => severity_db,
        }
    }
}

/// What fails.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Transceiver-level fault.
    Bvt(BvtFault),
    /// Telemetry-path fault.
    Telemetry(TelemetryFault),
    /// TE-layer fault (fleet-wide, scope ignored).
    Te(TeFault),
    /// Optical-layer fault (amplifier/span incident, physical SNR drop).
    Optical(OpticalFault),
}

/// *Where* a fault lands: one link or a shared-risk fiber segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultScope {
    /// A single wavelength/IP link.
    Link(LinkId),
    /// Every link whose `fiber_id` matches — the SRLG of one fiber
    /// segment.
    Srlg(usize),
}

impl FaultScope {
    /// Whether the scope couples multiple links into one failure domain.
    pub(crate) fn is_correlated(&self) -> bool {
        !matches!(self, FaultScope::Link(_))
    }
}

/// One scheduled fault: what, where, when, for how long.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultEvent {
    /// The fault.
    pub kind: FaultKind,
    /// Where it lands. Ignored for [`FaultKind::Te`], which is
    /// fleet-wide.
    pub scope: FaultScope,
    /// When the fault becomes active.
    pub start: SimTime,
    /// How long it stays active. BVT faults are *armed* for this window:
    /// any reconfiguration or MDIO transaction started inside it trips.
    pub duration: SimDuration,
}

impl FaultEvent {
    /// A single-link event.
    pub fn on_link(kind: FaultKind, link: LinkId, start: SimTime, duration: SimDuration) -> Self {
        Self { kind, scope: FaultScope::Link(link), start, duration }
    }

    /// An SRLG-wide event hitting every link on `fiber_id`.
    pub fn on_srlg(kind: FaultKind, fiber_id: usize, start: SimTime, duration: SimDuration) -> Self {
        Self { kind, scope: FaultScope::Srlg(fiber_id), start, duration }
    }

    /// Whether the fault is active at `now` (half-open `[start, end)`).
    pub fn active_at(&self, now: SimTime) -> bool {
        now >= self.start && now < self.start + self.duration
    }

    /// First instant *after* the window.
    pub fn end(&self) -> SimTime {
        self.start + self.duration
    }
}

/// Why a [`FaultPlan`] was rejected by [`FaultPlan::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultPlanError {
    /// An event's window is empty (`end <= start`, i.e. zero duration).
    EmptyWindow {
        /// Index of the offending event in [`FaultPlan::events`].
        index: usize,
    },
}

impl fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultPlanError::EmptyWindow { index } => {
                write!(f, "fault event #{index} has an empty window (end <= start)")
            }
        }
    }
}

impl std::error::Error for FaultPlanError {}

/// Outcome of a successful [`FaultPlan::validate`]: the plan is usable,
/// but some schedules deserve a second look.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlanCheck {
    /// Human-readable warnings (e.g. overlapping same-link windows of the
    /// same fault class, whose semantics are first-match-wins).
    pub warnings: Vec<String>,
}

/// A declarative fault schedule.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct FaultPlan {
    /// All scheduled faults, in no particular order.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (nothing ever fails).
    pub fn none() -> Self {
        Self::default()
    }

    /// Number of scheduled events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Adds one event (builder style).
    pub fn with(mut self, event: FaultEvent) -> Self {
        self.events.push(event);
        self
    }

    /// Count of events of each class `(bvt, telemetry, te, optical)`.
    pub fn class_counts(&self) -> (usize, usize, usize, usize) {
        let mut counts = (0, 0, 0, 0);
        for e in &self.events {
            match e.kind {
                FaultKind::Bvt(_) => counts.0 += 1,
                FaultKind::Telemetry(_) => counts.1 += 1,
                FaultKind::Te(_) => counts.2 += 1,
                FaultKind::Optical(_) => counts.3 += 1,
            }
        }
        counts
    }

    /// Number of events whose scope couples multiple links.
    pub fn correlated_count(&self) -> usize {
        self.events.iter().filter(|e| e.scope.is_correlated()).count()
    }

    /// Structural validation: rejects events that can never fire (empty
    /// windows) and warns — via the returned
    /// [`FaultPlanCheck`] — about overlapping same-scope windows of the
    /// same fault class, whose first-match-wins semantics are usually a
    /// schedule mistake rather than an intent.
    pub fn validate(&self) -> Result<FaultPlanCheck, FaultPlanError> {
        for (index, e) in self.events.iter().enumerate() {
            if e.duration == SimDuration::ZERO {
                return Err(FaultPlanError::EmptyWindow { index });
            }
        }
        let mut check = FaultPlanCheck::default();
        let class = |k: &FaultKind| match k {
            FaultKind::Bvt(_) => 0u8,
            FaultKind::Telemetry(_) => 1,
            FaultKind::Te(_) => 2,
            FaultKind::Optical(_) => 3,
        };
        for (i, a) in self.events.iter().enumerate() {
            for (j, b) in self.events.iter().enumerate().skip(i + 1) {
                if a.scope == b.scope
                    && class(&a.kind) == class(&b.kind)
                    && a.start < b.end()
                    && b.start < a.end()
                {
                    check.warnings.push(format!(
                        "events #{i} and #{j} overlap on {:?} with the same fault class \
                         (first match wins while both are active)",
                        a.scope
                    ));
                }
            }
        }
        Ok(check)
    }
}

/// Answers "which faults are active right now?" against a [`FaultPlan`].
///
/// Purely a time-indexed view; it holds no mutable state, so querying is
/// idempotent and never perturbs determinism. Resolving an
/// [`FaultScope::Srlg`] scope needs the topology's link → fiber map: pass
/// it through [`FaultInjector::with_fibers`]. Without one, the injector
/// falls back to the `WanTopology` default of one fiber per link
/// (`fiber_id == link index`).
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    /// `fibers[link] = fiber_id`; `None` means the identity default.
    fibers: Option<Vec<usize>>,
}

impl FaultInjector {
    /// Wraps a plan with the default one-fiber-per-link mapping.
    pub fn new(plan: FaultPlan) -> Self {
        Self { plan, fibers: None }
    }

    /// Wraps a plan with an explicit link → fiber-segment map, so
    /// [`FaultScope::Srlg`] events resolve against the real topology.
    pub fn with_fibers(plan: FaultPlan, fibers: Vec<usize>) -> Self {
        Self { plan, fibers: Some(fibers) }
    }

    /// The underlying plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// All events active at `now`.
    pub fn active_at(&self, now: SimTime) -> impl Iterator<Item = &FaultEvent> {
        self.plan.events.iter().filter(move |e| e.active_at(now))
    }

    fn fiber_of(&self, link: LinkId) -> usize {
        match &self.fibers {
            Some(f) => f.get(link.0).copied().unwrap_or(link.0),
            None => link.0,
        }
    }

    /// Whether an event's scope covers `link`.
    pub fn covers(&self, event: &FaultEvent, link: LinkId) -> bool {
        match event.scope {
            FaultScope::Link(l) => l == link,
            FaultScope::Srlg(fiber) => self.fiber_of(link) == fiber,
        }
    }

    /// The BVT fault armed on `link` at `now`, if any (first match wins;
    /// overlapping BVT faults on one link are not meaningful).
    pub fn bvt_fault(&self, link: LinkId, now: SimTime) -> Option<BvtFault> {
        self.active_at(now).find_map(|e| match e.kind {
            FaultKind::Bvt(f) if self.covers(e, link) => Some(f),
            _ => None,
        })
    }

    /// The telemetry fault affecting `link` at `now`, if any.
    pub fn telemetry_fault(&self, link: LinkId, now: SimTime) -> Option<TelemetryFault> {
        self.active_at(now).find_map(|e| match e.kind {
            FaultKind::Telemetry(f) if self.covers(e, link) => Some(f),
            _ => None,
        })
    }

    /// The TE fault in force at `now`, if any.
    pub fn te_fault(&self, now: SimTime) -> Option<TeFault> {
        self.active_at(now).find_map(|e| match e.kind {
            FaultKind::Te(f) => Some(f),
            _ => None,
        })
    }

    /// Total physical SNR penalty (dB) on `link` at `now` from active
    /// optical faults.
    ///
    /// Severities are *correlated, not identical*: every covered link
    /// shares the event's common shock, plus a deterministic per-link
    /// deviation of up to ±10 % of the shock (hashed from the event start
    /// and the link id), which is how one amplifier incident dims forty
    /// wavelengths by *almost* the same amount. Overlapping optical
    /// events stack additively.
    pub fn optical_penalty_db(&self, link: LinkId, now: SimTime) -> f64 {
        self.active_at(now)
            .filter_map(|e| match e.kind {
                FaultKind::Optical(f) if self.covers(e, link) => {
                    let common = f.severity_db();
                    let jitter = severity_deviation(e.start, link);
                    Some((common * (1.0 + 0.1 * jitter)).max(0.0))
                }
                _ => None,
            })
            .sum()
    }

    /// Whether any *correlated* (SRLG-scoped) fault covers
    /// `link` at `now` — the attribution bit the availability accounting
    /// uses to split outage time into independent vs correlated.
    pub fn correlated_active(&self, link: LinkId, now: SimTime) -> bool {
        self.active_at(now)
            .any(|e| e.scope.is_correlated() && self.covers(e, link))
    }

    /// Applies the active telemetry fault (if any) to a raw reading.
    ///
    /// `frozen` is the value delivered when the stream froze (the caller
    /// tracks it; this crate is stateless). Returns the reading the
    /// controller should see: `None` means the sample was lost.
    pub fn observe(
        &self,
        link: LinkId,
        raw: Db,
        frozen: Option<Db>,
        now: SimTime,
    ) -> Option<Db> {
        match self.telemetry_fault(link, now) {
            None => Some(raw),
            Some(TelemetryFault::DropSamples) => None,
            Some(TelemetryFault::FreezeReadings) => Some(frozen.unwrap_or(raw)),
            Some(TelemetryFault::SnrSpike { delta_db }) => Some(Db(raw.value() + delta_db)),
        }
    }
}

/// Deterministic per-link severity deviation in `[-1, 1]`, hashed from
/// the event start and the link id (splitmix64 finalizer). Pure data →
/// the same event always dims the same link by the same amount.
fn severity_deviation(start: SimTime, link: LinkId) -> f64 {
    let mut z = start
        .since_epoch()
        .as_millis()
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(link.0 as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    // Map to [-1, 1).
    (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
}

/// Tuning for the random plan generator. Rates are Poisson-ish: each
/// class draws `rate_per_link_day × links × days` events (TE faults are
/// fleet-wide: `rate × days`; amplifier-span faults are per *fiber*:
/// `rate × fibers × days`), with exponential-ish durations around the
/// configured means. Everything derives from `seed`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlanConfig {
    /// Links in the fleet.
    pub n_links: usize,
    /// Schedule horizon.
    pub horizon: SimDuration,
    /// BVT faults per link-day.
    pub bvt_rate_per_link_day: f64,
    /// Telemetry faults per link-day.
    pub telemetry_rate_per_link_day: f64,
    /// TE faults per day (fleet-wide).
    pub te_rate_per_day: f64,
    /// Amplifier/fiber-span incidents per fiber-day. These generate
    /// [`FaultScope::Srlg`] events that hit every link sharing the
    /// segment. `0.0` (the default) disables correlated generation, which
    /// keeps plans from older configs byte-identical.
    pub amplifier_rate_per_fiber_day: f64,
    /// Mean armed window of a BVT fault.
    pub bvt_mean_duration: SimDuration,
    /// Mean duration of a telemetry fault.
    pub telemetry_mean_duration: SimDuration,
    /// Mean duration of a TE fault.
    pub te_mean_duration: SimDuration,
    /// Mean duration of an amplifier-span incident.
    pub amplifier_mean_duration: SimDuration,
    /// Mean common-shock severity (dB SNR penalty) of an amplifier-span
    /// incident. Individual events draw around this mean; full
    /// [`OpticalFault::AmplifierOutage`]s use the draw as-is while
    /// [`OpticalFault::SpanDegradation`]s halve it.
    pub amplifier_mean_severity_db: f64,
    /// Link → fiber-segment map used when placing SRLG events. Empty (the
    /// default) means one fiber per link — every "correlated" event then
    /// degenerates to a single link, matching the `WanTopology` default.
    pub fiber_of_link: Vec<usize>,
    /// Master seed; the whole plan is a pure function of the config.
    pub seed: u64,
}

impl Default for FaultPlanConfig {
    fn default() -> Self {
        Self {
            n_links: 1,
            horizon: SimDuration::from_days(7),
            bvt_rate_per_link_day: 0.5,
            telemetry_rate_per_link_day: 0.5,
            te_rate_per_day: 0.5,
            amplifier_rate_per_fiber_day: 0.0,
            bvt_mean_duration: SimDuration::from_hours(2),
            telemetry_mean_duration: SimDuration::from_hours(1),
            te_mean_duration: SimDuration::from_minutes(30),
            amplifier_mean_duration: SimDuration::from_minutes(45),
            amplifier_mean_severity_db: 12.0,
            fiber_of_link: Vec::new(),
            seed: 0xFA_017,
        }
    }
}

impl FaultPlanConfig {
    /// Generates the plan. Deterministic: same config → same plan.
    pub fn generate(&self) -> FaultPlan {
        assert!(self.n_links > 0, "fault plan needs at least one link");
        let days = self.horizon.as_secs_f64() / 86_400.0;
        let mut rng = Xoshiro256::seed_from_u64(self.seed);
        let mut events = Vec::new();

        let n_bvt = (self.bvt_rate_per_link_day * self.n_links as f64 * days).round() as usize;
        for _ in 0..n_bvt {
            let kind = match rng.next_u64() % 4 {
                0 => BvtFault::RelockFailure,
                1 => BvtFault::StuckLaser,
                2 => BvtFault::MdioTimeout,
                _ => BvtFault::CorruptRegister,
            };
            events.push(self.event(FaultKind::Bvt(kind), self.bvt_mean_duration, &mut rng));
        }

        let n_tel =
            (self.telemetry_rate_per_link_day * self.n_links as f64 * days).round() as usize;
        for _ in 0..n_tel {
            let kind = match rng.next_u64() % 3 {
                0 => TelemetryFault::DropSamples,
                1 => TelemetryFault::FreezeReadings,
                // Spikes in ±(3..15) dB — big enough to bait a bad
                // modulation decision if taken at face value.
                _ => {
                    let magnitude = 3.0 + 12.0 * rng.uniform();
                    let sign = if rng.next_u64().is_multiple_of(2) { 1.0 } else { -1.0 };
                    TelemetryFault::SnrSpike { delta_db: sign * magnitude }
                }
            };
            events.push(self.event(
                FaultKind::Telemetry(kind),
                self.telemetry_mean_duration,
                &mut rng,
            ));
        }

        let n_te = (self.te_rate_per_day * days).round() as usize;
        for _ in 0..n_te {
            let kind = if rng.next_u64().is_multiple_of(2) {
                TeFault::SolverTimeout
            } else {
                TeFault::SolverAbort
            };
            events.push(self.event(FaultKind::Te(kind), self.te_mean_duration, &mut rng));
        }

        // Correlated amplifier-span incidents: one event per draw, scoped
        // to a whole fiber segment. The severity is the *common shock*;
        // per-link deviations are applied at injection time.
        let fibers = self.fiber_segments();
        let n_amp =
            (self.amplifier_rate_per_fiber_day * fibers.len() as f64 * days).round() as usize;
        for _ in 0..n_amp {
            let fiber = fibers[rng.below(fibers.len())];
            // Mean-centred severity with ±35 % spread, floored at 1 dB so
            // an "incident" is never a no-op.
            let severity = (self.amplifier_mean_severity_db
                * (0.65 + 0.7 * rng.uniform()))
            .max(1.0);
            // 2-in-3 full amplifier outages, 1-in-3 milder span issues.
            let kind = if rng.next_u64() % 3 < 2 {
                OpticalFault::AmplifierOutage { severity_db: severity }
            } else {
                OpticalFault::SpanDegradation { severity_db: severity * 0.5 }
            };
            let template =
                self.event(FaultKind::Optical(kind), self.amplifier_mean_duration, &mut rng);
            events.push(FaultEvent { scope: FaultScope::Srlg(fiber), ..template });
        }

        FaultPlan { events }
    }

    /// Distinct fiber segments implied by the config's link → fiber map
    /// (identity when the map is empty), sorted for determinism.
    pub(crate) fn fiber_segments(&self) -> Vec<usize> {
        if self.fiber_of_link.is_empty() {
            (0..self.n_links).collect()
        } else {
            let mut fibers: Vec<usize> = self.fiber_of_link.clone();
            fibers.sort_unstable();
            fibers.dedup();
            fibers
        }
    }

    fn event(
        &self,
        kind: FaultKind,
        mean_duration: SimDuration,
        rng: &mut Xoshiro256,
    ) -> FaultEvent {
        let link = LinkId(rng.below(self.n_links));
        let start_secs = self.horizon.as_secs_f64() * rng.uniform();
        // Exponential durations, clamped to keep a fault from outliving
        // the horizon by much.
        let u = rng.uniform().max(1e-12);
        let dur_secs =
            (-u.ln() * mean_duration.as_secs_f64()).min(self.horizon.as_secs_f64() / 2.0);
        FaultEvent {
            kind,
            scope: FaultScope::Link(link),
            start: SimTime::EPOCH + SimDuration::from_secs_f64(start_secs),
            duration: SimDuration::from_secs_f64(dur_secs.max(1.0)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FaultPlanConfig {
        FaultPlanConfig { n_links: 8, seed: 42, ..FaultPlanConfig::default() }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = cfg().generate();
        let b = cfg().generate();
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn different_seeds_differ() {
        let a = cfg().generate();
        let b = FaultPlanConfig { seed: 43, ..cfg() }.generate();
        assert_ne!(a, b);
    }

    #[test]
    fn rates_scale_event_counts() {
        let sparse = FaultPlanConfig {
            bvt_rate_per_link_day: 0.1,
            telemetry_rate_per_link_day: 0.1,
            te_rate_per_day: 0.1,
            ..cfg()
        }
        .generate();
        let dense = FaultPlanConfig {
            bvt_rate_per_link_day: 2.0,
            telemetry_rate_per_link_day: 2.0,
            te_rate_per_day: 2.0,
            ..cfg()
        }
        .generate();
        assert!(dense.len() > sparse.len() * 4, "{} vs {}", dense.len(), sparse.len());
        let (bvt, tel, te, _) = dense.class_counts();
        assert!(bvt > 0 && tel > 0 && te > 0);
    }

    #[test]
    fn events_stay_inside_horizon() {
        let plan = cfg().generate();
        let horizon = cfg().horizon;
        for e in &plan.events {
            assert!(e.start < SimTime::EPOCH + horizon);
            if let FaultScope::Link(l) = e.scope {
                assert!(l.0 < 8);
            }
            assert!(e.duration > SimDuration::ZERO);
        }
    }

    #[test]
    fn amplifier_rate_generates_srlg_events() {
        let plan = FaultPlanConfig {
            amplifier_rate_per_fiber_day: 0.5,
            // Four links on two fiber segments.
            n_links: 4,
            fiber_of_link: vec![0, 0, 1, 1],
            ..cfg()
        }
        .generate();
        let (_, _, _, optical) = plan.class_counts();
        assert!(optical > 0, "amplifier rate must generate optical events");
        assert_eq!(plan.correlated_count(), optical);
        for e in &plan.events {
            if let FaultKind::Optical(f) = e.kind {
                assert!(matches!(e.scope, FaultScope::Srlg(fid) if fid <= 1));
                assert!(f.severity_db() >= 1.0);
            }
        }
    }

    #[test]
    fn zero_amplifier_rate_matches_pre_domain_plans() {
        // The SRLG extension must not perturb existing seeded campaigns:
        // with the default (zero) amplifier rate, the generated events are
        // exactly the PR-1 classes in the PR-1 order.
        let plan = cfg().generate();
        let (_, _, _, optical) = plan.class_counts();
        assert_eq!(optical, 0);
        assert_eq!(plan.correlated_count(), 0);
    }

    #[test]
    fn injector_windows_are_half_open() {
        let event = FaultEvent::on_link(
            FaultKind::Te(TeFault::SolverTimeout),
            LinkId(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            SimDuration::from_hours(1),
        );
        let inj = FaultInjector::new(FaultPlan::none().with(event));
        let h = SimDuration::from_hours(1);
        assert_eq!(inj.te_fault(SimTime::EPOCH), None);
        assert_eq!(inj.te_fault(SimTime::EPOCH + h), Some(TeFault::SolverTimeout));
        assert_eq!(inj.te_fault(SimTime::EPOCH + h + h), None, "end is exclusive");
    }

    #[test]
    fn srlg_scope_covers_every_link_on_the_fiber() {
        let day = SimDuration::from_days(1);
        let plan = FaultPlan::none().with(FaultEvent::on_srlg(
            FaultKind::Bvt(BvtFault::RelockFailure),
            7,
            SimTime::EPOCH,
            day,
        ));
        // Links 0 and 2 ride fiber 7; link 1 rides fiber 3.
        let inj = FaultInjector::with_fibers(plan, vec![7, 3, 7]);
        let t0 = SimTime::EPOCH;
        assert_eq!(inj.bvt_fault(LinkId(0), t0), Some(BvtFault::RelockFailure));
        assert_eq!(inj.bvt_fault(LinkId(2), t0), Some(BvtFault::RelockFailure));
        assert_eq!(inj.bvt_fault(LinkId(1), t0), None);
        assert!(inj.correlated_active(LinkId(0), t0));
        assert!(!inj.correlated_active(LinkId(1), t0));
    }

    #[test]
    fn optical_penalty_is_correlated_not_identical() {
        let day = SimDuration::from_days(1);
        let plan = FaultPlan::none().with(FaultEvent::on_srlg(
            FaultKind::Optical(OpticalFault::AmplifierOutage { severity_db: 20.0 }),
            0,
            SimTime::EPOCH,
            day,
        ));
        let inj = FaultInjector::with_fibers(plan, vec![0, 0, 0, 1]);
        let t0 = SimTime::EPOCH;
        let penalties: Vec<f64> =
            (0..3).map(|l| inj.optical_penalty_db(LinkId(l), t0)).collect();
        for &p in &penalties {
            // Common shock 20 dB ± 10 % deviation.
            assert!((18.0..=22.0).contains(&p), "penalty {p}");
        }
        // Correlated, not identical: the per-link deviations differ.
        assert!(penalties.windows(2).any(|w| (w[0] - w[1]).abs() > 1e-9));
        // Off-segment link sees nothing; outside the window nothing.
        assert_eq!(inj.optical_penalty_db(LinkId(3), t0), 0.0);
        assert_eq!(
            inj.optical_penalty_db(LinkId(0), t0 + day + SimDuration::from_secs(1)),
            0.0
        );
        // And the same query always returns the same value.
        assert_eq!(penalties[0], inj.optical_penalty_db(LinkId(0), t0));
    }

    #[test]
    fn validate_rejects_empty_windows() {
        let plan = FaultPlan::none().with(FaultEvent::on_link(
            FaultKind::Te(TeFault::SolverAbort),
            LinkId(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            SimDuration::ZERO,
        ));
        assert_eq!(plan.validate(), Err(FaultPlanError::EmptyWindow { index: 0 }));
    }

    #[test]
    fn validate_warns_on_overlapping_same_scope_windows() {
        let h = SimDuration::from_hours(1);
        let plan = FaultPlan::none()
            .with(FaultEvent::on_link(
                FaultKind::Bvt(BvtFault::StuckLaser),
                LinkId(2),
                SimTime::EPOCH,
                h + h,
            ))
            .with(FaultEvent::on_link(
                FaultKind::Bvt(BvtFault::MdioTimeout),
                LinkId(2),
                SimTime::EPOCH + h,
                h,
            ))
            // Different class on the same link: not a warning.
            .with(FaultEvent::on_link(
                FaultKind::Telemetry(TelemetryFault::DropSamples),
                LinkId(2),
                SimTime::EPOCH,
                h,
            ));
        let check = plan.validate().expect("plan is valid");
        assert_eq!(check.warnings.len(), 1, "{:?}", check.warnings);
        assert!(check.warnings[0].contains("#0"));
        assert!(check.warnings[0].contains("#1"));
    }

    #[test]
    fn generated_plans_validate_clean_of_errors() {
        let plan = FaultPlanConfig {
            amplifier_rate_per_fiber_day: 0.3,
            fiber_of_link: vec![0, 0, 1, 1, 2, 2, 3, 3],
            ..cfg()
        }
        .generate();
        plan.validate().expect("generated plans are structurally valid");
    }

    #[test]
    fn observe_applies_telemetry_faults() {
        let t0 = SimTime::EPOCH;
        let day = SimDuration::from_days(1);
        let plan = FaultPlan::none()
            .with(FaultEvent::on_link(
                FaultKind::Telemetry(TelemetryFault::DropSamples),
                LinkId(0),
                t0,
                day,
            ))
            .with(FaultEvent::on_link(
                FaultKind::Telemetry(TelemetryFault::FreezeReadings),
                LinkId(1),
                t0,
                day,
            ))
            .with(FaultEvent::on_link(
                FaultKind::Telemetry(TelemetryFault::SnrSpike { delta_db: 10.0 }),
                LinkId(2),
                t0,
                day,
            ));
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.observe(LinkId(0), Db(12.0), None, t0), None);
        assert_eq!(inj.observe(LinkId(1), Db(12.0), Some(Db(9.0)), t0), Some(Db(9.0)));
        assert_eq!(inj.observe(LinkId(2), Db(12.0), None, t0), Some(Db(22.0)));
        // Unaffected link passes through.
        assert_eq!(inj.observe(LinkId(3), Db(12.0), None, t0), Some(Db(12.0)));
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = FaultPlanConfig {
            amplifier_rate_per_fiber_day: 0.4,
            fiber_of_link: vec![0, 0, 1, 1, 2, 2, 3, 3],
            ..cfg()
        }
        .generate();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn config_round_trips_through_json() {
        let cfg = FaultPlanConfig {
            amplifier_rate_per_fiber_day: 0.25,
            amplifier_mean_severity_db: 18.0,
            fiber_of_link: vec![0, 1, 0, 1],
            ..cfg()
        };
        let json = serde_json::to_string(&cfg).unwrap();
        let back: FaultPlanConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(cfg, back);
        // And the regenerated plan is identical — the config really is
        // the plan's complete description.
        assert_eq!(cfg.generate(), back.generate());
    }
}
