//! The run/walk/crawl controller.
//!
//! The paper's titular policy: drive each link as fast as its SNR allows
//! (**run**), step it down to an intermediate rate when the signal degrades
//! (**walk**), fall back to the 50 G floor rather than declaring the link
//! down (**crawl**), and only fail it when even the floor is infeasible.
//!
//! Two safeguards keep the fleet from flapping — the failure mode §2.1
//! warns about when operating close to threshold:
//!
//! - **hysteresis**: stepping *up* requires the SNR to clear the target
//!   rung's threshold by `upgrade_margin`; stepping down happens as soon
//!   as the current rung is infeasible (safety is never delayed);
//! - **dwell**: after any change, upgrades are suppressed for `dwell`
//!   (downgrades are still immediate).
//!
//! Every reconfiguration is executed through the [`rwc_optics::bvt`]
//! model, so downtime accounting reflects the procedure in use (legacy
//! ≈ 68 s vs efficient ≈ 35 ms).

use crate::error::RwcError;
use rwc_obs::{Event, Observer};
use rwc_optics::bvt::{Bvt, BvtError, BvtFault, PreparedChange, ReconfigProcedure};
use rwc_optics::{Modulation, ModulationTable};
use rwc_topology::wan::{LinkId, WanTopology};
use rwc_util::rng::Xoshiro256;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::Db;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Controller tuning.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Hardware threshold table.
    pub table: ModulationTable,
    /// Extra SNR (beyond the rung threshold) required to step up.
    pub upgrade_margin: Db,
    /// Minimum time between *upgrades* on one link.
    pub dwell: SimDuration,
    /// BVT procedure used for changes.
    pub procedure: ReconfigProcedure,
    /// Whether the controller may step links *up* on its own when margin
    /// allows (standalone "run" mode). Set false when a TE layer owns the
    /// upgrade decision through the graph abstraction — the controller
    /// then only handles safety (walk/crawl/down).
    pub auto_upgrade: bool,
    /// Retry budget per modulation change: a change is attempted
    /// `1 + max_retries` times before the failure counts against the link.
    pub max_retries: u32,
    /// Consecutive failed changes after which a link is quarantined —
    /// pinned to its last safe modulation for `QUARANTINE_HOLD` (4 h), with
    /// further changes suppressed.
    pub quarantine_after: u32,
}

/// Control-plane backoff between retry attempts, charged as downtime (the
/// carrier is typically unlocked while the module recovers).
const RETRY_BACKOFF: SimDuration = SimDuration::from_millis(100);

/// Fractional jitter on [`RETRY_BACKOFF`]: each backoff is scaled by a
/// seeded draw from `1 ± RETRY_JITTER`, so links in the same fault domain
/// that fail at the same instant don't stampede their retries in lockstep.
const RETRY_JITTER: f64 = 0.5;

/// Watchdog deadline for the commit phase of a staged change: a commit
/// still mid-phase at the deadline is abandoned as a typed
/// [`BvtError::StageTimeout`] instead of hanging. Clears the legacy
/// procedure's latency tail (≈400 s observed at p-max).
const COMMIT_DEADLINE: SimDuration = SimDuration::from_secs(600);

/// Extra SNR margin [`Controller::prepare_change`] demands beyond the
/// target rung's threshold before reserving it. Zero: the TE layer's
/// upgrade decisions already ride on observed SNR, and the controller's
/// own upgrade path applies `upgrade_margin` at decision time.
const PREPARE_MARGIN: Db = Db(0.0);

/// How long a quarantined link stays pinned before changes are allowed
/// again.
const QUARANTINE_HOLD: SimDuration = SimDuration::from_hours(4);

/// Last-known-good SNR policy: when a reading is missing, the most recent
/// one no older than this bound is used instead. Beyond it the link holds
/// position and is marked degraded rather than acted on.
const SNR_STALENESS_BOUND: SimDuration = SimDuration::from_minutes(45);

impl Default for ControllerConfig {
    fn default() -> Self {
        Self {
            table: ModulationTable::paper_default(),
            upgrade_margin: Db(1.0),
            dwell: SimDuration::from_hours(1),
            procedure: ReconfigProcedure::Efficient,
            auto_upgrade: true,
            max_retries: 2,
            quarantine_after: 3,
        }
    }
}

impl ControllerConfig {
    /// Refuses a config the controller cannot run: an empty modulation
    /// ladder, or an upgrade margin that is negative or not finite (NaN
    /// fails too).
    pub fn validate(&self) -> Result<(), String> {
        if self.table.entries().is_empty() {
            return Err("modulation table has no rungs".into());
        }
        let margin = self.upgrade_margin.value();
        if !margin.is_finite() || margin < 0.0 {
            return Err(format!("upgrade margin ({margin} dB) must be finite and non-negative"));
        }
        Ok(())
    }
}

/// What the controller decided for one link at one tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Keep the current rate.
    Hold,
    /// Reconfigure to a different rung (up or down).
    StepTo(Modulation),
    /// Not even the slowest rung is feasible: the link is down.
    Down,
}

/// Controller's view of one link's operational health.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkHealth {
    /// Operating normally.
    Healthy,
    /// Recent reconfiguration failures or stale telemetry — changes are
    /// still attempted, but the link is on notice.
    Degraded,
    /// Too many consecutive failures: pinned to its last safe modulation
    /// until the hold-down expires.
    Quarantined,
}

#[derive(Debug, Clone)]
struct LinkState {
    last_change: Option<SimTime>,
    down: bool,
    /// Failed changes since the last success (resets on success).
    consecutive_failures: u32,
    /// End of the current quarantine hold-down, if any.
    quarantined_until: Option<SimTime>,
    /// Most recent trusted SNR reading.
    last_good: Option<(SimTime, Db)>,
    /// Telemetry for this link is currently older than the staleness bound.
    stale: bool,
}

impl LinkState {
    fn new() -> Self {
        Self {
            last_change: None,
            down: false,
            consecutive_failures: 0,
            quarantined_until: None,
            last_good: None,
            stale: false,
        }
    }
}

/// Outcome of one controller sweep over the fleet.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SweepReport {
    /// `(link, from, to)` for every reconfiguration applied.
    pub changes: Vec<(LinkId, Modulation, Modulation)>,
    /// Links newly declared down (no feasible rung, or an unrecoverable
    /// reconfiguration failure).
    pub went_down: Vec<LinkId>,
    /// Links recovered from down.
    pub recovered: Vec<LinkId>,
    /// Total reconfiguration downtime accrued this sweep.
    pub downtime: SimDuration,
    /// Downgrades that would have been *failures* on a fixed-capacity
    /// link (SNR below the old rung's threshold but above a lower rung's)
    /// — the paper's "flap instead of fail" count.
    pub failures_avoided: usize,
    /// Retry attempts spent on flaky reconfigurations this sweep.
    pub retries: u32,
    /// Changes that failed even after retries.
    pub reconfig_failures: usize,
    /// Links pushed into quarantine this sweep.
    pub quarantined: Vec<LinkId>,
    /// Links that held position because telemetry was missing and the
    /// last-known-good reading had gone stale.
    pub stale_holds: usize,
}

/// Outcome of executing one modulation change through the BVT model.
#[derive(Debug, Clone, PartialEq)]
pub struct ChangeResult {
    /// Whether the change is in force on the topology.
    pub applied: bool,
    /// Downtime charged: successful phases, failed partial attempts,
    /// module resets and retry backoff.
    pub downtime: SimDuration,
    /// Retry attempts consumed beyond the first try.
    pub retries: u32,
    /// Whether this failure pushed the link into quarantine.
    pub quarantined: bool,
    /// Whether a failed staged commit was rolled back to the prior
    /// modulation (make-before-break unhappy path). Always `false` on the
    /// direct [`Controller::execute_change`] path.
    pub rolled_back: bool,
}

/// The run/walk/crawl controller for a fleet of links.
#[derive(Debug, Clone)]
pub struct Controller {
    config: ControllerConfig,
    states: Vec<LinkState>,
    /// One transceiver model per link. Modulation registers are slaved to
    /// the topology before every operation; the Bvt carries the fault and
    /// lock state machine.
    bvts: Vec<Bvt>,
    rng: Xoshiro256,
    obs: Arc<dyn Observer>,
}

impl Controller {
    /// Creates a controller for `n_links` links.
    ///
    /// # Panics
    ///
    /// If [`ControllerConfig::validate`] refuses `config`.
    pub fn new(config: ControllerConfig, n_links: usize, seed: u64) -> Self {
        if let Err(e) = config.validate() {
            panic!("invalid controller config: {e}");
        }
        let bvts = (0..n_links)
            .map(|_| {
                let mut bvt = Bvt::new(Modulation::DpQpsk100);
                bvt.set_procedure(config.procedure);
                bvt
            })
            .collect();
        Self {
            config,
            states: (0..n_links).map(|_| LinkState::new()).collect(),
            bvts,
            rng: Xoshiro256::seed_from_u64(seed),
            obs: rwc_obs::noop(),
        }
    }

    /// Routes this controller's metrics and events (and those of every
    /// per-link transceiver model) to `obs`. Observability is measurement
    /// only: it never changes a decision, a report or the RNG stream.
    pub fn set_observer(&mut self, obs: Arc<dyn Observer>) {
        for bvt in &mut self.bvts {
            bvt.set_observer(Arc::clone(&obs));
        }
        self.obs = obs;
    }

    /// The configuration in use.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Whether a link is currently declared down.
    pub fn is_down(&self, link: LinkId) -> bool {
        self.states[link.0].down
    }

    /// Whether a link is in its quarantine hold-down at `now`.
    pub fn is_quarantined(&self, link: LinkId, now: SimTime) -> bool {
        self.states[link.0].quarantined_until.is_some_and(|t| now < t)
    }

    /// The link's health as of `now`.
    pub fn health(&self, link: LinkId, now: SimTime) -> LinkHealth {
        let st = &self.states[link.0];
        if st.quarantined_until.is_some_and(|t| now < t) {
            LinkHealth::Quarantined
        } else if st.consecutive_failures > 0 || st.stale {
            LinkHealth::Degraded
        } else {
            LinkHealth::Healthy
        }
    }

    /// Read access to a link's transceiver model.
    pub fn bvt(&self, link: LinkId) -> &Bvt {
        &self.bvts[link.0]
    }

    /// Arms a hardware fault on a link's transceiver: the next applicable
    /// operation on that module fails.
    pub fn inject_bvt_fault(&mut self, link: LinkId, fault: BvtFault) {
        self.bvts[link.0].inject_fault(fault);
    }

    /// Pure decision logic for one link (no state change).
    pub fn decide(&self, link: LinkId, current: Modulation, snr: Db, now: SimTime) -> Decision {
        let table = &self.config.table;
        let state = &self.states[link.0];

        // Safety first: if the current rung is infeasible, step down (or
        // die) immediately — dwell never delays a safety action.
        if !table.supports(snr, current) {
            return match table.feasible(snr) {
                Some(slower) => Decision::StepTo(slower),
                None => Decision::Down,
            };
        }

        // Upgrade path: fastest rung whose threshold + margin clears.
        if !self.config.auto_upgrade {
            return Decision::Hold;
        }
        let dwell_ok = state
            .last_change
            .is_none_or(|t| now.saturating_duration_since(t) >= self.config.dwell);
        if dwell_ok {
            let target = table
                .entries()
                .iter()
                .rev()
                .find(|&&(m, threshold)| snr >= threshold + self.config.upgrade_margin && m.capacity() > current.capacity())
                .map(|&(m, _)| m);
            if let Some(m) = target {
                return Decision::StepTo(m);
            }
        }
        Decision::Hold
    }

    /// Executes one modulation change through the link's transceiver, with
    /// retry-and-bounded-backoff on failure and quarantine when a link
    /// keeps failing. Shared by the safety sweep and the TE upgrade path,
    /// so every change in the system sees the same fault handling.
    ///
    /// On a change that fails out of retries, the module is reset to a
    /// locked state at whatever format its registers landed on, the
    /// topology is synced to that format, and — once the consecutive-
    /// failure budget is spent — the link enters quarantine pinned there.
    /// If the pinned format is not feasible at the last trusted SNR, the
    /// link is declared down instead of carrying a rate the signal cannot
    /// support (a quarantine pin is never infeasible).
    pub fn execute_change(
        &mut self,
        wan: &mut WanTopology,
        link: LinkId,
        target: Modulation,
        now: SimTime,
    ) -> ChangeResult {
        self.expire_quarantine(link, now);
        if self.is_quarantined(link, now) {
            return ChangeResult {
                applied: false,
                downtime: SimDuration::ZERO,
                retries: 0,
                quarantined: true,
                rolled_back: false,
            };
        }
        let current = wan.link(link).modulation;
        self.bvts[link.0].sync_modulation(current);
        if self.obs.enabled() {
            self.obs.event(&Event::ReconfigStarted {
                link: link.0 as u64,
                from_gbps: current.capacity().value(),
                to_gbps: target.capacity().value(),
                staged: false,
            });
        }
        let mut downtime = SimDuration::ZERO;
        let mut retries = 0u32;
        let attempts = 1 + self.config.max_retries;
        for attempt in 0..attempts {
            match self.bvts[link.0].reconfigure(target, &mut self.rng) {
                Ok(report) => {
                    downtime += report.downtime;
                    wan.set_modulation(link, target);
                    let st = &mut self.states[link.0];
                    st.last_change = Some(now);
                    st.consecutive_failures = 0;
                    self.publish_applied(link, target, downtime, retries);
                    return ChangeResult {
                        applied: true,
                        downtime,
                        retries,
                        quarantined: false,
                        rolled_back: false,
                    };
                }
                Err(BvtError::Timeout) => {
                    // Command lost on the management bus: the module never
                    // saw it, the link kept carrying traffic.
                }
                Err(BvtError::ReconfigFailed { elapsed, .. }) => {
                    downtime += elapsed;
                    downtime += self.bvts[link.0].reset(&mut self.rng);
                }
                Err(_) => {
                    // Busy or a register-level rejection: recover the
                    // module before trying again.
                    downtime += self.bvts[link.0].reset(&mut self.rng);
                }
            }
            if attempt + 1 < attempts {
                retries += 1;
                downtime += self.jittered_backoff();
            }
        }
        // Out of retries. Make sure the module is locked at *some* rate and
        // the topology agrees with where the hardware actually landed.
        downtime += self.bvts[link.0].reset(&mut self.rng);
        let landed = self.bvts[link.0].modulation();
        if landed != current {
            wan.set_modulation(link, landed);
        }
        let quarantined = self.fail_change(link, target, landed, false, retries, now);
        ChangeResult { applied: false, downtime, retries, quarantined, rolled_back: false }
    }

    /// The out-of-retries tail both change paths share: counts the failure
    /// against the link, quarantines it at `pinned` once the streak reaches
    /// `quarantine_after`, and publishes the failure. Returns whether the
    /// link was quarantined.
    fn fail_change(
        &mut self,
        link: LinkId,
        target: Modulation,
        pinned: Modulation,
        rolled_back: bool,
        retries: u32,
        now: SimTime,
    ) -> bool {
        let feasible_at_last_good = self.states[link.0]
            .last_good
            .map(|(_, snr)| self.config.table.supports(snr, pinned));
        let st = &mut self.states[link.0];
        st.consecutive_failures += 1;
        let quarantined = st.consecutive_failures >= self.config.quarantine_after;
        if quarantined {
            st.quarantined_until = Some(now + QUARANTINE_HOLD);
            if feasible_at_last_good == Some(false) {
                // Never quarantine into an infeasible rate: the signal
                // cannot carry the pinned format, so this is an outage.
                st.down = true;
            }
        }
        self.publish_failed(link, target, rolled_back, quarantined, retries, now);
        quarantined
    }

    /// Metrics/events for a change that landed. Counter bumps go through
    /// unconditionally (free on the noop observer); the event allocation
    /// is gated on [`Observer::enabled`].
    fn publish_applied(
        &self,
        link: LinkId,
        target: Modulation,
        downtime: SimDuration,
        retries: u32,
    ) {
        self.obs.incr("controller.changes.applied", 1);
        self.obs.incr("controller.retries", retries as u64);
        if self.obs.enabled() {
            self.obs.record("controller.change_downtime_millis", downtime.as_millis() as f64);
            self.obs.event(&Event::ReconfigCommitted {
                link: link.0 as u64,
                to_gbps: target.capacity().value(),
                downtime_millis: downtime.as_millis(),
                retries: retries as u64,
            });
        }
    }

    /// Metrics/events for a change that failed out of retries (rolled
    /// back on the staged path, landed-as-is on the direct path).
    fn publish_failed(
        &self,
        link: LinkId,
        target: Modulation,
        rolled_back: bool,
        quarantined: bool,
        retries: u32,
        now: SimTime,
    ) {
        self.obs.incr("controller.changes.failed", 1);
        self.obs.incr("controller.retries", retries as u64);
        if rolled_back {
            self.obs.incr("controller.changes.rolled_back", 1);
        }
        if quarantined {
            self.obs.incr("controller.quarantines", 1);
        }
        if self.obs.enabled() {
            self.obs.event(&Event::ReconfigAborted {
                link: link.0 as u64,
                to_gbps: target.capacity().value(),
                rolled_back,
            });
            if quarantined {
                self.obs.event(&Event::Quarantine {
                    link: link.0 as u64,
                    until_millis: (now + QUARANTINE_HOLD).as_millis(),
                });
            }
        }
    }

    /// Lazily retires an expired quarantine hold. Clearing the
    /// consecutive-failure counter here matters: a link released from
    /// quarantine starts with a clean slate, so its first post-hold
    /// failure does not instantly re-quarantine it.
    fn expire_quarantine(&mut self, link: LinkId, now: SimTime) {
        let st = &mut self.states[link.0];
        if st.quarantined_until.is_some_and(|t| now >= t) {
            st.quarantined_until = None;
            st.consecutive_failures = 0;
        }
    }

    /// One seeded backoff draw: `RETRY_BACKOFF × (1 ± RETRY_JITTER)`.
    /// Deterministic per controller seed, decorrelated across draws — so
    /// links that fail at the same instant retry at different offsets
    /// instead of stampeding.
    fn jittered_backoff(&mut self) -> SimDuration {
        let scale = 1.0 + RETRY_JITTER * (2.0 * self.rng.uniform() - 1.0);
        SimDuration::from_secs_f64(RETRY_BACKOFF.as_secs_f64() * scale.max(0.0))
    }

    /// Stage 1 of a make-before-break change: validate and reserve the
    /// target on the link's transceiver without touching the light.
    ///
    /// Refuses quarantined links with [`RwcError::Quarantined`] and
    /// surfaces the module's own refusals ([`BvtError::InsufficientMargin`]
    /// when the topology's current SNR cannot clear the target by
    /// `PREPARE_MARGIN` (zero), `Busy`, `AlreadyPrepared`,
    /// bus timeouts) as [`RwcError::Bvt`]. On success nothing optical has
    /// changed and [`Controller::abort_change`] is free.
    pub fn prepare_change(
        &mut self,
        wan: &WanTopology,
        link: LinkId,
        target: Modulation,
        now: SimTime,
    ) -> Result<PreparedChange, RwcError> {
        self.expire_quarantine(link, now);
        if let Some(until) = self.states[link.0].quarantined_until {
            if now < until {
                return Err(RwcError::Quarantined { link, until });
            }
        }
        let current = wan.link(link).modulation;
        self.bvts[link.0].sync_modulation(current);
        let snr = wan.link(link).snr;
        self.bvts[link.0]
            .prepare(target, snr, &self.config.table, PREPARE_MARGIN, now)
            .map_err(RwcError::Bvt)
    }

    /// Drops a pending reservation (make-before-break abort). Free — the
    /// prepared change never touched the light. Returns the abandoned
    /// change, if one was pending.
    pub fn abort_change(&mut self, link: LinkId) -> Option<PreparedChange> {
        self.bvts[link.0].abort()
    }

    /// Stage 2 of a make-before-break change: commit the reservation made
    /// by [`Controller::prepare_change`], with the same retry budget as
    /// [`Controller::execute_change`] and the commit watchdog in force.
    ///
    /// On success the topology is stepped to the target. On a commit that
    /// fails out of retries the link is **rolled back**: the module is
    /// reset and re-slaved to the prior modulation, the topology is left
    /// untouched (it never saw the target), and the failure counts toward
    /// quarantine exactly like a direct-path failure — except the link
    /// keeps carrying its old rate, so a failed upgrade costs bounded
    /// downtime instead of an outage.
    pub fn commit_change(
        &mut self,
        wan: &mut WanTopology,
        link: LinkId,
        now: SimTime,
    ) -> ChangeResult {
        let Some(change) = self.bvts[link.0].prepared() else {
            return ChangeResult {
                applied: false,
                downtime: SimDuration::ZERO,
                retries: 0,
                quarantined: false,
                rolled_back: false,
            };
        };
        if self.obs.enabled() {
            self.obs.event(&Event::ReconfigStarted {
                link: link.0 as u64,
                from_gbps: change.from.capacity().value(),
                to_gbps: change.target.capacity().value(),
                staged: true,
            });
        }
        let mut downtime = SimDuration::ZERO;
        let mut retries = 0u32;
        let attempts = 1 + self.config.max_retries;
        for attempt in 0..attempts {
            match self.bvts[link.0].commit(COMMIT_DEADLINE, &mut self.rng) {
                Ok(report) => {
                    downtime += report.downtime;
                    wan.set_modulation(link, change.target);
                    let st = &mut self.states[link.0];
                    st.last_change = Some(now);
                    st.consecutive_failures = 0;
                    self.publish_applied(link, change.target, downtime, retries);
                    return ChangeResult {
                        applied: true,
                        downtime,
                        retries,
                        quarantined: false,
                        rolled_back: false,
                    };
                }
                Err(BvtError::Timeout) => {
                    // Command lost on the bus; the reservation survived and
                    // an immediate retry is sound.
                }
                Err(
                    BvtError::ReconfigFailed { elapsed, .. }
                    | BvtError::StageTimeout { elapsed, .. },
                ) => {
                    downtime += elapsed;
                    downtime += self.bvts[link.0].reset(&mut self.rng);
                    // The reset dropped the reservation; re-stage for the
                    // next attempt. Re-validation can only fail spuriously
                    // here (same SNR, same table) — treat a refusal as
                    // exhausting the budget.
                    if attempt + 1 < attempts
                        && self.bvts[link.0]
                            .prepare(
                                change.target,
                                wan.link(link).snr,
                                &self.config.table,
                                PREPARE_MARGIN,
                                now,
                            )
                            .is_err()
                    {
                        break;
                    }
                }
                Err(_) => {
                    downtime += self.bvts[link.0].reset(&mut self.rng);
                    break;
                }
            }
            if attempt + 1 < attempts {
                retries += 1;
                downtime += self.jittered_backoff();
            }
        }
        // Out of retries: roll back. The reset already recovered a locked
        // module; re-slave it to the modulation the link is still carrying
        // (the topology never stepped, so `change.from` is authoritative).
        downtime += self.bvts[link.0].reset(&mut self.rng);
        self.bvts[link.0].sync_modulation(change.from);
        let quarantined = self.fail_change(link, change.target, change.from, true, retries, now);
        ChangeResult { applied: false, downtime, retries, quarantined, rolled_back: true }
    }

    /// Applies one sweep of SNR readings to the topology, reconfiguring
    /// links as decided and accounting downtime through the BVT model.
    ///
    /// Readings are `Option<Db>`: `Some` is a fresh reading and `None`
    /// marks one dropped by the telemetry layer. A non-finite reading
    /// (NaN, ±∞) is no measurement and counts as dropped: it neither
    /// reaches the topology nor becomes last-known-good. A link with a
    /// dropped reading falls back to its last-known-good SNR if that is
    /// within `SNR_STALENESS_BOUND` (45 min); otherwise it
    /// holds its current modulation (counted in
    /// [`SweepReport::stale_holds`]) and is reported
    /// [`LinkHealth::Degraded`] until telemetry returns. Links in
    /// quarantine are never reconfigured; if their pinned rate becomes
    /// infeasible they go down rather than flap.
    pub fn sweep(
        &mut self,
        wan: &mut WanTopology,
        readings: &[(LinkId, Option<Db>)],
        now: SimTime,
    ) -> SweepReport {
        let mut report = SweepReport::default();
        for &(link_id, maybe_snr) in readings {
            // Quarantine expiry is checked lazily, per sweep.
            self.expire_quarantine(link_id, now);
            // Resolve the SNR to act on: fresh reading, else last-known-
            // good within the staleness bound, else hold.
            let snr = match maybe_snr.filter(|snr| snr.value().is_finite()) {
                Some(snr) => {
                    wan.set_snr(link_id, snr);
                    let st = &mut self.states[link_id.0];
                    st.last_good = Some((now, snr));
                    st.stale = false;
                    snr
                }
                None => match self.states[link_id.0].last_good {
                    Some((t, snr))
                        if now.saturating_duration_since(t) <= SNR_STALENESS_BOUND =>
                    {
                        snr
                    }
                    _ => {
                        self.states[link_id.0].stale = true;
                        report.stale_holds += 1;
                        self.obs.incr("controller.stale_holds", 1);
                        continue;
                    }
                },
            };
            let current = wan.link(link_id).modulation;
            let was_down = self.states[link_id.0].down;
            let quarantined = self.is_quarantined(link_id, now);
            let decision = self.decide(link_id, current, snr, now);
            self.obs.incr(
                match decision {
                    Decision::Hold => "controller.decisions.hold",
                    Decision::StepTo(_) => "controller.decisions.step",
                    Decision::Down => "controller.decisions.down",
                },
                1,
            );
            match decision {
                Decision::Hold => {
                    if was_down {
                        // SNR recovered enough for the current rung.
                        self.states[link_id.0].down = false;
                        report.recovered.push(link_id);
                    }
                }
                Decision::Down => {
                    if !was_down {
                        self.states[link_id.0].down = true;
                        report.went_down.push(link_id);
                    }
                }
                Decision::StepTo(target) if quarantined => {
                    // No changes while pinned. A needed *downgrade* means
                    // the pinned rate is no longer feasible: treat as down.
                    if target.capacity() < current.capacity() && !was_down {
                        self.states[link_id.0].down = true;
                        report.went_down.push(link_id);
                    }
                }
                Decision::StepTo(target) => {
                    let downgrade = target.capacity() < current.capacity();
                    let result = self.execute_change(wan, link_id, target, now);
                    report.downtime += result.downtime;
                    report.retries += result.retries;
                    if result.applied {
                        if downgrade {
                            report.failures_avoided += 1;
                        }
                        if was_down {
                            self.states[link_id.0].down = false;
                            report.recovered.push(link_id);
                        }
                        report.changes.push((link_id, current, target));
                    } else {
                        report.reconfig_failures += 1;
                        if result.quarantined {
                            report.quarantined.push(link_id);
                        }
                        if self.states[link_id.0].down && !was_down {
                            report.went_down.push(link_id);
                        }
                    }
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_optics::bvt::LatencyModel;
    use rwc_topology::builders;

    fn setup() -> (WanTopology, Controller) {
        let wan = builders::fig7_example();
        let controller = Controller::new(ControllerConfig::default(), wan.n_links(), 42);
        (wan, controller)
    }

    fn t(hours: u64) -> SimTime {
        SimTime::EPOCH + SimDuration::from_hours(hours)
    }

    #[test]
    fn run_when_margin_allows() {
        let (_, c) = setup();
        // 14 dB clears 200 G (12.5) + 1 dB margin.
        let d = c.decide(LinkId(0), Modulation::DpQpsk100, Db(14.0), t(2));
        assert_eq!(d, Decision::StepTo(Modulation::Dp16Qam200));
    }

    #[test]
    fn hysteresis_blocks_marginal_upgrade() {
        let (_, c) = setup();
        // 12.8 dB clears the 200 G threshold but not threshold + 1 dB.
        let d = c.decide(LinkId(0), Modulation::DpQpsk100, Db(12.8), t(2));
        // 175 G needs 11.0 + 1.0 = 12.0 ⇒ step to 175, not 200.
        assert_eq!(d, Decision::StepTo(Modulation::Hybrid175));
    }

    #[test]
    fn walk_down_on_degradation() {
        let (_, c) = setup();
        // Running at 200 G, SNR drops to 10.0: 150 G is the fastest
        // feasible rung (9.5 ≤ 10 < 11.0).
        let d = c.decide(LinkId(0), Modulation::Dp16Qam200, Db(10.0), t(2));
        assert_eq!(d, Decision::StepTo(Modulation::Dp8Qam150));
    }

    #[test]
    fn crawl_at_the_floor() {
        let (_, c) = setup();
        let d = c.decide(LinkId(0), Modulation::DpQpsk100, Db(3.5), t(2));
        assert_eq!(d, Decision::StepTo(Modulation::DpBpsk50));
    }

    #[test]
    fn down_when_nothing_feasible() {
        let (_, c) = setup();
        let d = c.decide(LinkId(0), Modulation::DpBpsk50, Db(1.0), t(2));
        assert_eq!(d, Decision::Down);
    }

    #[test]
    fn hold_in_the_comfortable_zone() {
        let (_, c) = setup();
        let d = c.decide(LinkId(0), Modulation::Dp16Qam200, Db(14.0), t(2));
        assert_eq!(d, Decision::Hold);
    }

    #[test]
    fn dwell_suppresses_rapid_upgrades_but_not_downgrades() {
        let (mut wan, mut c) = setup();
        // Sweep 1 at t=0: upgrade link 0 to 200 G.
        let r = c.sweep(&mut wan, &[(LinkId(0), Some(Db(14.0)))], t(0));
        assert_eq!(r.changes.len(), 1);
        assert_eq!(wan.link(LinkId(0)).modulation, Modulation::Dp16Qam200);
        // 15 minutes later SNR recovers after a wobble; dwell (1 h) blocks
        // an upgrade...
        wan.set_modulation(LinkId(0), Modulation::Hybrid175);
        let d = c.decide(LinkId(0), Modulation::Hybrid175, Db(14.0), t(0) + SimDuration::from_minutes(15));
        assert_eq!(d, Decision::Hold, "dwell must block the upgrade");
        // ...but a degradation still acts immediately.
        let d = c.decide(LinkId(0), Modulation::Hybrid175, Db(9.6), t(0) + SimDuration::from_minutes(20));
        assert_eq!(d, Decision::StepTo(Modulation::Dp8Qam150));
    }

    #[test]
    fn sweep_counts_avoided_failures_and_downtime() {
        let (mut wan, mut c) = setup();
        // Link 0 degrades to 5 dB (50 G feasible): flap, not failure.
        // Link 1 dies outright (1 dB).
        let report = c.sweep(
            &mut wan,
            &[(LinkId(0), Some(Db(5.0))), (LinkId(1), Some(Db(1.0)))],
            t(0),
        );
        assert_eq!(report.failures_avoided, 1);
        assert_eq!(report.went_down, vec![LinkId(1)]);
        assert_eq!(wan.link(LinkId(0)).modulation, Modulation::DpBpsk50);
        assert!(c.is_down(LinkId(1)));
        assert!(report.downtime > SimDuration::ZERO);
        // Efficient procedure: downtime well under a second.
        assert!(report.downtime < SimDuration::from_secs(1));
    }

    #[test]
    fn recovery_from_down() {
        let (mut wan, mut c) = setup();
        c.sweep(&mut wan, &[(LinkId(0), Some(Db(1.0)))], t(0));
        assert!(c.is_down(LinkId(0)));
        // Light comes back at 8 dB: the link resumes (current rung 50 G is
        // feasible again after the crawl… it was never reconfigured, it
        // was down at 100 G; 8 dB supports 100 G so it simply recovers).
        let report = c.sweep(&mut wan, &[(LinkId(0), Some(Db(8.0)))], t(2));
        assert!(!c.is_down(LinkId(0)));
        assert_eq!(report.recovered, vec![LinkId(0)]);
    }

    /// A non-finite reading at `at` after a good 13 dB one at `t(0)`: the
    /// second sweep's report, and the topology and controller after it.
    fn sweep_non_finite(reading: f64, at: SimTime) -> (SweepReport, WanTopology, Controller) {
        let (mut wan, mut c) = setup();
        c.sweep(&mut wan, &[(LinkId(0), Some(Db(13.0)))], t(0));
        let report = c.sweep(&mut wan, &[(LinkId(0), Some(Db(reading)))], at);
        (report, wan, c)
    }

    #[test]
    fn non_finite_reading_falls_back_to_last_known_good() {
        for reading in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let at = t(0) + SimDuration::from_minutes(15);
            let (report, wan, c) = sweep_non_finite(reading, at);
            // Acted on the 13 dB reading: no step to the fastest rung, no
            // down, and the topology keeps the finite SNR.
            assert!(report.changes.is_empty(), "{reading}: {:?}", report.changes);
            assert!(report.went_down.is_empty(), "{reading}: went down");
            assert_eq!(report.stale_holds, 0, "{reading}");
            assert_eq!(wan.link(LinkId(0)).snr, Db(13.0), "{reading}");
            assert_eq!(c.health(LinkId(0), at), LinkHealth::Healthy, "{reading}");
            assert_eq!(c.states[0].last_good, Some((t(0), Db(13.0))), "{reading}");
        }
    }

    #[test]
    fn non_finite_reading_past_the_staleness_bound_is_a_stale_hold() {
        for reading in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let (report, wan, c) = sweep_non_finite(reading, t(2));
            let modulation = wan.link(LinkId(0)).modulation;
            assert_eq!(report.stale_holds, 1, "{reading}");
            assert!(report.changes.is_empty() && report.went_down.is_empty(), "{reading}");
            assert!(!c.is_down(LinkId(0)), "{reading}");
            assert_eq!(c.health(LinkId(0), t(2)), LinkHealth::Degraded, "{reading}");
            assert_eq!(wan.link(LinkId(0)).snr, Db(13.0), "{reading}");
            assert_eq!(wan.link(LinkId(0)).modulation, modulation, "{reading}");
        }
    }

    #[test]
    fn te_owned_mode_never_upgrades_but_still_protects() {
        let wan = builders::fig7_example();
        let c = Controller::new(
            ControllerConfig { auto_upgrade: false, ..ControllerConfig::default() },
            wan.n_links(),
            11,
        );
        // Plenty of margin, but upgrades belong to the TE layer now.
        assert_eq!(
            c.decide(LinkId(0), Modulation::DpQpsk100, Db(14.0), t(2)),
            Decision::Hold
        );
        // Safety actions still fire.
        assert_eq!(
            c.decide(LinkId(0), Modulation::DpQpsk100, Db(5.0), t(2)),
            Decision::StepTo(Modulation::DpBpsk50)
        );
    }

    /// Quarantines link 0 of a fresh controller by hammering it with
    /// faulted changes; returns it with `last_good` established.
    fn quarantined_setup(config: ControllerConfig) -> (WanTopology, Controller) {
        let mut wan = builders::fig7_example();
        // Armed faults are single-shot: with a retry budget the second
        // attempt would succeed, so failures only stick with no retries.
        let config = ControllerConfig { max_retries: 0, ..config };
        let quarantine_after = config.quarantine_after;
        let mut c = Controller::new(config, wan.n_links(), 9);
        c.sweep(&mut wan, &[(LinkId(0), Some(Db(13.0)))], t(0));
        for _ in 0..quarantine_after {
            c.inject_bvt_fault(LinkId(0), BvtFault::StuckLaser);
            let _ = c.execute_change(&mut wan, LinkId(0), Modulation::Dp16Qam200, t(0));
        }
        assert!(c.is_quarantined(LinkId(0), t(0)));
        (wan, c)
    }

    #[test]
    fn expired_quarantine_resets_the_failure_streak() {
        // QUARANTINE_HOLD is 4 h; one failure *after* release must not
        // instantly re-quarantine (quarantine_after is 3): the streak that
        // earned the quarantine is forgiven along with the hold.
        let (mut wan, mut c) = quarantined_setup(ControllerConfig::default());
        let after_hold = t(5);
        c.inject_bvt_fault(LinkId(0), BvtFault::StuckLaser);
        let result = c.execute_change(&mut wan, LinkId(0), Modulation::Dp16Qam200, after_hold);
        assert!(!result.applied);
        assert!(!result.quarantined, "first post-hold failure must not re-quarantine");
        assert!(!c.is_quarantined(LinkId(0), after_hold));
        assert_eq!(c.health(LinkId(0), after_hold), LinkHealth::Degraded);
        // A fresh streak of quarantine_after failures still quarantines.
        for _ in 0..2 {
            c.inject_bvt_fault(LinkId(0), BvtFault::StuckLaser);
            let _ = c.execute_change(&mut wan, LinkId(0), Modulation::Dp16Qam200, after_hold);
        }
        assert!(c.is_quarantined(LinkId(0), after_hold));
    }

    #[test]
    fn prepare_change_refuses_quarantined_links() {
        let (wan, mut c) = quarantined_setup(ControllerConfig::default());
        match c.prepare_change(&wan, LinkId(0), Modulation::Dp16Qam200, t(1)) {
            Err(RwcError::Quarantined { link, until }) => {
                assert_eq!(link, LinkId(0));
                assert_eq!(until, t(0) + SimDuration::from_hours(4));
            }
            other => panic!("expected Quarantined, got {other:?}"),
        }
        // After the hold the same prepare goes through.
        c.prepare_change(&wan, LinkId(0), Modulation::Dp16Qam200, t(5)).unwrap();
    }

    #[test]
    fn retry_backoff_is_jittered_but_seed_deterministic() {
        let run = |seed: u64| {
            let mut wan = builders::fig7_example();
            let mut c = Controller::new(ControllerConfig::default(), wan.n_links(), seed);
            c.inject_bvt_fault(LinkId(0), BvtFault::RelockFailure);
            c.sweep(&mut wan, &[(LinkId(0), Some(Db(14.0)))], t(0))
        };
        // Same seed → byte-identical SweepReport, including the jittered
        // backoff downtime.
        assert_eq!(run(7), run(7));
        // Different seeds decorrelate the backoff draws.
        assert_ne!(run(7).downtime, run(8).downtime);
    }

    #[test]
    fn link_health_state_transitions() {
        // Table-driven walk through the health lattice:
        //   healthy → degraded (failure) → quarantined (streak)
        //           → released (hold expiry) → healthy (success).
        struct Step {
            name: &'static str,
            // What to do before observing: how many faulted changes to run
            // and at what time, followed by a successful change or not.
            faulted_changes: u32,
            successful_change: bool,
            at: SimTime,
            expect: LinkHealth,
        }
        let steps = [
            Step {
                name: "fresh controller is healthy",
                faulted_changes: 0,
                successful_change: false,
                at: t(0),
                expect: LinkHealth::Healthy,
            },
            Step {
                name: "one failure degrades",
                faulted_changes: 1,
                successful_change: false,
                at: t(0),
                expect: LinkHealth::Degraded,
            },
            Step {
                name: "streak quarantines",
                faulted_changes: 2, // total 3 == quarantine_after
                successful_change: false,
                at: t(0),
                expect: LinkHealth::Quarantined,
            },
            Step {
                name: "hold expiry releases to healthy (streak forgiven)",
                faulted_changes: 0,
                successful_change: false,
                at: t(5), // past the 4 h hold
                expect: LinkHealth::Healthy,
            },
            Step {
                name: "post-release failure only degrades",
                faulted_changes: 1,
                successful_change: false,
                at: t(5),
                expect: LinkHealth::Degraded,
            },
            Step {
                name: "a successful change clears the streak",
                faulted_changes: 0,
                successful_change: true,
                at: t(6),
                expect: LinkHealth::Healthy,
            },
        ];
        let mut wan = builders::fig7_example();
        // Armed faults are single-shot, so retries would absorb them and
        // the change would still apply; no retries keeps one fault == one
        // failed change.
        let mut c = Controller::new(
            ControllerConfig { max_retries: 0, ..ControllerConfig::default() },
            wan.n_links(),
            5,
        );
        c.sweep(&mut wan, &[(LinkId(0), Some(Db(13.0)))], t(0));
        for step in steps {
            for _ in 0..step.faulted_changes {
                c.inject_bvt_fault(LinkId(0), BvtFault::StuckLaser);
                let _ = c.execute_change(&mut wan, LinkId(0), Modulation::Dp16Qam200, step.at);
            }
            if step.successful_change {
                let target = if wan.link(LinkId(0)).modulation == Modulation::Dp16Qam200 {
                    Modulation::DpQpsk100
                } else {
                    Modulation::Dp16Qam200
                };
                let result = c.execute_change(&mut wan, LinkId(0), target, step.at);
                assert!(result.applied, "{}: change should apply", step.name);
            }
            // `health` itself is a pure read; expiry is applied by the
            // first operation at `step.at` (execute_change above) or here
            // via an empty-change probe.
            c.expire_quarantine(LinkId(0), step.at);
            assert_eq!(c.health(LinkId(0), step.at), step.expect, "{}", step.name);
        }
    }

    // ---- staged prepare → commit → rollback ---------------------------

    #[test]
    fn staged_change_commits_like_the_direct_path() {
        let (mut wan, mut c) = setup();
        wan.set_snr(LinkId(0), Db(14.0));
        c.sweep(&mut wan, &[(LinkId(1), Some(Db(13.0)))], t(0)); // unrelated
        c.prepare_change(&wan, LinkId(0), Modulation::Dp16Qam200, t(0)).unwrap();
        // Prepared ≠ committed: the topology still carries the old rate.
        assert_eq!(wan.link(LinkId(0)).modulation, Modulation::DpQpsk100);
        let result = c.commit_change(&mut wan, LinkId(0), t(0));
        assert!(result.applied);
        assert!(!result.rolled_back);
        assert_eq!(wan.link(LinkId(0)).modulation, Modulation::Dp16Qam200);
    }

    #[test]
    fn failed_commit_rolls_back_to_prior_modulation() {
        let mut wan = builders::fig7_example();
        let mut c = Controller::new(
            ControllerConfig { max_retries: 0, ..ControllerConfig::default() },
            wan.n_links(),
            13,
        );
        wan.set_snr(LinkId(0), Db(14.0));
        c.sweep(&mut wan, &[(LinkId(0), Some(Db(14.0)))], t(0));
        // sweep may have auto-upgraded; pin a known starting point.
        wan.set_modulation(LinkId(0), Modulation::DpQpsk100);
        c.prepare_change(&wan, LinkId(0), Modulation::Dp16Qam200, t(1)).unwrap();
        c.inject_bvt_fault(LinkId(0), BvtFault::RelockFailure);
        let result = c.commit_change(&mut wan, LinkId(0), t(1));
        assert!(!result.applied);
        assert!(result.rolled_back);
        assert!(result.downtime > SimDuration::ZERO, "failed attempt still costs");
        // The link is back where it was: topology untouched, module
        // re-slaved to the prior format, locked and Ready.
        assert_eq!(wan.link(LinkId(0)).modulation, Modulation::DpQpsk100);
        assert_eq!(c.bvt(LinkId(0)).modulation(), Modulation::DpQpsk100);
        assert_eq!(c.bvt(LinkId(0)).status(), rwc_optics::bvt::BvtStatus::Ready);
        assert!(c.bvt(LinkId(0)).locked());
        assert_eq!(c.health(LinkId(0), t(1)), LinkHealth::Degraded);
    }

    #[test]
    fn hung_commit_is_bounded_by_the_watchdog() {
        let mut wan = builders::fig7_example();
        let mut c = Controller::new(
            ControllerConfig {
                procedure: ReconfigProcedure::Legacy,
                max_retries: 0,
                ..ControllerConfig::default()
            },
            wan.n_links(),
            17,
        );
        // A module whose dark reprogram hangs far past the commit deadline.
        let hung = LatencyModel { dsp_reprogram: (5_000.0, 0.1), ..LatencyModel::default() };
        c.bvts[0] = c.bvts[0].clone().with_model(hung);
        wan.set_snr(LinkId(0), Db(14.0));
        c.prepare_change(&wan, LinkId(0), Modulation::Dp16Qam200, t(0)).unwrap();
        let result = c.commit_change(&mut wan, LinkId(0), t(0));
        assert!(!result.applied);
        assert!(result.rolled_back);
        // Downtime = watchdog deadline + module recovery (laser-up+relock,
        // ≤ ~400 s at the tail) — bounded, not the unbounded hang.
        assert!(result.downtime >= COMMIT_DEADLINE);
        assert!(
            result.downtime < COMMIT_DEADLINE + SimDuration::from_secs(600),
            "{}",
            result.downtime
        );
        assert_eq!(wan.link(LinkId(0)).modulation, Modulation::DpQpsk100);
    }

    #[test]
    fn commit_without_prepare_is_a_noop() {
        let (mut wan, mut c) = setup();
        let result = c.commit_change(&mut wan, LinkId(0), t(0));
        assert!(!result.applied);
        assert!(!result.rolled_back);
        assert_eq!(result.downtime, SimDuration::ZERO);
    }

    #[test]
    fn abort_change_is_free() {
        let (mut wan, mut c) = setup();
        wan.set_snr(LinkId(0), Db(14.0));
        c.prepare_change(&wan, LinkId(0), Modulation::Dp16Qam200, t(0)).unwrap();
        let change = c.abort_change(LinkId(0)).expect("a change was pending");
        assert_eq!(change.target, Modulation::Dp16Qam200);
        assert_eq!(wan.link(LinkId(0)).modulation, Modulation::DpQpsk100);
        assert_eq!(c.bvt(LinkId(0)).now(), SimTime::EPOCH, "no downtime charged");
        // Slot is free again.
        c.prepare_change(&wan, LinkId(0), Modulation::Hybrid175, t(0)).unwrap();
    }

    #[test]
    fn legacy_procedure_costs_minutes() {
        let wan = builders::fig7_example();
        let mut c = Controller::new(
            ControllerConfig {
                procedure: ReconfigProcedure::Legacy,
                ..ControllerConfig::default()
            },
            wan.n_links(),
            7,
        );
        let mut wan = wan;
        let report = c.sweep(&mut wan, &[(LinkId(0), Some(Db(14.0)))], t(0));
        assert!(report.downtime > SimDuration::from_secs(20), "{}", report.downtime);
    }
}
