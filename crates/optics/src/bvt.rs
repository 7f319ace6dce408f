//! Bandwidth-variable transceiver (BVT) simulation.
//!
//! The paper's §3.1 testbed programs modulation changes on an Acacia
//! flex-rate transceiver over its MDIO management interface and measures the
//! resulting link downtime. Two procedures are compared:
//!
//! - **Legacy** (what shipping firmware does): bring the module to a low
//!   power state, power down the laser, reprogram the DSP, power the laser
//!   back up and wait for carrier relock. Average downtime ≈ 68 s — a hard
//!   outage at the IP layer.
//! - **Efficient** (the paper's proposal): keep the laser lit, reprogram the
//!   modulator/DSP inline and resynchronise. Average downtime ≈ 35 ms —
//!   effectively hitless for WAN traffic engineering.
//!
//! The state machine, the per-phase latency distributions and the
//! MDIO-style register interface live here; Fig. 6b is regenerated by
//! sampling [`sample_latencies`] 200 times like the paper's 200 trials.

use crate::modulation::{Modulation, ModulationTable};
use rwc_obs::Observer;
use rwc_util::rng::Xoshiro256;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::Db;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Which reconfiguration procedure the firmware uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ReconfigProcedure {
    /// Power-cycle the laser around the DSP reprogram (stock firmware).
    Legacy,
    /// Reprogram with the laser lit (the paper's proposed fast path).
    Efficient,
}

/// One phase of a reconfiguration, with how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Phase {
    /// Laser power-down (legacy only).
    LaserPowerDown,
    /// Full DSP/framer reprogram with the module dark (legacy only).
    DspReprogram,
    /// Laser power-up and carrier relock (legacy only; dominates downtime).
    LaserPowerUpRelock,
    /// Inline modulator/DSP reprogram with the laser lit (efficient only).
    InlineReprogram,
    /// Receiver resynchronisation after an inline change (efficient only).
    Resync,
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Phase::LaserPowerDown => "laser-power-down",
            Phase::DspReprogram => "dsp-reprogram",
            Phase::LaserPowerUpRelock => "laser-up+relock",
            Phase::InlineReprogram => "inline-reprogram",
            Phase::Resync => "resync",
        };
        f.write_str(s)
    }
}

/// Outcome of one modulation change.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReconfigReport {
    /// Format before the change.
    pub from: Modulation,
    /// Format after the change.
    pub to: Modulation,
    /// Procedure used.
    pub procedure: ReconfigProcedure,
    /// Per-phase durations, in execution order.
    pub phases: Vec<(Phase, SimDuration)>,
    /// Total time the link carried no traffic.
    pub downtime: SimDuration,
}

impl ReconfigReport {
    /// Sum of all phase durations (equals downtime: every phase of both
    /// procedures interrupts traffic; the efficient procedure wins by
    /// making the phases short, not by hiding them).
    pub fn total(&self) -> SimDuration {
        self.phases
            .iter()
            .fold(SimDuration::ZERO, |acc, &(_, d)| acc + d)
    }
}

/// Latency model: per-phase lognormal parameters `(median_secs, sigma)`.
///
/// Medians/sigmas are calibrated so the *mean* total downtime lands at the
/// paper's ≈68 s (legacy) and ≈35 ms (efficient); see DESIGN.md §5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyModel {
    /// Legacy laser power-down `(median s, sigma)`.
    pub laser_down: (f64, f64),
    /// Legacy dark DSP reprogram `(median s, sigma)`.
    pub dsp_reprogram: (f64, f64),
    /// Legacy laser power-up + relock `(median s, sigma)`.
    pub laser_up_relock: (f64, f64),
    /// Efficient inline reprogram `(median s, sigma)`.
    pub inline_reprogram: (f64, f64),
    /// Efficient resync `(median s, sigma)`.
    pub resync: (f64, f64),
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self {
            laser_down: (1.8, 0.25),
            dsp_reprogram: (3.5, 0.30),
            laser_up_relock: (58.0, 0.35),
            inline_reprogram: (0.022, 0.30),
            resync: (0.011, 0.35),
        }
    }
}

impl LatencyModel {
    fn draw(&self, params: (f64, f64), rng: &mut Xoshiro256) -> SimDuration {
        SimDuration::from_secs_f64(rng.lognormal_median(params.0, params.1))
    }

    /// Samples the phase list for one reconfiguration.
    pub(crate) fn sample_phases(
        &self,
        procedure: ReconfigProcedure,
        rng: &mut Xoshiro256,
    ) -> Vec<(Phase, SimDuration)> {
        match procedure {
            ReconfigProcedure::Legacy => vec![
                (Phase::LaserPowerDown, self.draw(self.laser_down, rng)),
                (Phase::DspReprogram, self.draw(self.dsp_reprogram, rng)),
                (Phase::LaserPowerUpRelock, self.draw(self.laser_up_relock, rng)),
            ],
            ReconfigProcedure::Efficient => vec![
                (Phase::InlineReprogram, self.draw(self.inline_reprogram, rng)),
                (Phase::Resync, self.draw(self.resync, rng)),
            ],
        }
    }
}

/// Samples `n` total-downtime values for a procedure — the paper's Fig. 6b
/// series (it used 200 trials).
pub fn sample_latencies(
    procedure: ReconfigProcedure,
    model: &LatencyModel,
    n: usize,
    rng: &mut Xoshiro256,
) -> Vec<SimDuration> {
    (0..n)
        .map(|_| {
            model
                .sample_phases(procedure, rng)
                .into_iter()
                .fold(SimDuration::ZERO, |acc, (_, d)| acc + d)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// MDIO register interface
// ---------------------------------------------------------------------------

/// MDIO register addresses of the simulated module (clause-45 style
/// vendor-space layout).
pub mod regs {
    /// Read-only vendor/module identifier.
    pub const VENDOR_ID: u16 = 0x0000;
    /// Current modulation format (see `Bvt::encode_modulation`).
    pub const MODULATION: u16 = 0x0010;
    /// Procedure select: 0 = legacy, 1 = efficient.
    pub const PROCEDURE: u16 = 0x0011;
    /// Status bits: bit0 laser-on, bit1 carrier-locked, bit2 faulted.
    pub const STATUS: u16 = 0x0012;
    /// Count of completed reconfigurations since power-on.
    pub const RECONFIG_COUNT: u16 = 0x0013;
}

/// An injectable hardware fault, armed via [`Bvt::inject_fault`].
///
/// Faults are *transient*: each armed fault trips exactly one operation
/// (the next one it applies to) and is then cleared. Sustained faults are
/// modelled by re-arming every tick while a fault window is active — that
/// is what the `rwc-faults` plan interpreter does.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BvtFault {
    /// The carrier fails to relock after the reprogram. The laser is
    /// healthy; the receiver cannot recover the signal.
    RelockFailure,
    /// Legacy procedure: the laser refuses to power back up. Efficient
    /// procedure: the modulator driver wedges before reprogramming.
    StuckLaser,
    /// The MDIO management bus times out on the next transaction (reads,
    /// writes and programmatic reconfigure commands all ride the bus).
    MdioTimeout,
    /// The next MDIO read returns a corrupted word.
    CorruptRegister,
}

/// Module lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BvtStatus {
    /// Operating normally; reconfigurations accepted.
    Ready,
    /// A reconfiguration failed mid-flight and the module is stuck in it:
    /// the carrier is not locked and new commands are rejected with
    /// [`BvtError::Busy`] until [`Bvt::reset`] completes.
    Faulted,
}

/// A staged modulation change: validated and reserved by [`Bvt::prepare`],
/// waiting for [`Bvt::commit`] (or [`Bvt::abort`]). While a change is
/// merely prepared the lit laser still carries `from` — nothing about the
/// light changes until commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PreparedChange {
    /// Format the module is still carrying.
    pub from: Modulation,
    /// Format reserved for commit.
    pub target: Modulation,
    /// When the reservation was made.
    pub since: SimTime,
}

/// Errors surfaced by the module.
#[derive(Debug, Clone, PartialEq)]
pub enum BvtError {
    /// Register address is not mapped.
    UnknownRegister(u16),
    /// Value written to a register is invalid for that register.
    InvalidValue {
        /// Register that rejected the write.
        reg: u16,
        /// The offending value.
        value: u16 },
    /// A read-only register was written.
    ReadOnly(u16),
    /// A reconfiguration failed mid-flight. The module is left
    /// [`BvtStatus::Faulted`] — carrier unlocked, the link carries no
    /// traffic — until [`Bvt::reset`].
    ReconfigFailed {
        /// Phase in which the failure occurred.
        phase: Phase,
        /// The underlying hardware fault.
        fault: BvtFault,
        /// Downtime already accrued when the attempt was abandoned.
        elapsed: SimDuration,
    },
    /// The MDIO bus timed out; the command never reached the module and
    /// no state changed.
    Timeout,
    /// The module is mid-reconfiguration (a previous attempt failed and
    /// was not yet [`Bvt::reset`]); the write was rejected.
    Busy,
    /// [`Bvt::prepare`] refused the reservation: the measured SNR does not
    /// clear the target's decode threshold by the requested margin, so
    /// committing would light a format the signal cannot carry.
    InsufficientMargin {
        /// The format that was requested.
        target: Modulation,
        /// Threshold + margin the SNR had to clear.
        required: Db,
        /// The SNR that was offered.
        actual: Db,
    },
    /// A change is already prepared and neither committed nor aborted;
    /// the module holds at most one reservation.
    AlreadyPrepared(PreparedChange),
    /// [`Bvt::commit`] was called with no prepared change.
    NotPrepared,
    /// The commit watchdog fired: a phase hung past the deadline. Exactly
    /// `deadline` of downtime was charged, the carrier is unlocked and the
    /// module is [`BvtStatus::Faulted`] until [`Bvt::reset`].
    StageTimeout {
        /// Phase that hung.
        phase: Phase,
        /// Downtime charged (== `deadline`).
        elapsed: SimDuration,
        /// The watchdog deadline that fired.
        deadline: SimDuration,
    },
}

impl fmt::Display for BvtError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BvtError::UnknownRegister(r) => write!(f, "unknown MDIO register {r:#06x}"),
            BvtError::InvalidValue { reg, value } => {
                write!(f, "invalid value {value:#06x} for register {reg:#06x}")
            }
            BvtError::ReadOnly(r) => write!(f, "register {r:#06x} is read-only"),
            BvtError::ReconfigFailed { phase, fault, elapsed } => {
                write!(f, "reconfiguration failed in {phase} ({fault:?}) after {elapsed}")
            }
            BvtError::Timeout => f.write_str("MDIO transaction timed out"),
            BvtError::Busy => f.write_str("module busy: stuck mid-reconfiguration, reset required"),
            BvtError::InsufficientMargin { target, required, actual } => write!(
                f,
                "insufficient margin for {target}: need {required}, have {actual}"
            ),
            BvtError::AlreadyPrepared(p) => {
                write!(f, "a change to {} is already prepared (since {})", p.target, p.since)
            }
            BvtError::NotPrepared => f.write_str("commit without a prepared change"),
            BvtError::StageTimeout { phase, deadline, .. } => {
                write!(f, "commit watchdog fired: {phase} hung past {deadline}")
            }
        }
    }
}

impl std::error::Error for BvtError {}

/// A simulated bandwidth-variable transceiver.
///
/// Drive it either through [`Bvt::reconfigure`] (programmatic API) or by
/// writing the [`regs::MODULATION`] register through [`Bvt::mdio_write`],
/// which is how the paper's testbed triggers changes.
///
/// Reconfiguration is fallible: a fault armed with [`Bvt::inject_fault`]
/// makes the next applicable operation fail at a specific [`Phase`], after
/// which the module reports [`BvtStatus::Faulted`] and rejects commands
/// until [`Bvt::reset`].
///
/// ```
/// use rwc_optics::bvt::{Bvt, ReconfigProcedure};
/// use rwc_optics::Modulation;
/// use rwc_util::rng::Xoshiro256;
/// use rwc_util::time::SimDuration;
///
/// let mut rng = Xoshiro256::seed_from_u64(1);
/// let mut bvt = Bvt::new(Modulation::DpQpsk100);
/// bvt.set_procedure(ReconfigProcedure::Efficient);
/// let report = bvt.reconfigure(Modulation::Dp16Qam200, &mut rng).expect("no fault armed");
/// assert!(bvt.laser_on(), "efficient procedure keeps the laser lit");
/// assert!(report.downtime < SimDuration::from_millis(500));
/// ```
#[derive(Debug, Clone)]
pub struct Bvt {
    modulation: Modulation,
    procedure: ReconfigProcedure,
    model: LatencyModel,
    clock: SimTime,
    laser_on: bool,
    locked: bool,
    status: BvtStatus,
    pending_fault: Option<BvtFault>,
    prepared: Option<PreparedChange>,
    reconfig_count: u16,
    registers: BTreeMap<u16, u16>,
    obs: Arc<dyn Observer>,
}

/// The per-phase duration histogram a [`Phase`] feeds.
fn phase_metric(phase: Phase) -> &'static str {
    match phase {
        Phase::LaserPowerDown => "bvt.phase_millis.laser_power_down",
        Phase::DspReprogram => "bvt.phase_millis.dsp_reprogram",
        Phase::LaserPowerUpRelock => "bvt.phase_millis.laser_power_up_relock",
        Phase::InlineReprogram => "bvt.phase_millis.inline_reprogram",
        Phase::Resync => "bvt.phase_millis.resync",
    }
}

impl Bvt {
    /// Vendor id returned by [`regs::VENDOR_ID`].
    pub const VENDOR_ID: u16 = 0xACAC;

    /// A module powered up at the given format, laser on and locked.
    pub fn new(initial: Modulation) -> Self {
        Self {
            modulation: initial,
            procedure: ReconfigProcedure::Legacy,
            model: LatencyModel::default(),
            clock: SimTime::EPOCH,
            laser_on: true,
            locked: true,
            status: BvtStatus::Ready,
            pending_fault: None,
            prepared: None,
            reconfig_count: 0,
            registers: BTreeMap::new(),
            obs: rwc_obs::noop(),
        }
    }

    /// Attaches an observer; phase timings and reconfiguration outcomes
    /// land there. Defaults to the no-op observer.
    pub fn set_observer(&mut self, obs: Arc<dyn Observer>) {
        self.obs = obs;
    }

    /// Replaces the latency model (for sensitivity studies).
    pub fn with_model(mut self, model: LatencyModel) -> Self {
        self.model = model;
        self
    }

    /// Current modulation format.
    pub fn modulation(&self) -> Modulation {
        self.modulation
    }

    /// Currently selected procedure.
    pub fn procedure(&self) -> ReconfigProcedure {
        self.procedure
    }

    /// Selects the procedure used by subsequent reconfigurations.
    pub fn set_procedure(&mut self, p: ReconfigProcedure) {
        self.procedure = p;
    }

    /// The module's internal clock (advances only during reconfigurations).
    pub fn now(&self) -> SimTime {
        self.clock
    }

    /// Laser state.
    pub fn laser_on(&self) -> bool {
        self.laser_on
    }

    /// Carrier lock state.
    pub fn locked(&self) -> bool {
        self.locked
    }

    /// Current lifecycle state.
    pub fn status(&self) -> BvtStatus {
        self.status
    }

    /// The fault armed for the next applicable operation, if any.
    pub fn pending_fault(&self) -> Option<BvtFault> {
        self.pending_fault
    }

    /// Arms a fault: the next operation the fault applies to fails.
    /// Re-arming replaces any previously armed fault.
    pub fn inject_fault(&mut self, fault: BvtFault) {
        self.pending_fault = Some(fault);
    }

    /// Clears a [`BvtStatus::Faulted`] condition: power-cycles the laser if
    /// it is dark, re-acquires the carrier and returns the module to
    /// [`BvtStatus::Ready`] at whatever format its registers hold. Returns
    /// the downtime the recovery itself cost (a laser-up+relock draw if the
    /// laser was dark, a resync draw otherwise). Resetting a healthy,
    /// locked module is free. A pending fault is discarded — the power
    /// cycle clears transient conditions; a *sustained* fault window is
    /// modelled by the caller re-arming on its next tick. Any prepared
    /// change is dropped too — after a reset the caller must re-prepare.
    pub fn reset(&mut self, rng: &mut Xoshiro256) -> SimDuration {
        self.pending_fault = None;
        self.prepared = None;
        if self.status == BvtStatus::Ready && self.locked {
            return SimDuration::ZERO;
        }
        let dur = if self.laser_on {
            self.model.draw(self.model.resync, rng)
        } else {
            self.model.draw(self.model.laser_up_relock, rng)
        };
        self.laser_on = true;
        self.locked = true;
        self.status = BvtStatus::Ready;
        self.clock += dur;
        dur
    }

    /// Forces the modulation register without running a reconfiguration
    /// cycle — for callers (the TE pipeline) that already charged the
    /// change's downtime elsewhere and only need the register file to
    /// agree with the plant.
    pub fn sync_modulation(&mut self, m: Modulation) {
        self.modulation = m;
    }

    /// Changes modulation using the currently selected procedure.
    ///
    /// A no-op change (same format) returns a zero-downtime report without
    /// touching the laser.
    ///
    /// # Errors
    ///
    /// - [`BvtError::Busy`] if the module is [`BvtStatus::Faulted`] (a
    ///   previous attempt failed and was not reset). No state changes.
    /// - [`BvtError::Timeout`] if an armed [`BvtFault::MdioTimeout`] eats
    ///   the command before it reaches the module. No state changes.
    /// - [`BvtError::ReconfigFailed`] if an armed [`BvtFault::RelockFailure`]
    ///   or [`BvtFault::StuckLaser`] trips mid-procedure. The partial
    ///   downtime is charged (`elapsed`), the carrier is left unlocked and
    ///   the module is [`BvtStatus::Faulted`] until [`Bvt::reset`]. Whether
    ///   the modulation register holds the old or new format depends on
    ///   whether the reprogram phase completed before the failure.
    pub fn reconfigure(
        &mut self,
        target: Modulation,
        rng: &mut Xoshiro256,
    ) -> Result<ReconfigReport, BvtError> {
        self.run_reconfig(target, None, rng)
    }

    /// The change currently prepared and awaiting commit, if any.
    pub fn prepared(&self) -> Option<PreparedChange> {
        self.prepared
    }

    /// Stage 1 of a make-before-break change: validate and reserve.
    ///
    /// Checks that `snr` clears the target's decode threshold by `margin`
    /// against `table`, then records the reservation. *Nothing optical
    /// happens*: the laser keeps carrying the old format until
    /// [`Bvt::commit`], so a prepared-but-never-committed change costs
    /// zero downtime and [`Bvt::abort`] is always free.
    ///
    /// # Errors
    ///
    /// - [`BvtError::Timeout`] if an armed [`BvtFault::MdioTimeout`] eats
    ///   the command (the reservation rides the management bus too).
    /// - [`BvtError::Busy`] if the module is [`BvtStatus::Faulted`].
    /// - [`BvtError::AlreadyPrepared`] if a reservation is pending —
    ///   commit or abort it first.
    /// - [`BvtError::InsufficientMargin`] if `snr` is below the target's
    ///   threshold plus `margin`. No reservation is made.
    pub fn prepare(
        &mut self,
        target: Modulation,
        snr: Db,
        table: &ModulationTable,
        margin: Db,
        now: SimTime,
    ) -> Result<PreparedChange, BvtError> {
        if self.pending_fault == Some(BvtFault::MdioTimeout) {
            self.pending_fault = None;
            return Err(BvtError::Timeout);
        }
        if self.status == BvtStatus::Faulted {
            return Err(BvtError::Busy);
        }
        if let Some(p) = self.prepared {
            return Err(BvtError::AlreadyPrepared(p));
        }
        let required = Db(table
            .threshold(target)
            .map_or(f64::INFINITY, |t| t.value() + margin.value()));
        if snr.value() < required.value() {
            return Err(BvtError::InsufficientMargin { target, required, actual: snr });
        }
        let change = PreparedChange { from: self.modulation, target, since: now };
        self.prepared = Some(change);
        self.obs.incr("bvt.prepares", 1);
        Ok(change)
    }

    /// Stage 2: execute the prepared change under a watchdog.
    ///
    /// Runs the selected procedure toward the reserved target. If the
    /// accumulated phase time would exceed `deadline`, the watchdog abandons
    /// the attempt: exactly `deadline` of downtime is charged, the module is
    /// left [`BvtStatus::Faulted`] and [`BvtError::StageTimeout`] is
    /// returned — a hung commit becomes a typed, bounded failure instead of
    /// an unbounded hang.
    ///
    /// The reservation is consumed on success and on mid-procedure failure
    /// (the plant no longer matches what was validated); it *survives* a
    /// pre-procedure [`BvtError::Timeout`], where the command never reached
    /// the module and an immediate retry is sound.
    pub fn commit(
        &mut self,
        deadline: SimDuration,
        rng: &mut Xoshiro256,
    ) -> Result<ReconfigReport, BvtError> {
        let change = self.prepared.ok_or(BvtError::NotPrepared)?;
        let result = self.run_reconfig(change.target, Some(deadline), rng);
        if !matches!(result, Err(BvtError::Timeout)) {
            self.prepared = None;
        }
        if result.is_ok() {
            self.obs.incr("bvt.commits", 1);
        }
        result
    }

    /// Stage 3 (the unhappy path): drop the reservation.
    ///
    /// Free by construction — prepare changed nothing optical, so there is
    /// nothing to undo. Returns the abandoned change, if one was pending.
    pub fn abort(&mut self) -> Option<PreparedChange> {
        let dropped = self.prepared.take();
        if dropped.is_some() {
            self.obs.incr("bvt.aborts", 1);
        }
        dropped
    }

    fn run_reconfig(
        &mut self,
        target: Modulation,
        deadline: Option<SimDuration>,
        rng: &mut Xoshiro256,
    ) -> Result<ReconfigReport, BvtError> {
        if self.pending_fault == Some(BvtFault::MdioTimeout) {
            self.pending_fault = None;
            return Err(BvtError::Timeout);
        }
        if self.status == BvtStatus::Faulted {
            return Err(BvtError::Busy);
        }
        let from = self.modulation;
        if target == from {
            return Ok(ReconfigReport {
                from,
                to: target,
                procedure: self.procedure,
                phases: Vec::new(),
                downtime: SimDuration::ZERO,
            });
        }
        let failure = match self.pending_fault {
            Some(f @ (BvtFault::RelockFailure | BvtFault::StuckLaser)) => {
                self.pending_fault = None;
                Some(f)
            }
            _ => None,
        };
        let fail_phase = failure.map(|f| match (self.procedure, f) {
            // Legacy: both hardware faults surface in the dominant
            // laser-up+relock phase (the laser never lights, or lights but
            // the carrier never locks).
            (ReconfigProcedure::Legacy, _) => Phase::LaserPowerUpRelock,
            (ReconfigProcedure::Efficient, BvtFault::RelockFailure) => Phase::Resync,
            (ReconfigProcedure::Efficient, _) => Phase::InlineReprogram,
        });
        let phases = self.model.sample_phases(self.procedure, rng);
        let mut downtime = SimDuration::ZERO;
        let mut reprogrammed = false;
        for &(phase, dur) in &phases {
            // Watchdog: a phase that would run past the deadline is a hung
            // commit. Charge exactly the deadline (the watchdog fires then,
            // not when the phase would have finished) and fault out.
            if let Some(dl) = deadline {
                if downtime + dur > dl {
                    let charged =
                        SimDuration::from_millis(dl.as_millis() - downtime.as_millis());
                    self.clock += charged;
                    self.locked = false;
                    if reprogrammed {
                        self.modulation = target;
                    }
                    self.status = BvtStatus::Faulted;
                    self.obs.incr("bvt.reconfig_failures", 1);
                    return Err(BvtError::StageTimeout { phase, elapsed: dl, deadline: dl });
                }
            }
            downtime += dur;
            self.clock += dur;
            if self.obs.enabled() {
                self.obs.record(phase_metric(phase), dur.as_millis() as f64);
            }
            let fails_here = fail_phase == Some(phase);
            match phase {
                Phase::LaserPowerDown => {
                    self.laser_on = false;
                    self.locked = false;
                }
                Phase::DspReprogram => {
                    reprogrammed = true;
                }
                Phase::LaserPowerUpRelock => {
                    // A stuck laser never lights; a relock failure lights
                    // the laser but never locks the carrier.
                    self.laser_on = !fails_here || failure == Some(BvtFault::RelockFailure);
                    self.locked = !fails_here;
                }
                Phase::InlineReprogram => {
                    self.locked = false; // laser stays lit
                    if !fails_here {
                        reprogrammed = true;
                    }
                }
                Phase::Resync => {
                    self.locked = !fails_here;
                }
            }
            if fails_here {
                if reprogrammed {
                    self.modulation = target;
                }
                self.status = BvtStatus::Faulted;
                self.obs.incr("bvt.reconfig_failures", 1);
                return Err(BvtError::ReconfigFailed {
                    phase,
                    fault: failure.expect("fail_phase implies failure"),
                    elapsed: downtime,
                });
            }
        }
        self.modulation = target;
        self.reconfig_count = self.reconfig_count.wrapping_add(1);
        self.obs.incr("bvt.reconfigs", 1);
        Ok(ReconfigReport { from, to: target, procedure: self.procedure, phases, downtime })
    }

    fn encode_modulation(m: Modulation) -> u16 {
        Modulation::LADDER.iter().position(|&x| x == m).unwrap() as u16
    }

    fn decode_modulation(v: u16) -> Option<Modulation> {
        Modulation::LADDER.get(v as usize).copied()
    }

    fn read_register(&self, reg: u16) -> Result<u16, BvtError> {
        match reg {
            regs::VENDOR_ID => Ok(Self::VENDOR_ID),
            regs::MODULATION => Ok(Self::encode_modulation(self.modulation)),
            regs::PROCEDURE => Ok(match self.procedure {
                ReconfigProcedure::Legacy => 0,
                ReconfigProcedure::Efficient => 1,
            }),
            regs::STATUS => Ok(u16::from(self.laser_on)
                | (u16::from(self.locked) << 1)
                | (u16::from(self.status == BvtStatus::Faulted) << 2)),
            regs::RECONFIG_COUNT => Ok(self.reconfig_count),
            other => self
                .registers
                .get(&other)
                .copied()
                .ok_or(BvtError::UnknownRegister(other)),
        }
    }

    /// Reads an MDIO register.
    ///
    /// Takes `&mut self` because bus faults are consumed by the
    /// transaction: an armed [`BvtFault::MdioTimeout`] makes this return
    /// [`BvtError::Timeout`]; an armed [`BvtFault::CorruptRegister`]
    /// returns the stored word XORed with `0x5A5A` (address decode still
    /// fails normally for unmapped registers).
    pub fn mdio_read(&mut self, reg: u16) -> Result<u16, BvtError> {
        match self.pending_fault {
            Some(BvtFault::MdioTimeout) => {
                self.pending_fault = None;
                Err(BvtError::Timeout)
            }
            Some(BvtFault::CorruptRegister) => {
                self.pending_fault = None;
                self.read_register(reg).map(|v| v ^ 0x5A5A)
            }
            _ => self.read_register(reg),
        }
    }

    /// Writes an MDIO register. Writing [`regs::MODULATION`] triggers a
    /// reconfiguration (this is how the paper's testbed drives the module).
    ///
    /// While the module is [`BvtStatus::Faulted`] every write is rejected
    /// with [`BvtError::Busy`]; reads remain possible so a controller can
    /// observe the stuck [`regs::STATUS`].
    pub fn mdio_write(
        &mut self,
        reg: u16,
        value: u16,
        rng: &mut Xoshiro256,
    ) -> Result<Option<ReconfigReport>, BvtError> {
        if self.pending_fault == Some(BvtFault::MdioTimeout) {
            self.pending_fault = None;
            return Err(BvtError::Timeout);
        }
        if self.status == BvtStatus::Faulted {
            return Err(BvtError::Busy);
        }
        match reg {
            regs::VENDOR_ID | regs::STATUS | regs::RECONFIG_COUNT => Err(BvtError::ReadOnly(reg)),
            regs::MODULATION => {
                let target = Self::decode_modulation(value)
                    .ok_or(BvtError::InvalidValue { reg, value })?;
                self.reconfigure(target, rng).map(Some)
            }
            regs::PROCEDURE => {
                self.procedure = match value {
                    0 => ReconfigProcedure::Legacy,
                    1 => ReconfigProcedure::Efficient,
                    _ => return Err(BvtError::InvalidValue { reg, value }),
                };
                Ok(None)
            }
            other => {
                // Vendor scratch space.
                self.registers.insert(other, value);
                Ok(None)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_util::stats::Summary;

    fn mean_secs(procedure: ReconfigProcedure, seed: u64, n: usize) -> f64 {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        let model = LatencyModel::default();
        let lat = sample_latencies(procedure, &model, n, &mut rng);
        lat.iter().map(|d| d.as_secs_f64()).sum::<f64>() / n as f64
    }

    #[test]
    fn legacy_mean_near_68_seconds() {
        let mean = mean_secs(ReconfigProcedure::Legacy, 1, 5_000);
        assert!((60.0..76.0).contains(&mean), "mean={mean}");
    }

    #[test]
    fn efficient_mean_near_35_ms() {
        let mean = mean_secs(ReconfigProcedure::Efficient, 2, 5_000);
        assert!((0.030..0.040).contains(&mean), "mean={mean}");
    }

    #[test]
    fn three_orders_of_magnitude_apart() {
        let ratio = mean_secs(ReconfigProcedure::Legacy, 3, 2_000)
            / mean_secs(ReconfigProcedure::Efficient, 4, 2_000);
        assert!(ratio > 1_000.0, "ratio={ratio}");
    }

    #[test]
    fn legacy_phases_cycle_laser() {
        let mut rng = Xoshiro256::seed_from_u64(5);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        let report = bvt.reconfigure(Modulation::Dp16Qam200, &mut rng).unwrap();
        let phases: Vec<Phase> = report.phases.iter().map(|&(p, _)| p).collect();
        assert_eq!(
            phases,
            vec![Phase::LaserPowerDown, Phase::DspReprogram, Phase::LaserPowerUpRelock]
        );
        assert!(bvt.laser_on() && bvt.locked(), "module ends up healthy");
        assert_eq!(bvt.modulation(), Modulation::Dp16Qam200);
        assert_eq!(report.downtime, report.total());
    }

    #[test]
    fn efficient_keeps_laser_lit() {
        let mut rng = Xoshiro256::seed_from_u64(6);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.set_procedure(ReconfigProcedure::Efficient);
        let report = bvt.reconfigure(Modulation::Dp8Qam150, &mut rng).unwrap();
        assert!(report.phases.iter().all(|&(p, _)| p != Phase::LaserPowerDown));
        assert!(bvt.laser_on());
        assert!(report.downtime < SimDuration::from_millis(500));
    }

    #[test]
    fn noop_change_is_free() {
        let mut rng = Xoshiro256::seed_from_u64(7);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        let report = bvt.reconfigure(Modulation::DpQpsk100, &mut rng).unwrap();
        assert_eq!(report.downtime, SimDuration::ZERO);
        assert!(report.phases.is_empty());
        assert_eq!(bvt.mdio_read(regs::RECONFIG_COUNT).unwrap(), 0, "no-ops are not counted");
    }

    #[test]
    fn clock_advances_by_downtime() {
        let mut rng = Xoshiro256::seed_from_u64(8);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        let r1 = bvt.reconfigure(Modulation::Hybrid125, &mut rng).unwrap();
        let r2 = bvt.reconfigure(Modulation::DpQpsk100, &mut rng).unwrap();
        assert_eq!(bvt.now(), SimTime::EPOCH + r1.downtime + r2.downtime);
        assert_eq!(bvt.mdio_read(regs::RECONFIG_COUNT).unwrap(), 2);
    }

    #[test]
    fn mdio_drive_modulation_change() {
        let mut rng = Xoshiro256::seed_from_u64(9);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        assert_eq!(bvt.mdio_read(regs::VENDOR_ID).unwrap(), Bvt::VENDOR_ID);
        // Select efficient procedure, then write the 200 G format code.
        bvt.mdio_write(regs::PROCEDURE, 1, &mut rng).unwrap();
        let code = 5; // Dp16Qam200 is LADDER[5]
        let report = bvt.mdio_write(regs::MODULATION, code, &mut rng).unwrap().unwrap();
        assert_eq!(report.procedure, ReconfigProcedure::Efficient);
        assert_eq!(bvt.mdio_read(regs::MODULATION).unwrap(), 5);
        assert_eq!(bvt.mdio_read(regs::RECONFIG_COUNT).unwrap(), 1);
        // Status: laser on (bit0) and locked (bit1).
        assert_eq!(bvt.mdio_read(regs::STATUS).unwrap(), 0b11);
    }

    #[test]
    fn mdio_error_paths() {
        let mut rng = Xoshiro256::seed_from_u64(10);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        assert_eq!(
            bvt.mdio_write(regs::STATUS, 1, &mut rng),
            Err(BvtError::ReadOnly(regs::STATUS))
        );
        assert_eq!(
            bvt.mdio_write(regs::MODULATION, 99, &mut rng),
            Err(BvtError::InvalidValue { reg: regs::MODULATION, value: 99 })
        );
        assert_eq!(
            bvt.mdio_write(regs::PROCEDURE, 7, &mut rng),
            Err(BvtError::InvalidValue { reg: regs::PROCEDURE, value: 7 })
        );
        assert_eq!(bvt.mdio_read(0x7777), Err(BvtError::UnknownRegister(0x7777)));
        // Scratch space round-trips.
        bvt.mdio_write(0x7777, 42, &mut rng).unwrap();
        assert_eq!(bvt.mdio_read(0x7777).unwrap(), 42);
    }

    #[test]
    fn relock_failure_legacy_leaves_module_faulted() {
        let mut rng = Xoshiro256::seed_from_u64(20);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.inject_fault(BvtFault::RelockFailure);
        let err = bvt.reconfigure(Modulation::Dp16Qam200, &mut rng).unwrap_err();
        match err {
            BvtError::ReconfigFailed { phase, fault, elapsed } => {
                assert_eq!(phase, Phase::LaserPowerUpRelock);
                assert_eq!(fault, BvtFault::RelockFailure);
                assert!(elapsed > SimDuration::ZERO);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(bvt.status(), BvtStatus::Faulted);
        assert!(bvt.laser_on(), "relock failure leaves the laser lit");
        assert!(!bvt.locked());
        // Legacy DSP reprogram completed before the failure.
        assert_eq!(bvt.modulation(), Modulation::Dp16Qam200);
        let count = bvt.mdio_read(regs::RECONFIG_COUNT).unwrap();
        assert_eq!(count, 0, "failed attempts are not counted");
        // Faulted bit visible over MDIO.
        assert_eq!(bvt.mdio_read(regs::STATUS).unwrap(), 0b101);
    }

    #[test]
    fn stuck_laser_efficient_keeps_old_modulation() {
        let mut rng = Xoshiro256::seed_from_u64(21);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.set_procedure(ReconfigProcedure::Efficient);
        bvt.inject_fault(BvtFault::StuckLaser);
        let err = bvt.reconfigure(Modulation::Dp16Qam200, &mut rng).unwrap_err();
        assert!(matches!(
            err,
            BvtError::ReconfigFailed { phase: Phase::InlineReprogram, fault: BvtFault::StuckLaser, .. }
        ));
        assert_eq!(bvt.modulation(), Modulation::DpQpsk100, "reprogram never took");
        assert!(bvt.laser_on(), "efficient procedure never doused the laser");
        assert!(!bvt.locked());
        assert_eq!(bvt.status(), BvtStatus::Faulted);
    }

    #[test]
    fn stuck_laser_legacy_leaves_laser_dark() {
        let mut rng = Xoshiro256::seed_from_u64(22);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.inject_fault(BvtFault::StuckLaser);
        bvt.reconfigure(Modulation::Hybrid125, &mut rng).unwrap_err();
        assert!(!bvt.laser_on());
        assert!(!bvt.locked());
    }

    #[test]
    fn faulted_module_rejects_commands_until_reset() {
        let mut rng = Xoshiro256::seed_from_u64(23);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.inject_fault(BvtFault::RelockFailure);
        bvt.reconfigure(Modulation::Dp16Qam200, &mut rng).unwrap_err();
        assert_eq!(
            bvt.reconfigure(Modulation::DpQpsk100, &mut rng),
            Err(BvtError::Busy)
        );
        assert_eq!(bvt.mdio_write(regs::MODULATION, 0, &mut rng), Err(BvtError::Busy));
        assert_eq!(bvt.mdio_write(0x7777, 1, &mut rng), Err(BvtError::Busy));
        // Reads still work so a controller can see the stuck status.
        assert_eq!(bvt.mdio_read(regs::STATUS).unwrap() & 0b10, 0);
        let recovery = bvt.reset(&mut rng);
        assert!(recovery > SimDuration::ZERO);
        assert_eq!(bvt.status(), BvtStatus::Ready);
        assert!(bvt.laser_on() && bvt.locked());
        // Back in business.
        bvt.reconfigure(Modulation::DpQpsk100, &mut rng).unwrap();
    }

    #[test]
    fn reset_of_healthy_module_is_free() {
        let mut rng = Xoshiro256::seed_from_u64(24);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        assert_eq!(bvt.reset(&mut rng), SimDuration::ZERO);
        assert_eq!(bvt.status(), BvtStatus::Ready);
    }

    #[test]
    fn mdio_timeout_is_transient() {
        let mut rng = Xoshiro256::seed_from_u64(25);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.inject_fault(BvtFault::MdioTimeout);
        assert_eq!(bvt.mdio_read(regs::STATUS), Err(BvtError::Timeout));
        // The fault was consumed; the retry succeeds and no state changed.
        assert_eq!(bvt.mdio_read(regs::STATUS).unwrap(), 0b11);
        assert_eq!(bvt.status(), BvtStatus::Ready);

        bvt.inject_fault(BvtFault::MdioTimeout);
        assert_eq!(bvt.reconfigure(Modulation::Hybrid125, &mut rng), Err(BvtError::Timeout));
        assert_eq!(bvt.modulation(), Modulation::DpQpsk100, "command never arrived");
        bvt.reconfigure(Modulation::Hybrid125, &mut rng).unwrap();
    }

    #[test]
    fn corrupt_register_flips_bits_once() {
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        let clean = bvt.mdio_read(regs::VENDOR_ID).unwrap();
        bvt.inject_fault(BvtFault::CorruptRegister);
        let dirty = bvt.mdio_read(regs::VENDOR_ID).unwrap();
        assert_eq!(dirty, clean ^ 0x5A5A);
        assert_eq!(bvt.mdio_read(regs::VENDOR_ID).unwrap(), clean, "fault consumed");
        // Unknown addresses still fail address decode even when corrupted.
        bvt.inject_fault(BvtFault::CorruptRegister);
        assert_eq!(bvt.mdio_read(0x9999), Err(BvtError::UnknownRegister(0x9999)));
    }

    #[test]
    fn sync_modulation_skips_the_cycle() {
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.sync_modulation(Modulation::Dp16Qam200);
        assert_eq!(bvt.modulation(), Modulation::Dp16Qam200);
        assert_eq!(bvt.mdio_read(regs::RECONFIG_COUNT).unwrap(), 0);
        assert_eq!(bvt.now(), SimTime::EPOCH, "no downtime charged");
    }

    // ---- prepare / commit / abort ------------------------------------

    fn table() -> ModulationTable {
        ModulationTable::paper_default()
    }

    #[test]
    fn prepare_reserves_without_touching_the_light() {
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        let change = bvt
            .prepare(Modulation::Dp16Qam200, Db(14.0), &table(), Db(1.0), SimTime::EPOCH)
            .unwrap();
        assert_eq!(change.from, Modulation::DpQpsk100);
        assert_eq!(change.target, Modulation::Dp16Qam200);
        // Nothing optical happened: still carrying the old format, no
        // downtime, laser lit and locked.
        assert_eq!(bvt.modulation(), Modulation::DpQpsk100);
        assert_eq!(bvt.now(), SimTime::EPOCH);
        assert!(bvt.laser_on() && bvt.locked());
        assert_eq!(bvt.prepared(), Some(change));
    }

    #[test]
    fn prepare_rejects_insufficient_margin() {
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        // Dp16Qam200 needs 12.5 dB; 13.0 dB of SNR cannot clear a 1 dB
        // margin on top of that.
        let err = bvt
            .prepare(Modulation::Dp16Qam200, Db(13.0), &table(), Db(1.0), SimTime::EPOCH)
            .unwrap_err();
        match err {
            BvtError::InsufficientMargin { target, required, actual } => {
                assert_eq!(target, Modulation::Dp16Qam200);
                assert_eq!(required, Db(13.5));
                assert_eq!(actual, Db(13.0));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(bvt.prepared(), None, "no reservation on refusal");
        // Zero margin admits the same change.
        bvt.prepare(Modulation::Dp16Qam200, Db(13.0), &table(), Db(0.0), SimTime::EPOCH)
            .unwrap();
    }

    #[test]
    fn commit_executes_the_reserved_change() {
        let mut rng = Xoshiro256::seed_from_u64(30);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.set_procedure(ReconfigProcedure::Efficient);
        bvt.prepare(Modulation::Dp16Qam200, Db(14.0), &table(), Db(1.0), SimTime::EPOCH)
            .unwrap();
        let report = bvt.commit(SimDuration::from_secs(600), &mut rng).unwrap();
        assert_eq!(report.to, Modulation::Dp16Qam200);
        assert_eq!(bvt.modulation(), Modulation::Dp16Qam200);
        assert_eq!(bvt.prepared(), None, "reservation consumed");
        assert!(bvt.laser_on() && bvt.locked());
    }

    #[test]
    fn commit_without_prepare_is_rejected() {
        let mut rng = Xoshiro256::seed_from_u64(31);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        assert_eq!(
            bvt.commit(SimDuration::from_secs(600), &mut rng),
            Err(BvtError::NotPrepared)
        );
    }

    #[test]
    fn second_prepare_is_rejected_until_commit_or_abort() {
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        let first = bvt
            .prepare(Modulation::Hybrid125, Db(14.0), &table(), Db(0.0), SimTime::EPOCH)
            .unwrap();
        let err = bvt
            .prepare(Modulation::Dp16Qam200, Db(14.0), &table(), Db(0.0), SimTime::EPOCH)
            .unwrap_err();
        assert_eq!(err, BvtError::AlreadyPrepared(first));
        // Abort frees the slot and is itself free: no downtime, no state.
        assert_eq!(bvt.abort(), Some(first));
        assert_eq!(bvt.now(), SimTime::EPOCH);
        assert_eq!(bvt.modulation(), Modulation::DpQpsk100);
        bvt.prepare(Modulation::Dp16Qam200, Db(14.0), &table(), Db(0.0), SimTime::EPOCH)
            .unwrap();
    }

    #[test]
    fn watchdog_converts_hung_commit_into_stage_timeout() {
        let mut rng = Xoshiro256::seed_from_u64(32);
        let mut bvt = Bvt::new(Modulation::DpQpsk100); // legacy: ~68 s total
        bvt.prepare(Modulation::Dp16Qam200, Db(14.0), &table(), Db(1.0), SimTime::EPOCH)
            .unwrap();
        let deadline = SimDuration::from_secs(10); // < laser-up+relock median
        let err = bvt.commit(deadline, &mut rng).unwrap_err();
        match err {
            BvtError::StageTimeout { elapsed, deadline: dl, .. } => {
                assert_eq!(elapsed, deadline, "exactly the deadline is charged");
                assert_eq!(dl, deadline);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(bvt.now(), SimTime::EPOCH + deadline);
        assert_eq!(bvt.status(), BvtStatus::Faulted);
        assert!(!bvt.locked());
        assert_eq!(bvt.prepared(), None, "mid-procedure failure consumes the reservation");
        // Recovery path is the usual one.
        bvt.reset(&mut rng);
        assert_eq!(bvt.status(), BvtStatus::Ready);
    }

    #[test]
    fn generous_deadline_never_fires() {
        let mut rng = Xoshiro256::seed_from_u64(33);
        for _ in 0..50 {
            let mut bvt = Bvt::new(Modulation::DpQpsk100);
            bvt.prepare(Modulation::Dp16Qam200, Db(14.0), &table(), Db(0.0), SimTime::EPOCH)
                .unwrap();
            // 600 s clears the legacy tail (max observed ≈ 400 s).
            bvt.commit(SimDuration::from_secs(600), &mut rng).unwrap();
        }
    }

    #[test]
    fn mdio_timeout_during_commit_keeps_the_reservation() {
        let mut rng = Xoshiro256::seed_from_u64(34);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.set_procedure(ReconfigProcedure::Efficient);
        let change = bvt
            .prepare(Modulation::Dp16Qam200, Db(14.0), &table(), Db(1.0), SimTime::EPOCH)
            .unwrap();
        bvt.inject_fault(BvtFault::MdioTimeout);
        assert_eq!(
            bvt.commit(SimDuration::from_secs(600), &mut rng),
            Err(BvtError::Timeout)
        );
        // The command never reached the module: the reservation is intact
        // and an immediate retry succeeds.
        assert_eq!(bvt.prepared(), Some(change));
        bvt.commit(SimDuration::from_secs(600), &mut rng).unwrap();
        assert_eq!(bvt.modulation(), Modulation::Dp16Qam200);
    }

    #[test]
    fn failed_commit_lands_faulted_and_reset_clears_reservation() {
        let mut rng = Xoshiro256::seed_from_u64(35);
        let mut bvt = Bvt::new(Modulation::DpQpsk100);
        bvt.set_procedure(ReconfigProcedure::Efficient);
        bvt.prepare(Modulation::Dp16Qam200, Db(14.0), &table(), Db(1.0), SimTime::EPOCH)
            .unwrap();
        bvt.inject_fault(BvtFault::StuckLaser);
        let err = bvt.commit(SimDuration::from_secs(600), &mut rng).unwrap_err();
        assert!(matches!(err, BvtError::ReconfigFailed { .. }), "{err}");
        assert_eq!(bvt.status(), BvtStatus::Faulted);
        assert_eq!(bvt.modulation(), Modulation::DpQpsk100, "reprogram never took");
        assert_eq!(bvt.prepared(), None);
        // While faulted, prepare bounces with Busy.
        assert_eq!(
            bvt.prepare(Modulation::Hybrid125, Db(14.0), &table(), Db(0.0), SimTime::EPOCH),
            Err(BvtError::Busy)
        );
        bvt.reset(&mut rng);
        assert_eq!(bvt.prepared(), None);
        bvt.prepare(Modulation::Hybrid125, Db(14.0), &table(), Db(0.0), SimTime::EPOCH)
            .unwrap();
    }

    #[test]
    fn latency_distributions_are_spread_not_constant() {
        let mut rng = Xoshiro256::seed_from_u64(11);
        let lat = sample_latencies(
            ReconfigProcedure::Legacy,
            &LatencyModel::default(),
            500,
            &mut rng,
        );
        let secs: Vec<f64> = lat.iter().map(|d| d.as_secs_f64()).collect();
        let s = Summary::of(&secs);
        assert!(s.std_dev > 5.0, "legacy latencies should vary: {s}");
        assert!(s.min > 10.0 && s.max < 400.0, "{s}");
    }
}
