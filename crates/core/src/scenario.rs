//! Multi-period scenario simulation.
//!
//! The paper's end state is a WAN where, continuously: telemetry streams
//! SNR, the controller walks/crawls degraded links instead of failing
//! them, and each TE round exploits whatever headroom the fleet currently
//! has through the graph abstraction. [`Scenario`] wires those pieces
//! together over simulated time:
//!
//! - each WAN link is bound to one synthetic telemetry stream;
//! - every telemetry tick (15 min) the controller ingests SNR readings;
//! - every `te_interval` a TE round runs with diurnally scaled demands;
//! - the report accumulates throughput (dynamic vs static), flaps vs hard
//!   failures, reconfiguration downtime and churn.
//!
//! ## Fault injection
//!
//! A [`FaultPlan`] (from `rwc-faults`) can be attached through
//! [`ScenarioConfig::fault_plan`]. The run loop then interprets it:
//!
//! - **BVT faults** are armed on the affected link's transceiver every
//!   tick their window is active, so any reconfiguration attempted inside
//!   the window trips and exercises the controller's retry / quarantine
//!   path;
//! - **telemetry faults** drop, freeze or spike the SNR samples before
//!   the controller sees them, exercising the last-known-good / staleness
//!   policy;
//! - **TE faults** make the solver fail for that round, exercising the
//!   last-feasible-solution fallback ([`crate::network::TeRound::te_fallback`]).
//!
//! Everything stays deterministic: the plan is plain data and the
//! scenario derives all randomness from its seed, so the same plan +
//! seed produces a byte-identical [`ScenarioReport`] (which serialises
//! via serde for exactly that comparison).

use crate::augment::AugmentConfig;
use crate::controller::ControllerConfig;
use crate::error::RwcError;
use crate::network::DynamicCapacityNetwork;
use rwc_faults::{FaultInjector, FaultPlan, TeFault, TelemetryFault};
use rwc_obs::{Event, FaultDomain, Observer};
use std::sync::Arc;
use rwc_te::demand::DemandMatrix;
use rwc_te::problem::TeProblem;
use rwc_te::{TeAlgorithm, TeError, TeSolution};
use rwc_telemetry::{FleetConfig, FleetGenerator, LinkTelemetry};
use rwc_topology::wan::{LinkId, WanTopology};
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::Db;
use serde::Serialize;

/// Scenario wiring.
#[derive(Debug, Clone)]
pub struct ScenarioConfig {
    /// How often a TE round runs (must be a multiple of the telemetry
    /// tick; SWAN-era controllers ran every few minutes to hours).
    pub te_interval: SimDuration,
    /// Peak-to-mean swing of the diurnal demand cycle (0 = flat).
    pub demand_diurnal_amp: f64,
    /// Augmentation settings for the TE rounds.
    pub augment: AugmentConfig,
    /// Controller settings (hysteresis, BVT procedure).
    pub controller: ControllerConfig,
    /// Seed for the network's stochastic parts (BVT latencies).
    pub seed: u64,
    /// Optional fault schedule interpreted by the run loop. `None` (the
    /// default) runs fault-free.
    pub fault_plan: Option<FaultPlan>,
    /// Whether TE-driven capacity changes go through the staged
    /// make-before-break path (prepare → drain → commit, with rollback).
    /// Default true; disable only to reproduce the break-then-make
    /// baseline in experiments.
    pub make_before_break: bool,
}

impl Default for ScenarioConfig {
    fn default() -> Self {
        Self {
            te_interval: SimDuration::from_hours(1),
            demand_diurnal_amp: 0.3,
            augment: AugmentConfig::default(),
            // In a scenario, the TE layer owns upgrades (that is the whole
            // point of the abstraction); the controller only handles
            // walk/crawl safety.
            controller: ControllerConfig { auto_upgrade: false, ..Default::default() },
            seed: 0x5CE4A210,
            fault_plan: None,
            make_before_break: true,
        }
    }
}

/// One sampled instant of the simulation (recorded at TE rounds).
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioSample {
    /// When the TE round ran.
    pub time: SimTime,
    /// Demand multiplier in force.
    pub demand_scale: f64,
    /// Dynamic-capacity throughput.
    pub throughput: f64,
    /// Static-capacity throughput of the same algorithm.
    pub static_throughput: f64,
    /// Links upgraded this round.
    pub upgrades: usize,
    /// Churn versus the previous round.
    pub churn: f64,
    /// Whether this round fell back to the last feasible solution
    /// because the solver failed.
    pub te_fallback: bool,
}

/// Aggregate outcome of a scenario run.
#[derive(Debug, Clone, Serialize)]
pub struct ScenarioReport {
    /// Per-TE-round samples.
    pub samples: Vec<ScenarioSample>,
    /// Degradations ridden out as capacity flaps (would-be failures).
    pub flaps: usize,
    /// Links that went hard-down (no feasible rung).
    pub hard_downs: usize,
    /// Total reconfiguration downtime across the fleet.
    pub reconfig_downtime: SimDuration,
    /// TE rounds that fell back to the last feasible solution.
    pub te_fallbacks: usize,
    /// Modulation changes that failed even after retries.
    pub failed_changes: usize,
    /// Of the failed changes, those the make-before-break path rolled
    /// back cleanly (prior modulation restored, traffic held on the
    /// drained interim allocation).
    pub rolled_back_changes: usize,
    /// Retry attempts spent on flaky reconfigurations.
    pub retries: u32,
    /// Links pushed into quarantine over the run.
    pub quarantines: usize,
    /// Ticks where a link held position because telemetry was missing
    /// and the last-known-good reading had gone stale.
    pub stale_holds: usize,
    /// Link-ticks spent hard-down (the outage the paper wants to avoid).
    pub outage_link_ticks: usize,
    /// Of the outage link-ticks, those spent while a *correlated*
    /// (SRLG- or domain-scoped) fault covered the link — one shared
    /// incident taking several links down together.
    pub correlated_outage_link_ticks: usize,
    /// Outage link-ticks with no correlated fault covering the link:
    /// independent per-link failures.
    pub independent_outage_link_ticks: usize,
    /// Link-ticks spent degraded but carrying traffic (retrying,
    /// quarantined at a safe rung, or riding a stale reading) — the
    /// "flap, don't fail" share of the imperfect time.
    pub degraded_link_ticks: usize,
    /// Total link-ticks simulated (links × ticks).
    pub total_link_ticks: usize,
}

impl ScenarioReport {
    /// Mean throughput gain of dynamic over static across samples.
    pub fn mean_gain(&self) -> f64 {
        let gains: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.static_throughput > 0.0)
            .map(|s| s.throughput / s.static_throughput - 1.0)
            .collect();
        if gains.is_empty() {
            0.0
        } else {
            gains.iter().sum::<f64>() / gains.len() as f64
        }
    }

    /// Total churn across all rounds.
    pub fn total_churn(&self) -> f64 {
        self.samples.iter().map(|s| s.churn).sum()
    }

    /// Fraction of link-ticks the fleet was carrying traffic (1 −
    /// outage share). Degraded ticks count as *available*: that is the
    /// point of flapping capacity instead of failing links.
    pub fn availability(&self) -> f64 {
        if self.total_link_ticks == 0 {
            1.0
        } else {
            1.0 - self.outage_link_ticks as f64 / self.total_link_ticks as f64
        }
    }

    /// Of the link-ticks that were *not* fully healthy, the fraction
    /// ridden out as degraded capacity rather than an outage.
    pub fn degraded_share(&self) -> f64 {
        let imperfect = self.outage_link_ticks + self.degraded_link_ticks;
        if imperfect == 0 {
            0.0
        } else {
            self.degraded_link_ticks as f64 / imperfect as f64
        }
    }

    /// Of the outage link-ticks, the fraction attributable to correlated
    /// (shared-segment) incidents — the number the SRLG experiment
    /// reports: how much of the fleet's outage one amplifier can cause.
    pub fn correlated_outage_share(&self) -> f64 {
        if self.outage_link_ticks == 0 {
            0.0
        } else {
            self.correlated_outage_link_ticks as f64 / self.outage_link_ticks as f64
        }
    }
}

/// A [`TeAlgorithm`] wrapper that fails with the injected [`TeFault`]
/// instead of solving — how the scenario loop exercises the TE-layer
/// fallback without touching the real solvers.
pub(crate) struct FaultInjectedTe<'a> {
    inner: &'a dyn TeAlgorithm,
    fault: TeFault,
}

impl<'a> FaultInjectedTe<'a> {
    /// Wraps `inner` so every solve fails with `fault`.
    pub fn new(inner: &'a dyn TeAlgorithm, fault: TeFault) -> Self {
        Self { inner, fault }
    }
}

impl TeAlgorithm for FaultInjectedTe<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn try_solve(&self, _problem: &TeProblem) -> Result<TeSolution, TeError> {
        match self.fault {
            TeFault::SolverTimeout => Err(TeError::SolverTimeout {
                algorithm: self.inner.name(),
                detail: "injected fault: solver deadline exceeded".into(),
            }),
            TeFault::SolverAbort => Err(TeError::SolverAbort {
                algorithm: self.inner.name(),
                detail: "injected fault: solver aborted mid-round".into(),
            }),
        }
    }
}

/// A bound simulation: topology + telemetry + controller + TE.
pub struct Scenario {
    network: DynamicCapacityNetwork,
    /// The counterfactual fleet: modulations pinned at their initial
    /// rates, links *fail* (capacity 0) whenever SNR drops below their
    /// rung's threshold — the binary up/down policy the paper argues
    /// against.
    static_wan: WanTopology,
    telemetry: Vec<LinkTelemetry>,
    demands: DemandMatrix,
    config: ScenarioConfig,
    /// Metrics/event sink. Measurement only: with any observer installed
    /// the [`ScenarioReport`] stays byte-identical to an unobserved run.
    obs: Arc<dyn Observer>,
    /// Test reference arm: forget the round engine's static memo before
    /// each TE round.
    #[cfg(test)]
    forget_static_memo: bool,
}

/// Validating builder for [`Scenario`]; see [`Scenario::builder`].
pub struct ScenarioBuilder {
    wan: WanTopology,
    fleet: FleetConfig,
    demands: DemandMatrix,
    config: ScenarioConfig,
    obs: Arc<dyn Observer>,
}

impl ScenarioBuilder {
    /// Scenario wiring (TE cadence, fault plan, controller tuning).
    pub fn config(mut self, config: ScenarioConfig) -> Self {
        self.config = config;
        self
    }

    /// Routes the whole pipeline's metrics and events — scenario loop,
    /// round engine, controller, transceivers — to `obs`. Observability
    /// never alters the run: reports stay byte-identical.
    pub fn observer(mut self, obs: Arc<dyn Observer>) -> Self {
        self.obs = obs;
        self
    }

    /// Validates the wiring and binds the scenario.
    ///
    /// The fleet must provide at least as many telemetry streams as the
    /// topology has links (WAN link `i` replays stream `i`), and the TE
    /// interval must be a whole number of telemetry ticks.
    pub fn build(self) -> Result<Scenario, RwcError> {
        let Self { wan, fleet, demands, config, obs } = self;
        if fleet.n_links() < wan.n_links() {
            return Err(RwcError::Config(format!(
                "fleet has {} telemetry streams for {} links",
                fleet.n_links(),
                wan.n_links()
            )));
        }
        if fleet.tick == SimDuration::ZERO
            || !config.te_interval.as_millis().is_multiple_of(fleet.tick.as_millis())
        {
            return Err(RwcError::Config(format!(
                "TE interval ({} ms) must be a whole number of telemetry ticks ({} ms)",
                config.te_interval.as_millis(),
                fleet.tick.as_millis()
            )));
        }
        let gen = FleetGenerator::new(fleet);
        let telemetry: Vec<LinkTelemetry> =
            (0..wan.n_links()).map(|i| gen.link(i)).collect();
        let static_wan = wan.clone();
        let mut network = DynamicCapacityNetwork::new(
            wan,
            config.augment.clone(),
            config.controller.clone(),
            config.seed,
        );
        network.set_make_before_break(config.make_before_break);
        network.set_observer(Arc::clone(&obs));
        Ok(Scenario {
            network,
            static_wan,
            telemetry,
            demands,
            config,
            obs,
            #[cfg(test)]
            forget_static_memo: false,
        })
    }
}

impl Scenario {
    /// Starts a builder binding a topology to synthetic telemetry; see
    /// [`ScenarioBuilder::build`] for the validation it applies.
    pub fn builder(wan: WanTopology, fleet: FleetConfig, demands: DemandMatrix) -> ScenarioBuilder {
        ScenarioBuilder { wan, fleet, demands, config: ScenarioConfig::default(), obs: rwc_obs::noop() }
    }

    /// Read access to the live network state.
    pub fn network(&self) -> &DynamicCapacityNetwork {
        &self.network
    }

    /// Routes the whole pipeline's metrics and events to `obs` (same as
    /// [`ScenarioBuilder::observer`], for an already-built scenario).
    pub fn set_observer(&mut self, obs: Arc<dyn Observer>) {
        self.network.set_observer(Arc::clone(&obs));
        self.obs = obs;
    }

    /// Runs for `horizon`, returning the report. Wiring problems (e.g.
    /// the horizon outrunning telemetry) come back as [`RwcError`];
    /// faults injected through [`ScenarioConfig::fault_plan`] are
    /// *handled*, not returned — they surface in the report's degradation
    /// counters.
    pub fn run(
        &mut self,
        horizon: SimDuration,
        algorithm: &dyn TeAlgorithm,
    ) -> Result<ScenarioReport, RwcError> {
        let tick = self.telemetry[0].trace.tick();
        let n_ticks = horizon.ticks(tick) as usize;
        let max_ticks = self
            .telemetry
            .iter()
            .map(|t| t.trace.len())
            .min()
            .ok_or_else(|| RwcError::Config("scenario has no telemetry streams".into()))?;
        if n_ticks > max_ticks {
            return Err(RwcError::Telemetry(format!(
                "horizon needs {n_ticks} ticks but telemetry has {max_ticks}"
            )));
        }
        let te_every = (self.config.te_interval.as_millis() / tick.as_millis()) as usize;
        let day = SimDuration::from_days(1).as_secs_f64();
        // Structurally invalid plans are a wiring error, not a fault to
        // ride out: reject them before the first tick.
        let plan = self.config.fault_plan.clone().unwrap_or_default();
        plan.validate()?;
        // SRLG-scoped events resolve against the topology's real link →
        // fiber map, so one amplifier event covers every wavelength on
        // its segment.
        let fibers: Vec<usize> =
            self.network.wan().links().map(|(_, link)| link.fiber_id).collect();
        let injector = FaultInjector::with_fibers(plan, fibers);
        let n_links = self.network.wan().n_links();
        // Per-link value delivered when a FreezeReadings fault started.
        let mut frozen: Vec<Option<Db>> = vec![None; n_links];
        // Counterfactual throughput carried over if its solver ever fails.
        let mut last_static_total = 0.0;
        self.obs.incr("scenario.runs", 1);

        let mut report = ScenarioReport {
            samples: Vec::new(),
            flaps: 0,
            hard_downs: 0,
            reconfig_downtime: SimDuration::ZERO,
            te_fallbacks: 0,
            failed_changes: 0,
            rolled_back_changes: 0,
            retries: 0,
            quarantines: 0,
            stale_holds: 0,
            outage_link_ticks: 0,
            correlated_outage_link_ticks: 0,
            independent_outage_link_ticks: 0,
            degraded_link_ticks: 0,
            total_link_ticks: 0,
        };
        for i in 0..n_ticks {
            let now = SimTime::EPOCH + tick * i as u64;
            self.obs.incr("scenario.ticks", 1);

            // Telemetry path: raw samples filtered through any active
            // telemetry fault. Freeze faults capture the first reading
            // inside their window and replay it until the window closes.
            let mut readings: Vec<(LinkId, Option<Db>)> = Vec::with_capacity(n_links);
            for (l, t) in self.telemetry.iter().enumerate() {
                let link = LinkId(l);
                // Optical faults change what the light can actually carry:
                // the physical SNR drops by the (correlated) penalty before
                // any telemetry-path fault distorts the *reporting* of it.
                let raw = Db(t.trace.snr_at(i).value() - injector.optical_penalty_db(link, now));
                let telemetry_fault = injector.telemetry_fault(link, now);
                if telemetry_fault.is_some() {
                    self.obs.incr("scenario.faults.telemetry", 1);
                    if self.obs.enabled() {
                        self.obs.event(&Event::FaultInjected {
                            link: Some(l as u64),
                            domain: FaultDomain::Telemetry,
                        });
                    }
                }
                match telemetry_fault {
                    Some(TelemetryFault::FreezeReadings) => {
                        if frozen[l].is_none() {
                            frozen[l] = Some(raw);
                        }
                    }
                    _ => frozen[l] = None,
                }
                readings.push((link, injector.observe(link, raw, frozen[l], now)));
            }

            // Hardware path: (re-)arm every BVT fault whose window covers
            // this tick, so the next reconfiguration attempt trips.
            for l in 0..n_links {
                if let Some(fault) = injector.bvt_fault(LinkId(l), now) {
                    self.network.inject_bvt_fault(LinkId(l), fault);
                    self.obs.incr("scenario.faults.bvt", 1);
                    if self.obs.enabled() {
                        self.obs.event(&Event::FaultInjected {
                            link: Some(l as u64),
                            domain: FaultDomain::Bvt,
                        });
                    }
                }
            }

            let sweep = self.network.ingest(&readings, now);
            report.flaps += sweep.failures_avoided;
            report.hard_downs += sweep.went_down.len();
            report.reconfig_downtime += sweep.downtime;
            report.retries += sweep.retries;
            report.failed_changes += sweep.reconfig_failures;
            report.quarantines += sweep.quarantined.len();
            report.stale_holds += sweep.stale_holds;

            // Availability accounting: an outage link-tick is a link with
            // no feasible rung; a degraded one still carries traffic.
            // Outage ticks are attributed to *correlated* incidents when a
            // shared-scope (SRLG/domain) fault covers the link right now,
            // and to independent failures otherwise.
            for l in 0..n_links {
                let link = LinkId(l);
                report.total_link_ticks += 1;
                if self.network.controller().is_down(link) {
                    report.outage_link_ticks += 1;
                    if injector.correlated_active(link, now) {
                        report.correlated_outage_link_ticks += 1;
                    } else {
                        report.independent_outage_link_ticks += 1;
                    }
                } else if self.network.controller().health(link, now)
                    != crate::controller::LinkHealth::Healthy
                {
                    report.degraded_link_ticks += 1;
                }
            }

            // Keep the counterfactual fleet's readings current (it sees
            // the same faulted telemetry the real controller does).
            for &(l, snr) in &readings {
                if let Some(snr) = snr {
                    self.static_wan.set_snr(l, snr);
                }
            }

            if i % te_every == 0 {
                let phase = std::f64::consts::TAU * now.since_epoch().as_secs_f64() / day;
                let scale = 1.0 + self.config.demand_diurnal_amp * phase.sin();
                let demands = self.demands.scaled(scale.max(0.0));
                #[cfg(test)]
                if self.forget_static_memo {
                    self.network.forget_static_memo();
                }
                let round = match injector.te_fault(now) {
                    Some(fault) => {
                        self.obs.incr("scenario.faults.te", 1);
                        if self.obs.enabled() {
                            self.obs.event(&Event::FaultInjected {
                                link: None,
                                domain: FaultDomain::Te,
                            });
                        }
                        let faulty = FaultInjectedTe::new(algorithm, fault);
                        self.network.te_round(&demands, &faulty, now)
                    }
                    None => self.network.te_round(&demands, algorithm, now),
                };
                report.reconfig_downtime += round.reconfig_downtime;
                report.failed_changes += round.failed_changes;
                report.rolled_back_changes += round.rolled_back;
                report.retries += round.retries;
                if round.te_fallback {
                    report.te_fallbacks += 1;
                }

                // Counterfactual: never-upgraded links under the binary
                // policy — a link whose SNR is below its (fixed) rung's
                // threshold is simply down.
                let table = &self.config.controller.table;
                let mut static_problem = TeProblem::from_wan(&self.static_wan, &demands);
                for (id, link) in self.static_wan.links() {
                    if !table.supports(link.snr, link.modulation) {
                        static_problem.override_link_capacity(id, 0.0);
                    }
                }
                // The counterfactual gets the same grace the real pipeline
                // does: carry the last feasible total.
                if let Ok(s) = algorithm.try_solve(&static_problem) {
                    last_static_total = s.total;
                }
                let static_total = last_static_total;

                report.samples.push(ScenarioSample {
                    time: now,
                    demand_scale: scale,
                    throughput: round.throughput,
                    static_throughput: static_total,
                    upgrades: round.translation.upgrades.len(),
                    churn: round.churn,
                    te_fallback: round.te_fallback,
                });
            }
        }
        if self.obs.enabled() {
            self.obs.gauge("scenario.availability", report.availability());
            self.obs.gauge("scenario.degraded_share", report.degraded_share());
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_faults::{BvtFault, FaultEvent, FaultKind, FaultPlanConfig, OpticalFault};
    use rwc_te::demand::Priority;
    use rwc_te::swan::SwanTe;
    use rwc_topology::builders;
    use rwc_util::units::Gbps;

    fn scenario(days_capacity: u64) -> Scenario {
        scenario_with(days_capacity, ScenarioConfig::default())
    }

    fn scenario_with(days_capacity: u64, config: ScenarioConfig) -> Scenario {
        fig7_scenario(builders::fig7_example(), (13.5, 0.2, 0.3), days_capacity, config)
    }

    /// Two overloading demands on a Fig. 7 topology whose one fiber has
    /// SNR statistics `(baseline mean, baseline sd, wavelength jitter sd)`.
    fn fig7_scenario(
        wan: WanTopology,
        snr_db: (f64, f64, f64),
        days_capacity: u64,
        config: ScenarioConfig,
    ) -> Scenario {
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let c = wan.node_by_name("C").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(120.0), Priority::Elastic);
        dm.add(c, d, Gbps(120.0), Priority::Elastic);
        let fleet = FleetConfig {
            n_fibers: 1,
            wavelengths_per_fiber: 4,
            horizon: SimDuration::from_days(days_capacity),
            fiber_baseline_mean_db: snr_db.0,
            fiber_baseline_sd_db: snr_db.1,
            wavelength_jitter_sd_db: snr_db.2,
            ..FleetConfig::paper()
        };
        Scenario::builder(wan, fleet, dm).config(config).build().unwrap()
    }

    #[test]
    fn runs_and_samples() {
        let mut s = scenario(10);
        let report = s.run(SimDuration::from_days(7), &SwanTe::default()).unwrap();
        // Hourly TE over 7 days = 168 samples.
        assert_eq!(report.samples.len(), 168);
        // Demand swings with the diurnal cycle.
        let scales: Vec<f64> = report.samples.iter().map(|s| s.demand_scale).collect();
        let min = scales.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = scales.iter().cloned().fold(0.0f64, f64::max);
        assert!(max > 1.2 && min < 0.8, "diurnal range [{min},{max}]");
        // Fault-free run: nothing degraded, full availability.
        assert_eq!(report.te_fallbacks, 0);
        assert_eq!(report.failed_changes, 0);
        assert!(report.availability() > 0.99, "availability {}", report.availability());
        // A second run continues the hourly schedule.
        let more = s.run(SimDuration::from_days(1), &SwanTe::default()).unwrap();
        assert_eq!(more.samples.len(), 24);
    }

    #[test]
    fn dynamic_gains_under_overload() {
        let mut s = scenario(10);
        let report = s.run(SimDuration::from_days(3), &SwanTe::default()).unwrap();
        // Demands (2×120 G, swinging to 156 G) exceed the 100 G links at
        // peaks; with ~13.5 dB baselines the links upgrade and dynamic
        // throughput must beat static on average.
        assert!(report.mean_gain() > 0.02, "gain={}", report.mean_gain());
        let total_upgrades: usize = report.samples.iter().map(|s| s.upgrades).sum();
        assert!(total_upgrades >= 1);
    }

    #[test]
    fn horizon_validation() {
        let mut s = scenario(5);
        // 10 days of simulation needs 10 days of telemetry — typed error.
        let err = s.run(SimDuration::from_days(10), &SwanTe::default()).unwrap_err();
        assert!(matches!(err, RwcError::Telemetry(_)), "{err}");
    }

    #[test]
    fn report_accumulates_monotonically() {
        let mut s1 = scenario(10);
        let short = s1.run(SimDuration::from_days(1), &SwanTe::default()).unwrap();
        let mut s2 = scenario(10);
        let long = s2.run(SimDuration::from_days(5), &SwanTe::default()).unwrap();
        assert!(long.samples.len() > short.samples.len());
        assert!(long.total_churn() >= 0.0);
    }

    #[test]
    fn te_faults_trigger_fallback_rounds() {
        // Make the solver fail for the first six hours: every TE round
        // in that window must fall back, and throughput must carry the
        // last feasible totals instead of crashing to zero mid-run.
        let plan = FaultPlan::none().with(FaultEvent::on_link(
            FaultKind::Te(TeFault::SolverTimeout),
            LinkId(0),
            SimTime::EPOCH + SimDuration::from_hours(1),
            SimDuration::from_hours(6),
        ));
        let config = ScenarioConfig { fault_plan: Some(plan), ..ScenarioConfig::default() };
        let mut s = scenario_with(10, config);
        let report = s.run(SimDuration::from_days(1), &SwanTe::default()).unwrap();
        assert_eq!(report.te_fallbacks, 6, "hourly rounds in a 6 h window");
        let fallback_samples: Vec<&ScenarioSample> =
            report.samples.iter().filter(|s| s.te_fallback).collect();
        assert_eq!(fallback_samples.len(), 6);
        for s in fallback_samples {
            assert!(s.throughput > 0.0, "fallback must carry the last solution");
        }
    }

    #[test]
    fn telemetry_drops_hold_last_known_good() {
        // Drop all of link 0's samples for two hours mid-day: within the
        // staleness bound the controller rides last-known-good, so the
        // link never goes down.
        let plan = FaultPlan::none().with(FaultEvent::on_link(
            FaultKind::Telemetry(TelemetryFault::DropSamples),
            LinkId(0),
            SimTime::EPOCH + SimDuration::from_hours(6),
            SimDuration::from_minutes(40),
        ));
        let config = ScenarioConfig { fault_plan: Some(plan), ..ScenarioConfig::default() };
        let mut s = scenario_with(10, config);
        let report = s.run(SimDuration::from_days(1), &SwanTe::default()).unwrap();
        assert_eq!(report.hard_downs, 0);
        assert_eq!(report.outage_link_ticks, 0);
    }

    #[test]
    fn bvt_faults_exercise_retry_accounting() {
        // Arm a relock failure on every link for the first day. The
        // overload demands force upgrades, so reconfigurations trip and
        // the controller's retry machinery shows up in the report.
        let mut plan = FaultPlan::none();
        for l in 0..4 {
            plan = plan.with(FaultEvent::on_link(
                FaultKind::Bvt(BvtFault::RelockFailure),
                LinkId(l),
                SimTime::EPOCH,
                SimDuration::from_days(1),
            ));
        }
        let config = ScenarioConfig { fault_plan: Some(plan), ..ScenarioConfig::default() };
        let mut s = scenario_with(10, config);
        let report = s.run(SimDuration::from_days(2), &SwanTe::default()).unwrap();
        assert!(report.retries > 0, "armed faults must cost retries");
        // Day two is fault-free, so upgrades eventually land anyway.
        let total_upgrades: usize = report.samples.iter().map(|s| s.upgrades).sum();
        assert!(total_upgrades >= 1);
    }

    #[test]
    fn random_plan_runs_without_panicking() {
        // A dense random plan across every class must be absorbed: the
        // run completes and the accounting stays consistent.
        let plan = FaultPlanConfig {
            n_links: 4,
            horizon: SimDuration::from_days(3),
            bvt_rate_per_link_day: 2.0,
            telemetry_rate_per_link_day: 2.0,
            te_rate_per_day: 2.0,
            seed: 7,
            ..FaultPlanConfig::default()
        }
        .generate();
        assert!(!plan.is_empty());
        let config = ScenarioConfig { fault_plan: Some(plan), ..ScenarioConfig::default() };
        let mut s = scenario_with(10, config);
        let report = s.run(SimDuration::from_days(3), &SwanTe::default()).unwrap();
        assert_eq!(report.samples.len(), 72);
        assert!(report.outage_link_ticks + report.degraded_link_ticks <= report.total_link_ticks);
        assert!(report.availability() <= 1.0 && report.availability() >= 0.0);
    }

    /// Fig. 7 fleet with links 0 and 2 riding the same fiber segment —
    /// the SRLG an amplifier event takes down in one shot.
    fn srlg_scenario_with(days_capacity: u64, config: ScenarioConfig) -> Scenario {
        fig7_scenario(srlg_wan(), (13.5, 0.2, 0.3), days_capacity, config)
    }

    fn srlg_wan() -> WanTopology {
        let mut wan = builders::fig7_example();
        let shared = wan.link(LinkId(0)).fiber_id;
        wan.link_mut(LinkId(2)).fiber_id = shared;
        wan
    }

    #[test]
    fn srlg_amplifier_event_downs_the_whole_segment() {
        // One severe amplifier outage on the shared fiber: 25 dB off a
        // ≈13.5 dB baseline leaves nothing feasible, so links 0 AND 2 go
        // down together and every outage tick is attributed correlated.
        let fiber = builders::fig7_example().link(LinkId(0)).fiber_id;
        let plan = FaultPlan::none().with(FaultEvent::on_srlg(
            FaultKind::Optical(OpticalFault::AmplifierOutage { severity_db: 25.0 }),
            fiber,
            SimTime::EPOCH + SimDuration::from_hours(6),
            SimDuration::from_hours(6),
        ));
        let config = ScenarioConfig { fault_plan: Some(plan), ..ScenarioConfig::default() };
        let mut s = srlg_scenario_with(10, config.clone());
        let report = s.run(SimDuration::from_days(1), &SwanTe::default()).unwrap();
        // Both links of the segment went hard-down; the off-segment links
        // (1 and 3) never did.
        assert_eq!(report.hard_downs, 2, "the whole SRLG fails together");
        // 6 h × 4 ticks/h × 2 links = 48 outage link-ticks, all inside
        // the event window, all correlated (recovery happens on the first
        // post-window sweep, before accounting).
        assert_eq!(report.outage_link_ticks, 48);
        assert_eq!(report.correlated_outage_link_ticks, 48);
        assert_eq!(report.independent_outage_link_ticks, 0);
        assert!((report.correlated_outage_share() - 1.0).abs() < 1e-12);
        // Determinism: the same plan + seed reproduces byte-identically.
        let mut s2 = srlg_scenario_with(10, config);
        let report2 = s2.run(SimDuration::from_days(1), &SwanTe::default()).unwrap();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&report2).unwrap()
        );
    }

    #[test]
    fn link_scoped_outages_attribute_independent() {
        // The same severity on a single link: outage ticks accrue on that
        // link only and land in the *independent* bucket.
        let plan = FaultPlan::none().with(FaultEvent::on_link(
            FaultKind::Optical(OpticalFault::AmplifierOutage { severity_db: 25.0 }),
            LinkId(0),
            SimTime::EPOCH + SimDuration::from_hours(6),
            SimDuration::from_hours(6),
        ));
        let config = ScenarioConfig { fault_plan: Some(plan), ..ScenarioConfig::default() };
        let mut s = srlg_scenario_with(10, config);
        let report = s.run(SimDuration::from_days(1), &SwanTe::default()).unwrap();
        assert_eq!(report.hard_downs, 1);
        assert_eq!(report.outage_link_ticks, 24);
        assert_eq!(report.correlated_outage_link_ticks, 0);
        assert_eq!(report.independent_outage_link_ticks, 24);
    }

    #[test]
    fn structurally_invalid_plans_are_rejected_up_front() {
        let plan = FaultPlan::none().with(FaultEvent::on_link(
            FaultKind::Te(TeFault::SolverTimeout),
            LinkId(0),
            SimTime::EPOCH,
            SimDuration::ZERO, // empty window: can never fire
        ));
        let config = ScenarioConfig { fault_plan: Some(plan), ..ScenarioConfig::default() };
        let mut s = scenario_with(10, config);
        let err = s.run(SimDuration::from_days(1), &SwanTe::default()).unwrap_err();
        assert!(
            matches!(
                err,
                RwcError::FaultPlan(rwc_faults::FaultPlanError::EmptyWindow { index: 0 })
            ),
            "{err}"
        );
    }

    #[test]
    fn static_memo_matches_re_solving_byte_for_byte() {
        // The static memo is pure performance machinery: it must not
        // change a single byte of the report relative to a run that
        // forgets it before every round, fault plan and all.
        // Inputs: a light two-day plan, then the `faults` and `srlg`
        // experiments' week-long campaigns (marginal SNR, so the fleet is
        // already walking when the faults land) — the SRLG one under both
        // change procedures.
        let light = FaultPlanConfig {
            n_links: 4,
            horizon: SimDuration::from_days(2),
            bvt_rate_per_link_day: 1.0,
            telemetry_rate_per_link_day: 1.0,
            seed: 0xC0FFEE,
            ..FaultPlanConfig::default()
        };
        let week = SimDuration::from_days(7);
        let faults = FaultPlanConfig {
            n_links: builders::fig7_example().n_links(),
            horizon: week,
            bvt_rate_per_link_day: 2.0,
            telemetry_rate_per_link_day: 1.0,
            te_rate_per_day: 1.0,
            bvt_mean_duration: SimDuration::from_hours(8),
            seed: 0xFA_017,
            ..FaultPlanConfig::default()
        };
        let srlg = FaultPlanConfig {
            n_links: srlg_wan().n_links(),
            horizon: week,
            bvt_rate_per_link_day: 1.5,
            bvt_mean_duration: SimDuration::from_hours(8),
            amplifier_rate_per_fiber_day: 0.25,
            amplifier_mean_duration: SimDuration::from_hours(2),
            amplifier_mean_severity_db: 14.0,
            fiber_of_link: srlg_wan().links().map(|(_, link)| link.fiber_id).collect(),
            seed: 0x5A16,
            ..FaultPlanConfig::default()
        };
        let cases = [
            ("light", builders::fig7_example(), (13.5, 0.2, 0.3), light, true),
            ("faults", builders::fig7_example(), (12.6, 0.4, 0.6), faults, true),
            ("srlg", srlg_wan(), (12.8, 0.3, 0.4), srlg.clone(), true),
            ("srlg, break-then-make", srlg_wan(), (12.8, 0.3, 0.4), srlg, false),
        ];
        for (name, wan, snr_db, plan, make_before_break) in cases {
            let horizon = plan.horizon;
            let config = ScenarioConfig {
                fault_plan: Some(plan.generate()),
                make_before_break,
                ..ScenarioConfig::default()
            };
            let days = 8; // telemetry for the longest horizon and a day to spare
            let mut memoised = fig7_scenario(wan.clone(), snr_db, days, config.clone());
            let metrics = Arc::new(rwc_obs::MetricsObserver::new());
            memoised.set_observer(metrics.clone());
            let mut reference = fig7_scenario(wan, snr_db, days, config);
            reference.forget_static_memo = true;
            let ra = memoised.run(horizon, &SwanTe::default()).unwrap();
            let rb = reference.run(horizon, &SwanTe::default()).unwrap();
            assert_eq!(
                serde_json::to_string(&ra).unwrap(),
                serde_json::to_string(&rb).unwrap(),
                "{name}: memoised and re-solving engines diverged"
            );
            // The memoised arm really hit its memo.
            let counters = metrics.snapshot().counters;
            assert!(counters["te.static_memo.hits"] > 0, "{name}: {counters:?}");
        }
    }

    #[test]
    fn identical_plans_give_identical_reports() {
        let plan = FaultPlanConfig {
            n_links: 4,
            horizon: SimDuration::from_days(2),
            seed: 99,
            ..FaultPlanConfig::default()
        }
        .generate();
        let config = ScenarioConfig { fault_plan: Some(plan), ..ScenarioConfig::default() };
        let mut a = scenario_with(10, config.clone());
        let mut b = scenario_with(10, config);
        let ra = a.run(SimDuration::from_days(2), &SwanTe::default()).unwrap();
        let rb = b.run(SimDuration::from_days(2), &SwanTe::default()).unwrap();
        let ja = serde_json::to_string(&ra).unwrap();
        let jb = serde_json::to_string(&rb).unwrap();
        assert_eq!(ja, jb);
    }
}
