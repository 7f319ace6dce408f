//! End-to-end dynamic-capacity network orchestration.
//!
//! [`DynamicCapacityNetwork`] is the public face of the reproduction: it
//! owns the WAN topology, the run/walk/crawl [`Controller`], and the
//! augmentation configuration, and drives the §4 loop:
//!
//! 1. ingest SNR telemetry — degraded links *walk/crawl* down instead of
//!    failing (controller safety sweep);
//! 2. **augment** the topology (Algorithm 1) with fake upgrade links
//!    priced by the penalty policy;
//! 3. run an **unmodified TE algorithm** on the augmented problem;
//! 4. **translate** its output into upgrade decisions + real flows;
//! 5. plan **consistent updates** for the upgrades and apply them through
//!    the BVT model, accounting downtime and churn.

use crate::augment::{AugmentConfig, AugmentStats, IncrementalAugmenter};
use crate::controller::{Controller, ControllerConfig, SweepReport};
use rwc_obs::{Observer, Span};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;
use crate::error::RwcError;
use crate::translate::{translate, Translation};
use rwc_optics::bvt::BvtFault;
use rwc_te::demand::{DemandMatrix, Priority};
use rwc_te::metrics;
use rwc_te::problem::{TeProblem, TeSolution};
use rwc_te::updates::{try_plan_capacity_changes, CapacityChange, UpdatePlan};
use rwc_te::TeAlgorithm;
use rwc_topology::wan::{LinkId, WanTopology};
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::Db;

/// Outcome of one TE round.
#[derive(Debug, Clone)]
pub struct TeRound {
    /// Throughput achieved (on the augmented problem = after upgrades).
    pub throughput: f64,
    /// Throughput the same algorithm achieves *without* augmentation (the
    /// static-capacity baseline, for the paper's gain comparison).
    pub static_throughput: f64,
    /// Upgrade decisions applied this round.
    pub translation: Translation,
    /// The consistent-update plan (None when no upgrades were needed).
    pub update_plan: Option<UpdatePlan>,
    /// BVT downtime accrued applying the upgrades.
    pub reconfig_downtime: SimDuration,
    /// Traffic churn versus the previous round's flows.
    pub churn: f64,
    /// True when the TE solver failed this round and the last feasible
    /// allocation stayed in force instead (graceful degradation).
    pub te_fallback: bool,
    /// Wall-clock time spent in TE solving this round: the static
    /// baseline (when not served from cache), augmentation and the
    /// augmented solve. Excludes plan/apply. Not part of any serialised
    /// report — timing is measurement, not simulation state.
    pub solve_time: Duration,
    /// Upgrades the solver asked for that the hardware failed to apply
    /// (retries exhausted or link quarantined).
    pub failed_changes: usize,
    /// Of the failed changes, how many were staged commits that rolled
    /// back to the prior modulation (make-before-break unhappy path) —
    /// the link kept carrying its old rate instead of going dark.
    pub rolled_back: usize,
    /// Retry attempts spent applying this round's upgrades.
    pub retries: u32,
}

impl TeRound {
    /// Relative throughput gain of dynamic over static capacity.
    pub fn gain(&self) -> f64 {
        if self.static_throughput <= 0.0 {
            if self.throughput > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            self.throughput / self.static_throughput - 1.0
        }
    }
}

/// A WAN whose link capacities adapt to SNR, §4-style.
#[derive(Debug, Clone)]
pub struct DynamicCapacityNetwork {
    wan: WanTopology,
    controller: Controller,
    augment_config: AugmentConfig,
    /// Per-link traffic from the previous round (busier direction), used
    /// by traffic-dependent penalties.
    link_traffic: Vec<f64>,
    /// Previous round's real-edge flows, for churn accounting.
    previous_flows: Option<Vec<f64>>,
    /// Throughputs of the last round whose solves succeeded, reported
    /// verbatim when a later round has to fall back.
    last_good_totals: Option<(f64, f64)>,
    /// Whether TE-driven changes go through the staged make-before-break
    /// path (prepare → drained-headroom check → commit, with rollback)
    /// instead of the direct `execute_change` path.
    mbb: bool,
    /// Algorithm 1, rebuilt every round; holds the round's augmented
    /// problem and counts the rebuilds.
    augmenter: IncrementalAugmenter,
    /// Memoised static-baseline totals, keyed on the exact inputs the
    /// baseline depends on (algorithm, per-link capacities, demands).
    /// The round engine's only cache, kept because it measurably pays:
    /// on a warm solver every static solve it skips leaves the retained
    /// basis on the augmented LP the next solve needs, and solving the
    /// static problem every round costs about 30 % of the closed control
    /// loop's throughput (DESIGN §7).
    /// The solver is deterministic, so a hit bit-equals a recompute;
    /// only successful solves are stored. Demand bits rarely repeat (the
    /// benchmark measured 47–96 % misses, about one new ~1 KB key per
    /// round), so the map is cleared when it reaches
    /// [`STATIC_MEMO_CAP`] keys.
    static_memo: HashMap<StaticKey, f64>,
    /// Metrics/event sink for the round engine. Measurement only — never
    /// consulted by round logic, so reports are byte-identical with any
    /// observer installed.
    obs: Arc<dyn Observer>,
}

/// Keys the static memo holds before it is cleared (≈ 4 MB at 105 links):
/// days of rounds, and well above the 500 a benchmark pass runs.
const STATIC_MEMO_CAP: usize = 4096;

/// Exact memo key for the static-baseline solve: algorithm name, the
/// algorithm's solve fingerprint (objective/weights — two
/// `TeSolver`s share a name but not a meaning), each link's capacity
/// bits, and each demand's endpoints, priority and volume bits (strict-
/// priority solvers such as `SwanTe` answer differently when only the
/// classes swap). Only the fingerprint
/// is a hash (it folds solver *configuration*, which is tiny and fixed
/// per solver instance); the capacity/demand inputs stay exact — a
/// collision there would silently break the determinism guarantee the
/// scenario tests pin down.
type StaticKey = (&'static str, u64, Vec<u64>, Vec<(usize, usize, Priority, u64)>);

fn static_key(
    algorithm: &dyn TeAlgorithm,
    wan: &WanTopology,
    demands: &DemandMatrix,
) -> StaticKey {
    (
        algorithm.name(),
        algorithm.solve_fingerprint(),
        wan.links().map(|(_, l)| l.capacity().value().to_bits()).collect(),
        demands
            .demands()
            .iter()
            .map(|d| (d.from.0, d.to.0, d.priority, d.volume.value().to_bits()))
            .collect(),
    )
}

impl DynamicCapacityNetwork {
    /// Wraps a topology.
    pub fn new(
        wan: WanTopology,
        augment_config: AugmentConfig,
        controller_config: ControllerConfig,
        seed: u64,
    ) -> Self {
        let n_links = wan.n_links();
        Self {
            wan,
            controller: Controller::new(controller_config, n_links, seed),
            augment_config,
            link_traffic: vec![0.0; n_links],
            previous_flows: None,
            last_good_totals: None,
            mbb: true,
            augmenter: IncrementalAugmenter::new(),
            static_memo: HashMap::new(),
            obs: rwc_obs::noop(),
        }
    }

    /// Routes the round engine's metrics and events (and the controller's
    /// and every transceiver's) to `obs`. Installing an observer never
    /// changes a round: snapshots measure the run, they don't steer it.
    pub fn set_observer(&mut self, obs: Arc<dyn Observer>) {
        self.controller.set_observer(Arc::clone(&obs));
        self.obs = obs;
    }

    /// Test reference arm: drops the static memo, so the next round
    /// re-solves the static baseline. The memo is exact, so a run that
    /// forgets it before every round must report byte-identically to one
    /// that never does — which is what the scenario tests assert.
    #[cfg(test)]
    pub(crate) fn forget_static_memo(&mut self) {
        self.static_memo.clear();
    }

    /// Augmentation counters.
    pub fn augment_stats(&self) -> AugmentStats {
        self.augmenter.stats()
    }

    /// Switches TE-driven changes between the staged make-before-break
    /// path (default) and the direct break-then-make path. The direct path
    /// is what PR-1 shipped: changes are executed in place and a failed
    /// change can leave traffic planned over capacity that never arrived —
    /// keep it only as the experimental baseline.
    pub fn set_make_before_break(&mut self, on: bool) {
        self.mbb = on;
    }

    /// Whether the staged make-before-break path is in force.
    pub fn make_before_break(&self) -> bool {
        self.mbb
    }

    /// Read access to the topology.
    pub fn wan(&self) -> &WanTopology {
        &self.wan
    }

    /// Read access to the controller.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Ingests SNR telemetry: updates readings and lets the controller
    /// walk/crawl degraded links (safety actions only happen here; TE-
    /// driven upgrades happen in [`Self::te_round`]). `None` marks a
    /// reading dropped by the telemetry layer; see [`Controller::sweep`]
    /// for the hold/last-known-good semantics.
    pub fn ingest(&mut self, readings: &[(LinkId, Option<Db>)], now: SimTime) -> SweepReport {
        self.controller.sweep(&mut self.wan, readings, now)
    }

    /// Arms a hardware fault on a link's transceiver; the next applicable
    /// operation on that module fails and is handled by the controller's
    /// retry/quarantine machinery.
    pub fn inject_bvt_fault(&mut self, link: LinkId, fault: BvtFault) {
        self.controller.inject_bvt_fault(link, fault);
    }

    /// Runs one TE round with the given (unmodified) TE algorithm.
    ///
    /// Never panics on solver failure: if the algorithm cannot produce a
    /// solution, the previous allocation stays in force and the round is
    /// reported with [`TeRound::te_fallback`] set. Hardware failures while
    /// applying upgrades are absorbed by the controller's retry/quarantine
    /// machinery and surface in [`TeRound::failed_changes`].
    pub fn te_round(
        &mut self,
        demands: &DemandMatrix,
        algorithm: &dyn TeAlgorithm,
        now: SimTime,
    ) -> TeRound {
        match self.try_te_round(demands, algorithm, now) {
            Ok(round) => round,
            Err(_) => {
                self.obs.incr("te.fallback_rounds", 1);
                self.fallback_round()
            }
        }
    }

    /// Fallible TE round: solver failures come back as [`RwcError::Te`]
    /// with no changes applied, so the caller can decide how to degrade.
    pub(crate) fn try_te_round(
        &mut self,
        demands: &DemandMatrix,
        algorithm: &dyn TeAlgorithm,
        now: SimTime,
    ) -> Result<TeRound, RwcError> {
        let obs = Arc::clone(&self.obs);
        let _round_span = Span::start(&*obs, "te.round_micros");
        obs.incr("te.rounds", 1);
        let solve_start = std::time::Instant::now();
        // Static baseline: same algorithm, no fake links. Memoised — the
        // solver is deterministic, so a cached total bit-equals the
        // recompute it replaces.
        let key = static_key(algorithm, &self.wan, demands);
        let static_total = match self.static_memo.get(&key) {
            Some(&total) => {
                obs.incr("te.static_memo.hits", 1);
                total
            }
            None => {
                obs.incr("te.static_memo.misses", 1);
                let total = algorithm.try_solve(&TeProblem::from_wan(&self.wan, demands))?.total;
                if self.static_memo.len() >= STATIC_MEMO_CAP {
                    self.static_memo.clear();
                }
                self.static_memo.insert(key, total);
                total
            }
        };

        // Augment + solve + translate.
        let aug =
            self.augmenter.augment(&self.wan, demands, &self.augment_config, &self.link_traffic);
        let solution = algorithm.try_solve(&aug.problem)?;
        let solve_time = solve_start.elapsed();
        let mut translation = translate(aug, &self.wan, &solution)?;
        if obs.enabled() {
            obs.record("te.solve_micros", solve_time.as_micros() as f64);
            obs.incr("te.augment.full_rebuilds", 1);
        }

        // Consistent-update plan + application through the hardware.
        let mut reconfig_downtime = SimDuration::ZERO;
        let mut failed_changes = 0usize;
        let mut rolled_back = 0usize;
        let mut retries = 0u32;
        let mut throughput = solution.total;
        let update_plan = if translation.upgrades.is_empty() {
            None
        } else {
            let changes: Vec<CapacityChange> = translation
                .upgrades
                .iter()
                .map(|&(link, to)| CapacityChange { link, to })
                .collect();
            let hitless = matches!(
                self.controller.config().procedure,
                rwc_optics::bvt::ReconfigProcedure::Efficient
            );
            let current = self.previous_flows.as_ref().map(|flows| TeSolution {
                routed: vec![],
                edge_flows: flows.clone(),
                total: 0.0,
            });
            // The drain plan: its interim allocation routes every demand
            // within min(old, new) capacity on each changing link, so it is
            // feasible no matter which commits land.
            let plan = try_plan_capacity_changes(
                &self.wan,
                demands,
                &changes,
                algorithm,
                hitless,
                current.as_ref(),
            )?;
            let mut committed: Vec<(LinkId, rwc_optics::Modulation)> = Vec::new();
            if self.mbb {
                // Make-before-break: stage each change, verify the drain
                // actually cleared the capacity delta, then commit. Any
                // phase failure leaves the link carrying its old rate.
                for change in &changes {
                    if self
                        .controller
                        .prepare_change(&self.wan, change.link, change.to, now)
                        .is_err()
                    {
                        failed_changes += 1;
                        continue;
                    }
                    // Drained-headroom check: the interim flow on the link
                    // must fit the transition capacity (the lesser of old
                    // and new), else committing would drop live traffic.
                    let fwd = plan.interim.edge_flows[2 * change.link.0];
                    let bwd = plan.interim.edge_flows[2 * change.link.0 + 1];
                    let transition_cap = self
                        .wan
                        .link(change.link)
                        .capacity()
                        .value()
                        .min(change.to.capacity().value());
                    if fwd.max(bwd) > transition_cap + 1e-6 {
                        self.controller.abort_change(change.link);
                        failed_changes += 1;
                        continue;
                    }
                    let result = self.controller.commit_change(&mut self.wan, change.link, now);
                    reconfig_downtime += result.downtime;
                    retries += result.retries;
                    if result.applied {
                        committed.push((change.link, change.to));
                    } else {
                        failed_changes += 1;
                        if result.rolled_back {
                            rolled_back += 1;
                        }
                    }
                }
            } else {
                // Direct path (experimental baseline): apply the changes in
                // place through the per-link BVT state machines.
                for change in &changes {
                    let result =
                        self.controller.execute_change(&mut self.wan, change.link, change.to, now);
                    reconfig_downtime += result.downtime;
                    retries += result.retries;
                    if result.applied {
                        committed.push((change.link, change.to));
                    } else {
                        failed_changes += 1;
                    }
                }
            }
            if self.mbb && committed.len() < changes.len() {
                // Not every planned change landed. The solver's allocation
                // assumed all of them, so it may route over capacity that
                // was never committed; hold the drained interim allocation
                // instead — it is feasible under the capacities the fleet
                // actually has (rolled-back links still carry their old
                // rate).
                translation.upgrades = committed;
                translation.real_edge_flows = plan.interim.edge_flows.clone();
                throughput = plan.interim.total;
            }
            Some(plan)
        };

        // Book-keeping for the next round.
        let churn = self
            .previous_flows
            .as_ref()
            .map(|prev| metrics::churn(prev, &translation.real_edge_flows))
            .unwrap_or(0.0);
        for (id, _) in self.wan.links() {
            let fwd = translation.real_edge_flows[2 * id.0];
            let bwd = translation.real_edge_flows[2 * id.0 + 1];
            self.link_traffic[id.0] = fwd.max(bwd);
        }
        self.previous_flows = Some(translation.real_edge_flows.clone());
        self.last_good_totals = Some((throughput, static_total));

        Ok(TeRound {
            throughput,
            static_throughput: static_total,
            translation,
            update_plan,
            reconfig_downtime,
            churn,
            te_fallback: false,
            solve_time,
            failed_changes,
            rolled_back,
            retries,
        })
    }

    /// The round reported when the solver fails: the previous allocation
    /// (and its throughputs) stay in force, nothing changes, no downtime.
    fn fallback_round(&self) -> TeRound {
        let flows = self
            .previous_flows
            .clone()
            .unwrap_or_else(|| vec![0.0; 2 * self.wan.n_links()]);
        let (throughput, static_throughput) = self.last_good_totals.unwrap_or((0.0, 0.0));
        TeRound {
            throughput,
            static_throughput,
            translation: Translation {
                upgrades: Vec::new(),
                real_edge_flows: flows,
                routed: Vec::new(),
                penalty_paid: 0.0,
                effective_penalty: 0.0,
            },
            update_plan: None,
            reconfig_downtime: SimDuration::ZERO,
            churn: 0.0,
            te_fallback: true,
            solve_time: Duration::ZERO,
            failed_changes: 0,
            rolled_back: 0,
            retries: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::penalty::PenaltyPolicy;
    use rwc_te::swan::SwanTe;
    use rwc_topology::builders;
    use rwc_topology::graph::NodeId;
    use rwc_util::units::Gbps;

    fn fig7_network() -> DynamicCapacityNetwork {
        let mut wan = builders::fig7_example();
        for (id, _) in wan.clone().links() {
            wan.set_snr(id, Db(7.5));
        }
        wan.set_snr(LinkId(0), Db(13.0));
        wan.set_snr(LinkId(1), Db(13.0));
        let aug = AugmentConfig {
            penalty: PenaltyPolicy::paper_example(),
            ..AugmentConfig::default()
        };
        DynamicCapacityNetwork::new(wan, aug, ControllerConfig::default(), 1)
    }

    fn fig7_demands(wan: &WanTopology, volume: f64) -> DemandMatrix {
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let c = wan.node_by_name("C").unwrap();
        let d = wan.node_by_name("D").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(volume), Priority::Elastic);
        dm.add(c, d, Gbps(volume), Priority::Elastic);
        dm
    }

    #[test]
    fn round_with_headroom_beats_static() {
        let mut net = fig7_network();
        let demands = fig7_demands(net.wan(), 180.0);
        let round = net.te_round(&demands, &SwanTe::default(), SimTime::EPOCH);
        assert!(
            round.throughput > round.static_throughput + 20.0,
            "dynamic {} vs static {}",
            round.throughput,
            round.static_throughput
        );
        assert!(round.gain() > 0.05);
        assert!(round.translation.requires_changes());
        assert!(round.update_plan.is_some());
        assert!(round.reconfig_downtime > SimDuration::ZERO);
    }

    #[test]
    fn upgrades_are_applied_to_topology() {
        let mut net = fig7_network();
        let demands = fig7_demands(net.wan(), 180.0);
        let before = net.wan().total_capacity();
        let round = net.te_round(&demands, &SwanTe::default(), SimTime::EPOCH);
        assert!(round.translation.requires_changes());
        assert!(net.wan().total_capacity() > before);
    }

    #[test]
    fn light_load_changes_nothing() {
        let mut net = fig7_network();
        let demands = fig7_demands(net.wan(), 40.0);
        let round = net.te_round(&demands, &SwanTe::default(), SimTime::EPOCH);
        assert!(!round.translation.requires_changes());
        assert!(round.update_plan.is_none());
        assert_eq!(round.reconfig_downtime, SimDuration::ZERO);
        assert!((round.gain()).abs() < 0.01);
    }

    #[test]
    fn second_round_reports_churn() {
        let mut net = fig7_network();
        let light = fig7_demands(net.wan(), 40.0);
        let heavy = fig7_demands(net.wan(), 180.0);
        let r1 = net.te_round(&light, &SwanTe::default(), SimTime::EPOCH);
        assert_eq!(r1.churn, 0.0, "first round has no predecessor");
        let r2 = net.te_round(
            &heavy,
            &SwanTe::default(),
            SimTime::EPOCH + SimDuration::from_minutes(15),
        );
        assert!(r2.churn > 0.0, "flows moved between rounds");
    }

    #[test]
    fn static_memo_is_capped_and_a_hit_after_eviction_equals_the_recompute() {
        let mut net = fig7_network();
        let demands = fig7_demands(net.wan(), 40.0);
        let te = SwanTe::default();
        let first = net.te_round(&demands, &te, SimTime::EPOCH);
        assert_eq!(net.static_memo.len(), 1);
        // Fill the map to the cap with keys no round produces.
        let (name, fingerprint) = (te.name(), te.solve_fingerprint());
        for i in 1..STATIC_MEMO_CAP {
            net.static_memo.insert((name, fingerprint, vec![i as u64], Vec::new()), 0.0);
        }
        let other = fig7_demands(net.wan(), 45.0);
        net.te_round(&other, &te, SimTime::EPOCH);
        assert_eq!(net.static_memo.len(), 1, "overflow clears, then stores the new key");
        // The evicted key is recomputed, then hit; both bit-equal the
        // first computation.
        for _ in 0..2 {
            let again = net.te_round(&demands, &te, SimTime::EPOCH);
            assert_eq!(again.static_throughput.to_bits(), first.static_throughput.to_bits());
        }
        assert_eq!(net.static_memo.len(), 2);
    }

    #[test]
    fn static_memo_keys_on_demand_priority() {
        // Line A–B–C, both links at 100 G with no upgrade headroom, and
        // demands A→C, A→B, B→C of 100 G each. SwanTe allocates by strict
        // priority, so swapping the classes changes the static optimum
        // (100 G with A→C first, 200 G with it last) while endpoints and
        // volumes stay the same.
        let line = || {
            let mut wan = WanTopology::new();
            let a = wan.add_node("A", None);
            let b = wan.add_node("B", None);
            let c = wan.add_node("C", None);
            for (x, y) in [(a, b), (b, c)] {
                let id = wan.add_link(x, y, 500.0);
                wan.set_snr(id, Db(7.0));
            }
            let (aug, ctl) = (AugmentConfig::default(), ControllerConfig::default());
            DynamicCapacityNetwork::new(wan, aug, ctl, 1)
        };
        let demands = |long: Priority, short: Priority| {
            let (a, b, c) = (NodeId(0), NodeId(1), NodeId(2));
            let mut dm = DemandMatrix::new();
            dm.add(a, c, Gbps(100.0), long);
            dm.add(a, b, Gbps(100.0), short);
            dm.add(b, c, Gbps(100.0), short);
            dm
        };
        let te = SwanTe::default();
        let mut net = line();
        let first_classes = demands(Priority::Interactive, Priority::Elastic);
        let first = net.te_round(&first_classes, &te, SimTime::EPOCH);
        assert!((first.static_throughput - 100.0).abs() < 1e-6, "{}", first.static_throughput);
        let swapped = demands(Priority::Elastic, Priority::Interactive);
        let second = net.te_round(&swapped, &te, SimTime::EPOCH);
        let fresh = line().te_round(&swapped, &te, SimTime::EPOCH);
        assert!((fresh.static_throughput - 200.0).abs() < 1e-6, "{}", fresh.static_throughput);
        assert_eq!(
            second.static_throughput.to_bits(),
            fresh.static_throughput.to_bits(),
            "the memo answered the swapped classes with the first round's total"
        );
        assert!(second.throughput >= second.static_throughput - 1e-6);
    }

    #[test]
    fn snr_ingest_triggers_walk_down() {
        let mut net = fig7_network();
        let report = net.ingest(&[(LinkId(0), Some(Db(5.0)))], SimTime::EPOCH);
        assert_eq!(report.failures_avoided, 1);
        assert_eq!(
            net.wan().link(LinkId(0)).modulation,
            rwc_optics::Modulation::DpBpsk50
        );
        // Subsequent TE sees the reduced capacity.
        let demands = fig7_demands(net.wan(), 180.0);
        let round = net.te_round(
            &demands,
            &SwanTe::default(),
            SimTime::EPOCH + SimDuration::from_minutes(15),
        );
        // The degraded link can no longer be upgraded (SNR 5 dB).
        assert!(round.translation.upgrade_of(LinkId(0)).is_none());
    }
}
