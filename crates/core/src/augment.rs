//! Algorithm 1: graph augmentation.
//!
//! For every physical link whose measured SNR supports a rate above its
//! configured one, insert *fake* parallel edges carrying the extra
//! capacity, each annotated with a penalty. An unmodified TE algorithm run
//! on the augmented graph will route over a fake edge exactly when the
//! extra capacity buys more than the penalty costs — and that routing *is*
//! the upgrade decision (read back by [`mod@crate::translate`]).
//!
//! Two ladder treatments are provided:
//!
//! - **single-step** (the paper's Algorithm 1, `U[v,w]` as one number):
//!   one fake edge per direction with capacity `feasible − current`;
//! - **multi-step**: one fake edge per intermediate rung, each carrying
//!   that rung's increment with its own penalty, letting the optimiser
//!   choose *how far* up the ladder to go, not just whether.

use crate::penalty::PenaltyPolicy;
use rwc_optics::{Modulation, ModulationTable};
use rwc_te::demand::DemandMatrix;
use rwc_te::problem::{EdgeOrigin, TeProblem};
use rwc_topology::wan::{LinkId, WanTopology};

/// Augmentation configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AugmentConfig {
    /// Hardware modulation table (thresholds may include guard margins).
    pub table: ModulationTable,
    /// Penalty policy for fake (and real) edge costs.
    pub penalty: PenaltyPolicy,
    /// If true, add one fake edge per rung between the current and the
    /// fastest feasible rate; if false, a single fake edge to the fastest
    /// feasible rate (the paper's formulation).
    pub multi_step: bool,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        Self {
            table: ModulationTable::paper_default(),
            penalty: PenaltyPolicy::default(),
            multi_step: false,
        }
    }
}

/// One fake edge of the augmented problem.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FakeEdge {
    /// Index of the edge in the augmented problem's network.
    pub edge_index: usize,
    /// The physical link it would upgrade.
    pub link: LinkId,
    /// Direction (`true` = the link's `a→b`).
    pub forward: bool,
    /// The rung this edge's capacity belongs to.
    pub target: Modulation,
    /// Extra capacity the edge carries (Gbps).
    pub extra_capacity: f64,
    /// Per-unit-flow penalty charged on it.
    pub penalty: f64,
}

/// The augmented TE problem plus the fake-edge ledger.
#[derive(Debug, Clone)]
pub struct AugmentedProblem {
    /// The problem handed to the (unmodified) TE algorithm.
    pub problem: TeProblem,
    /// Fake edges in insertion order.
    pub fake_edges: Vec<FakeEdge>,
    /// Number of real edges (the prefix of the edge list).
    pub n_real_edges: usize,
}

/// Algorithm 1. `current_traffic` supplies the per-link load used by
/// traffic-dependent penalty policies (indexed by `LinkId`; links beyond
/// its length count as idle).
///
/// ```
/// use rwc_core::augment::{augment, AugmentConfig};
/// use rwc_te::demand::DemandMatrix;
/// use rwc_util::units::Db;
///
/// let mut wan = rwc_topology::builders::fig7_example();
/// for (id, _) in wan.clone().links() {
///     wan.set_snr(id, Db(7.5)); // healthy at 100 G, no headroom
/// }
/// wan.set_snr(rwc_topology::wan::LinkId(0), Db(13.0)); // can run 200 G
///
/// let aug = augment(&wan, &DemandMatrix::new(), &AugmentConfig::default(), &[]);
/// // One upgradable link → one fake edge per direction.
/// assert_eq!(aug.fake_edges.len(), 2);
/// assert_eq!(aug.problem.net.n_edges(), aug.n_real_edges + 2);
/// ```
pub fn augment(
    wan: &WanTopology,
    demands: &DemandMatrix,
    config: &AugmentConfig,
    current_traffic: &[f64],
) -> AugmentedProblem {
    let mut problem = TeProblem::from_wan(wan, demands);
    let n_real_edges = problem.net.n_edges();

    // Apply the policy's real-edge costs (unit weights etc.).
    if !config.penalty.real_cost_is_zero() {
        let mut net = rwc_flow::network::FlowNetwork::new(problem.net.n_nodes());
        for (i, e) in problem.net.edges().iter().enumerate() {
            let link = wan.link(LinkId(i / 2));
            net.add_edge(e.from, e.to, e.capacity, config.penalty.real_cost(link));
        }
        problem.net = net;
    }

    let mut fake_edges = Vec::new();
    for (id, link) in wan.links() {
        let traffic = current_traffic.get(id.0).copied().unwrap_or(0.0);
        for (target, extra, penalty) in link_steps(link, config, traffic) {
            append_fake_pair(&mut problem, &mut fake_edges, link, id, target, extra, penalty);
        }
    }
    AugmentedProblem { problem, fake_edges, n_real_edges }
}

/// The fake-edge ladder for one link: `(target rung, extra capacity,
/// penalty)` per step, exactly as `augment` would emit it. Shared by the
/// full and incremental paths so both compute bit-identical gadgets.
fn link_steps(
    link: &rwc_topology::wan::WanLink,
    config: &AugmentConfig,
    traffic: f64,
) -> Vec<(Modulation, f64, f64)> {
    let upgrades = config.table.upgrades(link.snr, link.modulation);
    let Some(&fastest) = upgrades.last() else {
        return Vec::new();
    };
    let steps: Vec<(Modulation, f64)> = if config.multi_step {
        // One increment per rung: capacity deltas between consecutive
        // rungs starting from the current rate.
        let mut prev = link.capacity().value();
        upgrades
            .iter()
            .map(|&m| {
                let delta = m.capacity().value() - prev;
                prev = m.capacity().value();
                (m, delta)
            })
            .collect()
    } else {
        vec![(fastest, fastest.capacity().value() - link.capacity().value())]
    };
    steps
        .into_iter()
        .map(|(target, extra)| {
            debug_assert!(extra > 0.0);
            (target, extra, config.penalty.fake_cost(link, target, traffic))
        })
        .collect()
}

/// Appends one ladder step's forward/backward fake-edge pair to the
/// problem and the ledger, in the exact order `augment` uses.
fn append_fake_pair(
    problem: &mut TeProblem,
    fake_edges: &mut Vec<FakeEdge>,
    link: &rwc_topology::wan::WanLink,
    id: LinkId,
    target: Modulation,
    extra: f64,
    penalty: f64,
) {
    for forward in [true, false] {
        let (from, to) = if forward { (link.a.0, link.b.0) } else { (link.b.0, link.a.0) };
        let edge_index = problem.net.add_edge(from, to, extra, penalty);
        problem.origins.push(EdgeOrigin::Fake { link: id, forward });
        fake_edges.push(FakeEdge {
            edge_index,
            link: id,
            forward,
            target,
            extra_capacity: extra,
            penalty,
        });
    }
}

/// Counters describing how the incremental augmenter serviced requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AugmentStats {
    /// Requests that rebuilt the whole problem (first call, or structural
    /// change: topology shape, demand structure or config).
    pub full_rebuilds: u64,
    /// Requests serviced by patching dirty links in place.
    pub in_place_patches: u64,
    /// Requests where a dirty link's ladder changed shape, forcing a
    /// rebuild of the fake-edge suffix (real edges untouched).
    pub suffix_rebuilds: u64,
    /// Total dirty links across all incremental requests.
    pub dirty_links: u64,
}

/// Cached per-link augmentation state: the inputs the gadget depends on
/// plus the ladder it produced last time.
#[derive(Debug, Clone, PartialEq)]
struct LinkGadget {
    snr_bits: u64,
    modulation: Modulation,
    /// Traffic the penalty was computed from, as bits; constant 0 for
    /// traffic-independent policies so traffic swings don't dirty links.
    traffic_bits: u64,
    steps: Vec<(Modulation, f64, f64)>,
    /// Index of this link's first entry in the fake-edge ledger.
    fake_offset: usize,
}

/// Dirty-link incremental Algorithm 1.
///
/// Owns the augmented problem across rounds. Each call compares every
/// link's gadget inputs (SNR, modulation and — for traffic-dependent
/// penalty policies — current traffic) against the previous round and
/// recomputes only the *dirty* links' ladders:
///
/// - when every dirty ladder keeps its shape (step count), the existing
///   fake edges and ledger entries are patched in place;
/// - when a ladder changes shape, the fake-edge suffix is rebuilt from
///   cached ladders (real edges and commodities are never reconstructed);
/// - any structural change — topology shape, demand structure, config —
///   falls back to a full [`augment`] rebuild.
///
/// The result is guaranteed identical to a fresh [`augment`] call with
/// the same inputs (both paths derive every number through the same
/// [`link_steps`] helper and emit edges in the same order), which is what
/// lets the round engine swap it in without changing any report byte.
#[derive(Debug, Clone, Default)]
pub struct IncrementalAugmenter {
    cached: Option<AugmentedProblem>,
    gadgets: Vec<LinkGadget>,
    config: Option<AugmentConfig>,
    stats: AugmentStats,
}

impl IncrementalAugmenter {
    /// A fresh augmenter with no cached problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Usage counters.
    pub fn stats(&self) -> AugmentStats {
        self.stats
    }

    /// Drops the cache; the next call rebuilds from scratch.
    pub fn reset(&mut self) {
        self.cached = None;
    }

    /// Incremental [`augment`]: returns a problem identical to
    /// `augment(wan, demands, config, current_traffic)`, patching the
    /// cached one where possible.
    pub fn augment(
        &mut self,
        wan: &WanTopology,
        demands: &DemandMatrix,
        config: &AugmentConfig,
        current_traffic: &[f64],
    ) -> &AugmentedProblem {
        if !self.can_patch(wan, demands, config) {
            return self.rebuild(wan, demands, config, current_traffic);
        }
        let traffic_dependent = matches!(config.penalty, PenaltyPolicy::CurrentTraffic);
        // `can_patch` only returns true with a cached problem; taking it
        // out lets the patch body work on an owned value (no aliasing with
        // the gadget cache) and makes the no-cache path a rebuild instead
        // of a crash.
        let Some(mut aug) = self.cached.take() else {
            return self.rebuild(wan, demands, config, current_traffic);
        };

        // Commodities: structure is unchanged (checked above), volumes may
        // have scaled — patch them all, it's O(#demands).
        for (i, d) in demands.demands().iter().enumerate() {
            aug.problem.commodities[i].demand = d.volume.value();
            aug.problem.demands[i] = *d;
        }

        // Dirty scan + per-link recompute.
        let mut dirty: Vec<LinkId> = Vec::new();
        let mut shape_changed = false;
        for (id, link) in wan.links() {
            let traffic = current_traffic.get(id.0).copied().unwrap_or(0.0);
            let snr_bits = link.snr.value().to_bits();
            let traffic_bits = if traffic_dependent { traffic.to_bits() } else { 0 };
            let g = &self.gadgets[id.0];
            if g.snr_bits == snr_bits
                && g.modulation == link.modulation
                && g.traffic_bits == traffic_bits
            {
                continue;
            }
            let steps = link_steps(link, config, traffic);
            if steps.len() != g.steps.len() {
                shape_changed = true;
            }
            let g = &mut self.gadgets[id.0];
            g.snr_bits = snr_bits;
            g.modulation = link.modulation;
            g.traffic_bits = traffic_bits;
            g.steps = steps;
            dirty.push(id);
            self.stats.dirty_links += 1;
            // Real edges of a dirty link: capacity follows the modulation
            // (cost is policy-constant and the config didn't change).
            let cap = link.capacity().value();
            aug.problem.net.set_capacity(2 * id.0, cap);
            aug.problem.net.set_capacity(2 * id.0 + 1, cap);
        }

        if dirty.is_empty() {
            self.stats.in_place_patches += 1;
        } else if !shape_changed {
            // Every dirty ladder kept its shape: overwrite the existing
            // fake edges and ledger entries in place.
            self.stats.in_place_patches += 1;
            for id in dirty {
                let g = &self.gadgets[id.0];
                for (si, &(target, extra, penalty)) in g.steps.iter().enumerate() {
                    for dir in 0..2 {
                        let fi = g.fake_offset + 2 * si + dir;
                        let f = &mut aug.fake_edges[fi];
                        f.target = target;
                        f.extra_capacity = extra;
                        f.penalty = penalty;
                        aug.problem.net.set_capacity(f.edge_index, extra);
                        aug.problem.net.set_cost(f.edge_index, penalty);
                    }
                }
            }
        } else {
            // A ladder grew or shrank: edge indices after it shift, so
            // rebuild the fake suffix from the cached ladders. Real edges
            // and commodities stay as patched above.
            self.stats.suffix_rebuilds += 1;
            aug.problem.net.truncate_edges(aug.n_real_edges);
            aug.problem.origins.truncate(aug.n_real_edges);
            aug.fake_edges.clear();
            for (id, link) in wan.links() {
                let g = &mut self.gadgets[id.0];
                g.fake_offset = aug.fake_edges.len();
                for &(target, extra, penalty) in &g.steps {
                    append_fake_pair(
                        &mut aug.problem,
                        &mut aug.fake_edges,
                        link,
                        id,
                        target,
                        extra,
                        penalty,
                    );
                }
            }
        }
        self.cached.insert(aug)
    }

    /// Whether the cached problem can be patched to match the new inputs.
    fn can_patch(&self, wan: &WanTopology, demands: &DemandMatrix, config: &AugmentConfig) -> bool {
        let Some(aug) = &self.cached else {
            return false;
        };
        if self.config.as_ref() != Some(config) {
            return false;
        }
        if aug.n_real_edges != 2 * wan.n_links()
            || aug.problem.net.n_nodes() != wan.n_nodes()
            || self.gadgets.len() != wan.n_links()
        {
            return false;
        }
        // Demand structure (endpoints, priority, count) must match; only
        // volumes may change between patches.
        let ds = demands.demands();
        aug.problem.demands.len() == ds.len()
            && aug
                .problem
                .demands
                .iter()
                .zip(ds)
                .all(|(a, b)| a.from == b.from && a.to == b.to && a.priority == b.priority)
    }

    /// Full rebuild through [`augment`], repopulating the gadget cache.
    fn rebuild(
        &mut self,
        wan: &WanTopology,
        demands: &DemandMatrix,
        config: &AugmentConfig,
        current_traffic: &[f64],
    ) -> &AugmentedProblem {
        self.stats.full_rebuilds += 1;
        let traffic_dependent = matches!(config.penalty, PenaltyPolicy::CurrentTraffic);
        let aug = augment(wan, demands, config, current_traffic);
        self.gadgets.clear();
        let mut fake_offset = 0usize;
        for (id, link) in wan.links() {
            let traffic = current_traffic.get(id.0).copied().unwrap_or(0.0);
            let steps = link_steps(link, config, traffic);
            let n = steps.len();
            self.gadgets.push(LinkGadget {
                snr_bits: link.snr.value().to_bits(),
                modulation: link.modulation,
                traffic_bits: if traffic_dependent { traffic.to_bits() } else { 0 },
                steps,
                fake_offset,
            });
            fake_offset += 2 * n;
        }
        self.config = Some(config.clone());
        self.cached.insert(aug)
    }
}

impl PenaltyPolicy {
    /// True when the policy assigns zero cost to real edges (lets
    /// augmentation skip rebuilding the network).
    pub(crate) fn real_cost_is_zero(&self) -> bool {
        !matches!(self, PenaltyPolicy::UnitWeights)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_topology::builders;
    use rwc_util::units::{Db, Gbps};

    fn fig7_with_headroom() -> WanTopology {
        // All five links healthy at 100 G; links 0 (A–B) and 1 (C–D) have
        // SNR for 200 G, the rest sit just below the 125 G threshold.
        let mut wan = builders::fig7_example();
        for (id, _) in wan.clone().links() {
            wan.set_snr(id, Db(7.5));
        }
        wan.set_snr(rwc_topology::wan::LinkId(0), Db(13.0));
        wan.set_snr(rwc_topology::wan::LinkId(1), Db(13.0));
        wan
    }

    #[test]
    fn fake_edges_only_where_snr_allows() {
        let wan = fig7_with_headroom();
        let aug = augment(&wan, &DemandMatrix::new(), &AugmentConfig::default(), &[]);
        // Two upgradable links × two directions × one step = 4 fakes.
        assert_eq!(aug.fake_edges.len(), 4);
        assert_eq!(aug.n_real_edges, 8);
        assert_eq!(aug.problem.net.n_edges(), 12);
        let upgraded: Vec<usize> =
            aug.fake_edges.iter().map(|f| f.link.0).collect();
        assert!(upgraded.iter().all(|&l| l == 0 || l == 1), "{upgraded:?}");
    }

    #[test]
    fn single_step_capacity_is_full_delta() {
        let wan = fig7_with_headroom();
        let aug = augment(&wan, &DemandMatrix::new(), &AugmentConfig::default(), &[]);
        for f in &aug.fake_edges {
            assert_eq!(f.target, Modulation::Dp16Qam200);
            assert_eq!(f.extra_capacity, 100.0, "200 − 100");
        }
    }

    #[test]
    fn multi_step_builds_ladder() {
        let wan = fig7_with_headroom();
        let cfg = AugmentConfig { multi_step: true, ..AugmentConfig::default() };
        let aug = augment(&wan, &DemandMatrix::new(), &cfg, &[]);
        // 13 dB supports 125/150/175/200: four increments per direction,
        // two links → 16 fakes.
        assert_eq!(aug.fake_edges.len(), 16);
        let link0: Vec<&FakeEdge> =
            aug.fake_edges.iter().filter(|f| f.link == rwc_topology::wan::LinkId(0)).collect();
        let total_extra: f64 = link0
            .iter()
            .filter(|f| f.forward)
            .map(|f| f.extra_capacity)
            .sum();
        assert_eq!(total_extra, 100.0, "increments sum to the full delta");
        // Increments are 25 each.
        assert!(link0.iter().all(|f| f.extra_capacity == 25.0));
    }

    #[test]
    fn penalty_policy_applied() {
        let wan = fig7_with_headroom();
        let cfg = AugmentConfig {
            penalty: PenaltyPolicy::Uniform(100.0),
            ..AugmentConfig::default()
        };
        let aug = augment(&wan, &DemandMatrix::new(), &cfg, &[]);
        assert!(aug.fake_edges.iter().all(|f| f.penalty == 100.0));
        // Real edges stay free.
        for i in 0..aug.n_real_edges {
            assert_eq!(aug.problem.net.edge(i).cost, 0.0);
        }
    }

    #[test]
    fn current_traffic_penalty_uses_load() {
        let wan = fig7_with_headroom();
        let cfg = AugmentConfig {
            penalty: PenaltyPolicy::CurrentTraffic,
            ..AugmentConfig::default()
        };
        // Link 0 carries 80 G, link 1 idle.
        let aug = augment(&wan, &DemandMatrix::new(), &cfg, &[80.0, 0.0]);
        for f in &aug.fake_edges {
            let expected = if f.link.0 == 0 { 80.0 } else { 0.0 };
            assert_eq!(f.penalty, expected, "link {}", f.link.0);
        }
    }

    #[test]
    fn unit_weights_cost_real_edges() {
        let wan = fig7_with_headroom();
        let cfg = AugmentConfig {
            penalty: PenaltyPolicy::UnitWeights,
            ..AugmentConfig::default()
        };
        let aug = augment(&wan, &DemandMatrix::new(), &cfg, &[]);
        for i in 0..aug.problem.net.n_edges() {
            assert_eq!(aug.problem.net.edge(i).cost, 1.0, "edge {i}");
        }
    }

    #[test]
    fn degraded_link_gets_no_fakes() {
        let mut wan = fig7_with_headroom();
        wan.set_snr(rwc_topology::wan::LinkId(0), Db(5.0)); // below 100 G
        let aug = augment(&wan, &DemandMatrix::new(), &AugmentConfig::default(), &[]);
        assert!(aug.fake_edges.iter().all(|f| f.link != rwc_topology::wan::LinkId(0)));
    }

    #[test]
    fn capacity_reduction_via_reaugmentation() {
        // §4.2: "Reductions in link capacities … handled by removing the
        // corresponding fake edges." Re-running Algorithm 1 after an SNR
        // drop is exactly that removal.
        let mut wan = fig7_with_headroom();
        let before = augment(&wan, &DemandMatrix::new(), &AugmentConfig::default(), &[]);
        wan.set_snr(rwc_topology::wan::LinkId(1), Db(7.0));
        let after = augment(&wan, &DemandMatrix::new(), &AugmentConfig::default(), &[]);
        assert!(after.fake_edges.len() < before.fake_edges.len());
        assert!(after.fake_edges.iter().all(|f| f.link != rwc_topology::wan::LinkId(1)));
    }

    /// Asserts the incremental result is indistinguishable from a fresh
    /// `augment` of the same inputs — networks, ledgers and origins.
    fn assert_identical(inc: &AugmentedProblem, fresh: &AugmentedProblem) {
        assert_eq!(inc.n_real_edges, fresh.n_real_edges);
        assert_eq!(inc.problem.net, fresh.problem.net);
        assert_eq!(inc.fake_edges, fresh.fake_edges);
        assert_eq!(inc.problem.origins, fresh.problem.origins);
        assert_eq!(inc.problem.commodities.len(), fresh.problem.commodities.len());
        for (a, b) in inc.problem.commodities.iter().zip(&fresh.problem.commodities) {
            assert_eq!(a.source, b.source);
            assert_eq!(a.sink, b.sink);
            assert_eq!(a.demand.to_bits(), b.demand.to_bits());
        }
    }

    #[test]
    fn incremental_matches_full_across_snr_drift() {
        let mut wan = fig7_with_headroom();
        let cfg = AugmentConfig::default();
        let mut inc = IncrementalAugmenter::new();
        // Rounds of SNR drift: upgrades appear, change rung and vanish.
        let snrs = [13.0, 13.2, 10.0, 7.0, 13.0, 5.0, 13.5];
        for (round, &snr) in snrs.iter().enumerate() {
            wan.set_snr(rwc_topology::wan::LinkId(round % 2), Db(snr));
            let fresh = augment(&wan, &DemandMatrix::new(), &cfg, &[]);
            let patched = inc.augment(&wan, &DemandMatrix::new(), &cfg, &[]);
            assert_identical(patched, &fresh);
        }
        let stats = inc.stats();
        assert_eq!(stats.full_rebuilds, 1, "only the first call rebuilds: {stats:?}");
        assert!(stats.suffix_rebuilds >= 1, "rung changes force suffix rebuilds: {stats:?}");
    }

    #[test]
    fn incremental_patches_in_place_when_only_traffic_moves() {
        let wan = fig7_with_headroom();
        let cfg = AugmentConfig {
            penalty: PenaltyPolicy::CurrentTraffic,
            ..AugmentConfig::default()
        };
        let mut inc = IncrementalAugmenter::new();
        for traffic in [[0.0, 0.0], [80.0, 10.0], [80.0, 10.0], [20.0, 90.0]] {
            let fresh = augment(&wan, &DemandMatrix::new(), &cfg, &traffic);
            let patched = inc.augment(&wan, &DemandMatrix::new(), &cfg, &traffic);
            assert_identical(patched, &fresh);
        }
        let stats = inc.stats();
        assert_eq!(stats.full_rebuilds, 1);
        assert_eq!(stats.suffix_rebuilds, 0, "same ladder shape: patch in place");
        assert_eq!(stats.in_place_patches, 3);
    }

    #[test]
    fn incremental_tracks_demand_scaling() {
        let wan = fig7_with_headroom();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(120.0), rwc_te::demand::Priority::Elastic);
        let cfg = AugmentConfig::default();
        let mut inc = IncrementalAugmenter::new();
        for scale in [1.0, 1.3, 0.7, 1.0] {
            let scaled = dm.scaled(scale);
            let fresh = augment(&wan, &scaled, &cfg, &[]);
            let patched = inc.augment(&wan, &scaled, &cfg, &[]);
            assert_identical(patched, &fresh);
        }
        assert_eq!(inc.stats().full_rebuilds, 1, "volume changes never rebuild");
    }

    #[test]
    fn config_change_forces_full_rebuild() {
        let wan = fig7_with_headroom();
        let mut inc = IncrementalAugmenter::new();
        inc.augment(&wan, &DemandMatrix::new(), &AugmentConfig::default(), &[]);
        let multi = AugmentConfig { multi_step: true, ..AugmentConfig::default() };
        let fresh = augment(&wan, &DemandMatrix::new(), &multi, &[]);
        let patched = inc.augment(&wan, &DemandMatrix::new(), &multi, &[]);
        assert_identical(patched, &fresh);
        assert_eq!(inc.stats().full_rebuilds, 2);
    }

    #[test]
    fn total_capacity_bound() {
        // Augmented capacity between two nodes never exceeds the fastest
        // feasible rung.
        let wan = fig7_with_headroom();
        let aug = augment(&wan, &DemandMatrix::new(), &AugmentConfig::default(), &[]);
        let link = wan.link(rwc_topology::wan::LinkId(0));
        let total: f64 = aug
            .problem
            .net
            .edges()
            .iter()
            .enumerate()
            .filter(|(i, e)| {
                e.from == link.a.0
                    && e.to == link.b.0
                    && (*i < aug.n_real_edges || aug.fake_edges.iter().any(|f| f.edge_index == *i))
            })
            .map(|(_, e)| e.capacity)
            .sum();
        assert_eq!(Gbps(total), Modulation::Dp16Qam200.capacity());
    }
}
