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
    for (id, link) in wan.links() {
        for e in TeProblem::link_edges(id) {
            problem.net.set_cost(e, config.penalty.real_cost(link));
        }
    }

    let mut fake_edges = Vec::new();
    for (id, link) in wan.links() {
        let upgrades = config.table.upgrades(link.snr, link.modulation);
        let Some(&fastest) = upgrades.last() else {
            continue;
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
        let traffic = current_traffic.get(id.0).copied().unwrap_or(0.0);
        for (target, extra) in steps {
            debug_assert!(extra > 0.0);
            let penalty = config.penalty.fake_cost(link, target, traffic);
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
    }
    AugmentedProblem { problem, fake_edges, n_real_edges }
}

/// Counters describing how an [`IncrementalAugmenter`] serviced requests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AugmentStats {
    /// Requests serviced, each by a full [`augment`] rebuild.
    pub full_rebuilds: u64,
    /// Always 0: nothing patches the augmented problem in place any more.
    /// Kept only because the benchmark package still reads the field;
    /// ROADMAP item 11 removes it.
    pub in_place_patches: u64,
    /// Always 0: nothing rebuilds only the fake-edge suffix any more.
    /// Kept only because the benchmark package still reads the field;
    /// ROADMAP item 11 removes it.
    pub suffix_rebuilds: u64,
}

/// Holds the round's augmented problem so the round engine can hand the
/// solver and the translator a `&AugmentedProblem`, and counts rebuilds.
/// Every call is a full [`augment`]: patching only the dirty links cost
/// about as much (DESIGN §7).
#[derive(Debug, Clone, Default)]
pub struct IncrementalAugmenter {
    current: Option<AugmentedProblem>,
    stats: AugmentStats,
}

impl IncrementalAugmenter {
    /// A fresh augmenter holding no problem.
    pub fn new() -> Self {
        Self::default()
    }

    /// Usage counters.
    pub fn stats(&self) -> AugmentStats {
        self.stats
    }

    /// [`augment`], keeping the result until the next call.
    pub fn augment(
        &mut self,
        wan: &WanTopology,
        demands: &DemandMatrix,
        config: &AugmentConfig,
        current_traffic: &[f64],
    ) -> &AugmentedProblem {
        self.stats.full_rebuilds += 1;
        self.current.insert(augment(wan, demands, config, current_traffic))
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
