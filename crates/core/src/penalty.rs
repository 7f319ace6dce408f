//! Penalty functions for fake (upgrade) links.
//!
//! §4.1: "the activation of a fake link is associated with a cost which is
//! a function of the amount of traffic disrupted when the link switches to
//! a higher bandwidth. … The TE operators are free to set these costs to be
//! as conservative or aggressive as they desire."
//!
//! Penalties here are *per unit of flow* routed over the fake link, which
//! is how a min-cost formulation consumes them. §4.2 adds that link
//! weights can be set in parallel to penalties — e.g. unit weights on every
//! link to force short paths (Fig. 7c) — so the policy also determines the
//! cost of *real* edges.

use rwc_optics::Modulation;
use rwc_topology::wan::WanLink;
use rwc_util::time::SimDuration;
use serde::{Deserialize, Serialize};

/// How upgrade costs (and real-link weights) are assigned.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub enum PenaltyPolicy {
    /// Fake links cost a fixed amount per unit flow; real links are free.
    /// The paper's worked example uses 100.
    Uniform(f64),
    /// Fake-link cost equals the traffic currently carried by the physical
    /// link (the paper's suggested default: reconfiguring a busy link
    /// disrupts more).
    #[default]
    CurrentTraffic,
    /// Fake-link cost is the expected reconfiguration downtime in seconds
    /// times this weight — ties the penalty to the BVT procedure in use
    /// (legacy ≈ 68 s is nearly 2000× more expensive than efficient
    /// ≈ 35 ms).
    DisruptionDuration {
        /// Cost per second of expected downtime per unit flow.
        weight_per_second: f64,
        /// Expected downtime of one reconfiguration.
        expected_downtime: SimDuration,
    },
    /// Unit weight on *every* edge, real or fake (Fig. 7c): the
    /// min-cost solution then favours short paths at all costs.
    UnitWeights,
}

impl PenaltyPolicy {
    /// The paper's worked-example policy (`cost = 100`).
    pub fn paper_example() -> Self {
        PenaltyPolicy::Uniform(100.0)
    }

    /// Refuses a cost or weight that is negative or not finite (NaN fails
    /// too); [`Self::fake_cost`] asserts it non-negative when a round first
    /// prices an upgrade.
    pub fn validate(&self) -> Result<(), String> {
        let penalty = match *self {
            PenaltyPolicy::Uniform(cost) => cost,
            PenaltyPolicy::DisruptionDuration { weight_per_second, .. } => weight_per_second,
            PenaltyPolicy::CurrentTraffic | PenaltyPolicy::UnitWeights => 0.0,
        };
        if penalty.is_finite() && penalty >= 0.0 {
            Ok(())
        } else {
            Err(format!("penalty ({penalty} per unit) must be finite and non-negative"))
        }
    }

    /// Cost per unit flow on a fake link upgrading `link` to `target`.
    ///
    /// `current_traffic` is the flow the physical link carries right now
    /// (0 if unknown/idle).
    pub fn fake_cost(
        &self,
        link: &WanLink,
        target: Modulation,
        current_traffic: f64,
    ) -> f64 {
        let _ = (link, target);
        match self {
            PenaltyPolicy::Uniform(cost) => {
                assert!(*cost >= 0.0, "negative penalty");
                *cost
            }
            PenaltyPolicy::CurrentTraffic => current_traffic.max(0.0),
            PenaltyPolicy::DisruptionDuration { weight_per_second, expected_downtime } => {
                assert!(*weight_per_second >= 0.0, "negative weight");
                weight_per_second * expected_downtime.as_secs_f64()
            }
            PenaltyPolicy::UnitWeights => 1.0,
        }
    }

    /// Cost per unit flow on a real link (0 except under unit weights).
    pub fn real_cost(&self, link: &WanLink) -> f64 {
        let _ = link;
        match self {
            PenaltyPolicy::UnitWeights => 1.0,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rwc_topology::builders;

    fn a_link() -> WanLink {
        builders::fig7_example().link(rwc_topology::wan::LinkId(0)).clone()
    }

    #[test]
    fn uniform_ignores_traffic() {
        let p = PenaltyPolicy::Uniform(100.0);
        assert_eq!(p.fake_cost(&a_link(), Modulation::Dp16Qam200, 0.0), 100.0);
        assert_eq!(p.fake_cost(&a_link(), Modulation::Dp16Qam200, 500.0), 100.0);
        assert_eq!(p.real_cost(&a_link()), 0.0);
    }

    #[test]
    fn current_traffic_scales() {
        let p = PenaltyPolicy::CurrentTraffic;
        assert_eq!(p.fake_cost(&a_link(), Modulation::Hybrid125, 0.0), 0.0);
        assert_eq!(p.fake_cost(&a_link(), Modulation::Hybrid125, 80.0), 80.0);
        assert_eq!(p.fake_cost(&a_link(), Modulation::Hybrid125, -3.0), 0.0, "clamped");
    }

    #[test]
    fn disruption_duration_tracks_procedure() {
        let legacy = PenaltyPolicy::DisruptionDuration {
            weight_per_second: 1.0,
            expected_downtime: SimDuration::from_secs(68),
        };
        let efficient = PenaltyPolicy::DisruptionDuration {
            weight_per_second: 1.0,
            expected_downtime: SimDuration::from_millis(35),
        };
        let l = legacy.fake_cost(&a_link(), Modulation::Dp16Qam200, 0.0);
        let e = efficient.fake_cost(&a_link(), Modulation::Dp16Qam200, 0.0);
        assert!((l / e - 68.0 / 0.035).abs() < 1.0, "ratio {l}/{e}");
    }

    #[test]
    fn unit_weights_hit_real_edges_too() {
        let p = PenaltyPolicy::UnitWeights;
        assert_eq!(p.real_cost(&a_link()), 1.0);
        assert_eq!(p.fake_cost(&a_link(), Modulation::Hybrid125, 42.0), 1.0);
    }

    #[test]
    fn paper_example_value() {
        assert_eq!(PenaltyPolicy::paper_example(), PenaltyPolicy::Uniform(100.0));
    }
}
