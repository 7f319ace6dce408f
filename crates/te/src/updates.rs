//! Consistent network updates around capacity changes.
//!
//! §4.2(ii): a flow that may be rerouted but not disrupted is handled with
//! the consistent-updates toolkit — identify the links to be updated `E_U`,
//! drain them (recompute TE with their capacity reduced), apply the
//! reconfiguration, then move to the final allocation. Only the first step
//! needs a solve: by Theorem 1 the final allocation is the translated flow
//! of the augmented problem, which the caller already holds. This module
//! solves the drained (interim) allocation and accounts for the churn of
//! moving into it.
//!
//! The drain capacity depends on the BVT procedure: the *legacy* procedure
//! takes the link fully down (~68 s), so the interim state must treat it
//! as capacity 0; the *efficient* procedure (~35 ms) keeps the link alive
//! at the lower of the two rates.

use crate::demand::DemandMatrix;
use crate::metrics::churn;
use crate::problem::{TeProblem, TeSolution};
use crate::{TeAlgorithm, TeError};
use rwc_optics::Modulation;
use rwc_topology::wan::{LinkId, WanTopology};

/// One planned capacity change.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityChange {
    /// Which link.
    pub link: LinkId,
    /// Target modulation.
    pub to: Modulation,
}

/// The drain step of a consistent-update plan. The final allocation is
/// not part of it: it is the translated flow the plan was made for.
#[derive(Debug, Clone)]
pub struct UpdatePlan {
    /// Allocation while the changing links are drained/reduced.
    pub interim: TeSolution,
    /// Traffic moved entering the interim state.
    pub churn_into_interim: f64,
}

/// Builds a consistent-update plan for a set of capacity changes with one
/// solve, of the interim problem.
///
/// `current` is the allocation in force before the update (used for churn
/// accounting of the first transition); pass `None` to start from an idle
/// network. `hitless` selects the efficient BVT procedure (links stay up
/// at `min(old, new)` during the change) vs the legacy one (links drop to
/// zero). An empty change set or a solver failure comes back as a
/// [`TeError`], so the caller can keep the previous allocation in force.
pub fn try_plan_capacity_changes(
    wan: &WanTopology,
    demands: &DemandMatrix,
    changes: &[CapacityChange],
    algorithm: &dyn TeAlgorithm,
    hitless: bool,
    current: Option<&TeSolution>,
) -> Result<UpdatePlan, TeError> {
    if changes.is_empty() {
        return Err(TeError::InvalidConfig {
            algorithm: algorithm.name(),
            detail: "no changes to plan".into(),
        });
    }

    // Interim problem: changing links at their transition capacity.
    let mut interim_problem = TeProblem::from_wan(wan, demands);
    for change in changes {
        let old_cap = wan.link(change.link).capacity();
        let transition = if hitless {
            old_cap.min(change.to.capacity()).value()
        } else {
            0.0
        };
        // from_wan lays out edges as (2·link, 2·link+1).
        interim_problem.override_link_capacity(change.link, transition);
    }
    let interim = algorithm.try_solve(&interim_problem)?;

    let zero = vec![0.0; interim.edge_flows.len()];
    let before = current.map(|s| s.edge_flows.as_slice()).unwrap_or(&zero);
    Ok(UpdatePlan { churn_into_interim: churn(before, &interim.edge_flows), interim })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demand::Priority;
    use crate::swan::SwanTe;
    use rwc_topology::builders;
    use rwc_util::units::Gbps;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn setup() -> (WanTopology, DemandMatrix, CapacityChange) {
        let wan = builders::fig7_example();
        let a = wan.node_by_name("A").unwrap();
        let b = wan.node_by_name("B").unwrap();
        let mut dm = DemandMatrix::new();
        dm.add(a, b, Gbps(120.0), Priority::Elastic);
        // Upgrade the direct A–B link (link 0) to 200 G.
        (wan, dm, CapacityChange { link: LinkId(0), to: Modulation::Dp16Qam200 })
    }

    /// Throughput of the final state: every change applied.
    fn final_total(
        wan: &WanTopology,
        dm: &DemandMatrix,
        changes: &[CapacityChange],
        algo: &dyn TeAlgorithm,
    ) -> f64 {
        let mut upgraded = wan.clone();
        for change in changes {
            upgraded.set_modulation(change.link, change.to);
        }
        algo.try_solve(&TeProblem::from_wan(&upgraded, dm)).expect("TE solve").total
    }

    /// Counts the solves it forwards.
    struct Counting<'a> {
        inner: &'a dyn TeAlgorithm,
        solves: AtomicUsize,
    }

    impl TeAlgorithm for Counting<'_> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn try_solve(&self, problem: &TeProblem) -> Result<TeSolution, TeError> {
            self.solves.fetch_add(1, Ordering::Relaxed);
            self.inner.try_solve(problem)
        }
    }

    #[test]
    fn hitless_keeps_interim_throughput() {
        let (wan, dm, change) = setup();
        let algo = SwanTe::default();
        let plan =
            try_plan_capacity_changes(&wan, &dm, &[change], &algo, true, None).expect("plan");
        // Hitless: link stays at 100 G during the change; the 120 G demand
        // still routes (100 direct + detour).
        assert!(plan.interim.total > 110.0, "interim={}", plan.interim.total);
        // Final: 200 G direct link satisfies everything.
        assert!((final_total(&wan, &dm, &[change], &algo) - 120.0).abs() < 2.0);
    }

    #[test]
    fn legacy_drain_hurts_interim() {
        let (wan, dm, change) = setup();
        let algo = SwanTe::default();
        let hitless =
            try_plan_capacity_changes(&wan, &dm, &[change], &algo, true, None).expect("plan");
        let legacy =
            try_plan_capacity_changes(&wan, &dm, &[change], &algo, false, None).expect("plan");
        // With the direct link dark, only the detour capacity remains.
        assert!(
            legacy.interim.total < hitless.interim.total,
            "legacy interim {} must trail hitless {}",
            legacy.interim.total,
            hitless.interim.total
        );
        // So the legacy procedure loses more throughput on the way to the
        // same final state.
        let final_total = final_total(&wan, &dm, &[change], &algo);
        let gap = |interim: f64| (final_total - interim).max(0.0);
        assert!(gap(legacy.interim.total) > gap(hitless.interim.total));
    }

    #[test]
    fn churn_accounting() {
        let (wan, dm, change) = setup();
        let algo = SwanTe::default();
        // Starting from the current (pre-update) allocation.
        let current = algo.try_solve(&TeProblem::from_wan(&wan, &dm)).expect("TE solve");
        let plan = try_plan_capacity_changes(&wan, &dm, &[change], &algo, true, Some(&current))
            .expect("plan");
        assert!(plan.churn_into_interim >= 0.0);
        assert_eq!(plan.churn_into_interim, churn(&current.edge_flows, &plan.interim.edge_flows));
        // Final state routes at least as much as the start.
        assert!(final_total(&wan, &dm, &[change], &algo) >= current.total - 1e-6);
    }

    #[test]
    fn multiple_simultaneous_changes() {
        let (wan, dm, _) = setup();
        let algo = SwanTe::default();
        let changes = [
            CapacityChange { link: LinkId(0), to: Modulation::Dp16Qam200 },
            CapacityChange { link: LinkId(1), to: Modulation::Hybrid175 },
        ];
        let plan = try_plan_capacity_changes(&wan, &dm, &changes, &algo, false, None).expect("plan");
        // Both links dark in the interim: solution must still validate.
        assert!(plan.interim.total >= 0.0);
        assert!(final_total(&wan, &dm, &changes, &algo) >= plan.interim.total);
    }

    #[test]
    fn a_plan_makes_one_solve() {
        let (wan, dm, _) = setup();
        let swan = SwanTe::default();
        let algo = Counting { inner: &swan, solves: AtomicUsize::new(0) };
        let changes = [
            CapacityChange { link: LinkId(0), to: Modulation::Dp16Qam200 },
            CapacityChange { link: LinkId(1), to: Modulation::Hybrid175 },
        ];
        for (n, hitless) in [(1, true), (2, false)] {
            try_plan_capacity_changes(&wan, &dm, &changes[..n], &algo, hitless, None)
                .expect("plan");
        }
        assert_eq!(algo.solves.load(Ordering::Relaxed), 2, "one solve per plan");
    }

    #[test]
    fn empty_changes_rejected() {
        let (wan, dm, _) = setup();
        let refused = try_plan_capacity_changes(&wan, &dm, &[], &SwanTe::default(), true, None);
        assert!(
            matches!(refused, Err(TeError::InvalidConfig { .. })),
            "{refused:?}"
        );
    }
}
