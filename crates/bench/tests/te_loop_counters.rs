//! The warm-starting engine's counters, pinned. `control_calm`'s and
//! `control_storm`'s closed control loops run their first rounds on one
//! `TeSolver::default()` each, and the solver's `SolverStats` must equal
//! the pinned values exactly: pivots, cold solves, warm hits, singular
//! warm bases, repair aborts and pivots, refactorisations, eta updates
//! and pricing scans. Every one of them follows from the pivots the
//! engine takes, so a change that moves one changed the engine's
//! arithmetic or its decisions. A change that does so on purpose updates
//! these values, as it does the benchmark's `count` lines.

mod common;

use common::Profile;
use rwc_lp::SolverStats;
use rwc_te::{TeAlgorithm, TeSolver};

/// Rounds per loop: one benchmark pass, so `pivots`, `cold_solves` and
/// `warm_hits` equal the seed-1 `pass.lp.*` lines of
/// `.github/bench_counts_seed1.txt`.
const ROUNDS: usize = 500;

fn stats_after(profile: Profile) -> SolverStats {
    let solver = TeSolver::default();
    common::run_rounds(profile, ROUNDS, &solver, |_, te_round| te_round());
    solver.warm_stats().expect("the LP engine keeps stats")
}

#[test]
fn calm_loop_counters() {
    let pinned = SolverStats {
        cold_solves: 8,
        warm_attempts: 740,
        warm_hits: 733,
        pivots: 11_007,
        watchdog_aborts: 0,
        eta_updates: 10_947,
        refactorizations: 828,
        pricing_scans: 1_280,
        warm_singular: 6,
        repair_aborts: 1,
        repair_pivots: 6_606,
    };
    assert_eq!(stats_after(Profile::Calm), pinned);
}

#[test]
fn storm_loop_counters() {
    let pinned = SolverStats {
        cold_solves: 64,
        warm_attempts: 984,
        warm_hits: 939,
        pivots: 20_952,
        watchdog_aborts: 0,
        eta_updates: 20_473,
        refactorizations: 1_202,
        pricing_scans: 2_136,
        warm_singular: 43,
        repair_aborts: 0,
        repair_pivots: 6_745,
    };
    assert_eq!(stats_after(Profile::Storm), pinned);
}
