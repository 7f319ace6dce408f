//! What a steady-state TE round allocates. The closed control loop of the
//! benchmark's `control_calm` workload (105-link `scaled_mesh(6)`, a quiet
//! fleet, a TE round every fourth 15-minute tick under diurnal demand)
//! runs past its warm-up; then each `te_round` is measured with the
//! counting allocator. The test prints allocations and bytes per round
//! and holds the median under a ceiling, which a change that retains a
//! round's buffers lowers. This binary holds one test, so no other thread
//! moves the global counters.
//!
//! A debug build checks every solve against a fresh lowering and its
//! certificate, which allocates, so the two builds have their own ceiling.

mod common;

use common::Profile;
use rwc_bench::alloc;
use rwc_te::TeSolver;

const WARM_UP_ROUNDS: usize = 100;
const MEASURED_ROUNDS: usize = 400;
/// Median allocations per measured round, release and debug build.
const P50_CEILING: (u64, u64) = (328, 432);

/// The `q`-quantile of `values`, by rank.
fn quantile(values: &[u64], q: f64) -> u64 {
    let mut sorted = values.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

#[test]
fn steady_state_te_round_allocations() {
    let solver = TeSolver::default();
    let (mut counts, mut bytes) = (Vec::new(), Vec::new());
    common::run_rounds(Profile::Calm, WARM_UP_ROUNDS + MEASURED_ROUNDS, &solver, |r, te_round| {
        let (round, delta) = alloc::measure(te_round);
        if r >= WARM_UP_ROUNDS {
            counts.push(delta.count);
            bytes.push(delta.bytes);
        }
        round
    });
    let (p50, p90, max) = (quantile(&counts, 0.5), quantile(&counts, 0.9), quantile(&counts, 1.0));
    let kb = |q: f64| quantile(&bytes, q) as f64 / 1024.0;
    println!(
        "te_round over {MEASURED_ROUNDS} calm rounds: allocations p50 {p50} / p90 {p90} / max \
         {max}; KiB p50 {:.0} / p90 {:.0} / max {:.0}",
        kb(0.5),
        kb(0.9),
        kb(1.0)
    );
    let ceiling = if cfg!(debug_assertions) { P50_CEILING.1 } else { P50_CEILING.0 };
    assert!(p50 <= ceiling, "median round makes {p50} allocations, ceiling {ceiling}");
}
