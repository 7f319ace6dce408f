//! Bitwise windowing invariance of the counter-based batch generator.
//!
//! The batch pipeline's contract (DESIGN.md §13) is that every sample is
//! a pure function of its absolute tick index: any split of a horizon
//! into windows — sequential calls, a serialized-and-restored cursor, or
//! windows generated out of order by independent workers — concatenates
//! to byte-for-byte the same trace as one one-shot call. These
//! properties pin that on randomized fleets and random split points,
//! with exact `f64` bit equality as the oracle (mirroring the
//! `kernel_equivalence` suite's JSON-bytes oracle).

use proptest::prelude::*;
use rwc_telemetry::{BatchCursor, BatchScratch, FleetConfig, FleetGenerator};
use rwc_util::time::{SimDuration, SimTime};

/// Tiny randomized fleets with boosted event rates so short horizons
/// still draw dips, steps, and loss-of-light events (whose noise-floor
/// samples also come from the counter streams).
fn fleet_strategy() -> impl Strategy<Value = FleetConfig> {
    (0u64..1_000_000, 1usize..3, 1usize..4, 4u64..15).prop_map(
        |(seed, n_fibers, wavelengths_per_fiber, days)| FleetConfig {
            seed,
            n_fibers,
            wavelengths_per_fiber,
            horizon: SimDuration::from_days(days),
            shallow_dip_rate: 40.0,
            deep_dip_rate: 30.0,
            step_rate: 20.0,
            link_lol_rate: 30.0,
            fiber_cut_rate: 20.0,
            maintenance_rate: 30.0,
            ..FleetConfig::paper()
        },
    )
}

/// Converts a vector of arbitrary units into split points over `n` ticks:
/// sorted, deduped interior cut positions.
fn cuts(units: &[f64], n: u64) -> Vec<u64> {
    let mut cuts: Vec<u64> =
        units.iter().map(|u| 1 + (u * (n - 1) as f64) as u64).filter(|&c| c < n).collect();
    cuts.sort_unstable();
    cuts.dedup();
    cuts
}

/// The whole-horizon one-shot batch trace of one link.
fn one_shot(gen: &FleetGenerator, link: usize) -> Vec<f64> {
    let cfg = gen.config();
    let profile = gen.link_profile(link);
    let rng = gen.batch_rng(link);
    let mut scratch = BatchScratch::default();
    let mut out = Vec::new();
    profile.process.generate_batch_into(
        SimTime::EPOCH,
        cfg.horizon,
        cfg.tick,
        &profile.events,
        &rng,
        &mut scratch,
        &mut out,
    );
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random window splits, with the cursor serialized to JSON and
    /// restored between every window, concatenate to the one-shot bytes.
    #[test]
    fn windowed_generation_with_cursor_round_trip_is_bitwise_identical(
        fleet in fleet_strategy(),
        link_pick in 0usize..64,
        units in proptest::collection::vec(0.0f64..1.0, 0..8),
    ) {
        let gen = FleetGenerator::new(fleet);
        let link = link_pick % gen.n_links();
        let want = one_shot(&gen, link);
        let n = want.len() as u64;

        let cfg = gen.config();
        let profile = gen.link_profile(link);
        let rng = gen.batch_rng(link);
        let mut scratch = BatchScratch::default();
        let mut got = Vec::new();
        let mut cursor = BatchCursor::begin();
        let mut prev = 0u64;
        for cut in cuts(&units, n).into_iter().chain([n]) {
            // Serialize/restore across the window boundary: a resumed
            // worker must continue the exact stream.
            let json = serde_json::to_string(&cursor).unwrap();
            cursor = serde_json::from_str(&json).unwrap();
            profile.process.generate_batch_window(
                &mut cursor,
                cut - prev,
                SimTime::EPOCH,
                cfg.tick,
                &profile.events,
                &rng,
                &mut scratch,
                &mut got,
            );
            prop_assert_eq!(cursor.next_tick(), cut);
            prev = cut;
        }
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.to_bits(), w.to_bits(),
                "tick {} diverged: {} vs {}", i, g, w
            );
        }
    }

    /// Windows generated independently and out of order — each from a
    /// fresh cursor positioned with `at_tick`, as parallel workers or
    /// shards would — still reproduce the one-shot bytes.
    #[test]
    fn out_of_order_windows_are_bitwise_identical(
        fleet in fleet_strategy(),
        link_pick in 0usize..64,
        units in proptest::collection::vec(0.0f64..1.0, 0..6),
        order_seed in 0u64..1_000_000,
    ) {
        let gen = FleetGenerator::new(fleet);
        let link = link_pick % gen.n_links();
        let want = one_shot(&gen, link);
        let n = want.len() as u64;

        let cfg = gen.config();
        let profile = gen.link_profile(link);
        let rng = gen.batch_rng(link);

        let mut bounds = cuts(&units, n);
        bounds.insert(0, 0);
        bounds.push(n);
        let mut windows: Vec<(u64, u64)> =
            bounds.windows(2).map(|w| (w[0], w[1])).collect();
        rwc_util::rng::Xoshiro256::seed_from_u64(order_seed).shuffle(&mut windows);

        let mut got = vec![0.0f64; n as usize];
        for (lo, hi) in windows {
            // Fresh per-window state, like an independent worker.
            let mut scratch = BatchScratch::default();
            let mut cursor = BatchCursor::at_tick(lo);
            let mut piece = Vec::new();
            profile.process.generate_batch_window(
                &mut cursor,
                hi - lo,
                SimTime::EPOCH,
                cfg.tick,
                &profile.events,
                &rng,
                &mut scratch,
                &mut piece,
            );
            got[lo as usize..hi as usize].copy_from_slice(&piece);
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.to_bits(), w.to_bits(),
                "tick {} diverged: {} vs {}", i, g, w
            );
        }
    }
}
