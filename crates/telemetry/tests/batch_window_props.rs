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
use rwc_telemetry::events::EventLog;
use rwc_telemetry::{BatchCursor, BatchScratch, FleetConfig, FleetGenerator, SnrProcess};
use rwc_util::rng::CounterRng;
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

/// Fleets over multi-block horizons (45–120 days: 4.2–11.25 OU blocks of
/// 1,024 ticks), eventful enough that most links carry a few events.
fn long_fleet_strategy() -> impl Strategy<Value = FleetConfig> {
    (0u64..1_000_000, 1usize..3, 1usize..3, 45u64..=120).prop_map(
        |(seed, n_fibers, wavelengths_per_fiber, days)| FleetConfig {
            seed,
            n_fibers,
            wavelengths_per_fiber,
            horizon: SimDuration::from_days(days),
            shallow_dip_rate: 30.0,
            deep_dip_rate: 15.0,
            step_rate: 8.0,
            link_lol_rate: 10.0,
            fiber_cut_rate: 8.0,
            maintenance_rate: 15.0,
            ..FleetConfig::paper()
        },
    )
}

/// The generator's contract spelled out one tick at a time, with no
/// blocks, windows or scratch: reading `t` of a trace starting at the
/// epoch. The OU state restarts at every 1,024-tick block from the jump
/// chain `S_0 = σ·z_0`, `S_b = ρ^1024·S_{b−1} + σ√(1−ρ^2048)·z_b`
/// (`z_b` = `derive(1).normal_pair(b).0`) and steps `x' = ρx + σ√(1−ρ²)·ξ_t`
/// (`ξ_t` = `derive(0).normal_at(t)`) inside it; the diurnal ripple is an
/// exact `sin_cos` at every multiple of 64 ticks, rotated by one tick's
/// angle in between; events apply per tick through
/// `EventLog::snr_effect_at`, and a loss-of-light reads the noise floor
/// jittered by `derive(2).normal_at(t)`.
fn reference_trace(
    p: &SnrProcess,
    events: &EventLog,
    rng: &CounterRng,
    tick: SimDuration,
    n: u64,
) -> Vec<f64> {
    let rho = (-(tick.as_secs_f64() / p.ou_relaxation.as_secs_f64())).exp();
    let innovation = p.ou_sigma_db * (1.0 - rho * rho).sqrt();
    let rho_block = rho.powi(1024);
    let jump_innovation = p.ou_sigma_db * (1.0 - rho_block * rho_block).sqrt();
    let (xi, jump, floor) = (rng.derive(0), rng.derive(1), rng.derive(2));
    let day = SimDuration::from_days(1).as_secs_f64();
    let (step_sin, step_cos) = (std::f64::consts::TAU * (tick.as_secs_f64() / day)).sin_cos();
    let (mut boundary, mut x, mut dsin, mut dcos) = (0.0, 0.0, 0.0, 0.0);
    (0..n)
        .map(|t| {
            if t % 1024 == 0 {
                let z = jump.normal_pair(t / 1024).0;
                boundary = if t == 0 {
                    p.ou_sigma_db * z
                } else {
                    rho_block * boundary + jump_innovation * z
                };
                x = boundary;
            } else {
                x = rho * x + innovation * xi.normal_at(t);
            }
            let at = SimTime::EPOCH + tick * t;
            if t % 64 == 0 {
                (dsin, dcos) = (std::f64::consts::TAU * (at.since_epoch().as_secs_f64() / day)
                    + p.diurnal_phase)
                    .sin_cos();
            } else {
                (dsin, dcos) = (
                    dsin * step_cos + dcos * step_sin,
                    dcos * step_cos - dsin * step_sin,
                );
            }
            let value = p.baseline_db + x + p.diurnal_amp_db * dsin;
            match events.snr_effect_at(at) {
                Some(offset) => (value + offset).max(0.01),
                None => (p.noise_floor_db + 0.05 * floor.normal_at(t)).max(0.01),
            }
        })
        .collect()
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

    /// Paper-length-style links against the per-tick reference, bit for
    /// bit: one-shot, and split into windows whose cuts land mid-block and
    /// mid-way through a group of blocks (one forced cut, the rest random).
    #[test]
    fn generation_matches_per_tick_reference_at_multi_block_horizons(
        fleet in long_fleet_strategy(),
        link_pick in 0usize..64,
        forced_block in 0u64..4,
        forced_offset in 1u64..1024,
        units in proptest::collection::vec(0.0f64..1.0, 0..5),
    ) {
        let gen = FleetGenerator::new(fleet);
        let link = link_pick % gen.n_links();
        let cfg = gen.config();
        let profile = gen.link_profile(link);
        let rng = gen.batch_rng(link);
        let n = cfg.horizon.ticks(cfg.tick);
        let want = reference_trace(&profile.process, &profile.events, &rng, cfg.tick, n);

        let whole = one_shot(&gen, link);
        prop_assert_eq!(whole.len(), want.len());
        for (i, (g, w)) in whole.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.to_bits(), w.to_bits(),
                "one-shot tick {} diverged: {} vs {}", i, g, w
            );
        }

        // Cuts inside block `forced_block` of the first 4-block group and
        // inside the mirrored block of the second (when the horizon
        // reaches it), plus the random ones.
        let mut cuts = cuts(&units, n);
        cuts.push(forced_block * 1024 + forced_offset);
        cuts.push((7 - forced_block) * 1024 + 1024 - forced_offset);
        cuts.retain(|&c| c < n);
        cuts.sort_unstable();
        cuts.dedup();
        let mut scratch = BatchScratch::default();
        let mut got = Vec::new();
        let mut cursor = BatchCursor::begin();
        for cut in cuts.into_iter().chain([n]) {
            let take = cut - cursor.next_tick();
            profile.process.generate_batch_window(
                &mut cursor,
                take,
                SimTime::EPOCH,
                cfg.tick,
                &profile.events,
                &rng,
                &mut scratch,
                &mut got,
            );
        }
        prop_assert_eq!(got.len(), want.len());
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert_eq!(
                g.to_bits(), w.to_bits(),
                "windowed tick {} diverged: {} vs {}", i, g, w
            );
        }
    }
}
