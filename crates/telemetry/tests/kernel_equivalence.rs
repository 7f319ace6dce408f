//! Byte-identity of the fused fleet kernel against its oracle.
//!
//! The fused kernel ([`rwc_telemetry::FleetKernel`]) promises *bit-for-bit*
//! the same `LinkAnalysis`/`FleetAccumulator` as `LinkAnalysis::new` over
//! materialised traces. These properties pin that promise on
//! randomized inputs — including loss-of-light floors, all-failing and
//! never-failing links, and episodes still open at trace end — with
//! serialized JSON bytes as the equality oracle, so every field (episode
//! geometry, floors, HDR edges, moments) participates in the comparison.
//! Both paths bin every reading onto the 0.1 dB grid, so readings at the
//! grid's edges get a property of their own: half steps, exact
//! thresholds, negatives, −0.0, subnormals, ±`f64::MAX`, readings past
//! the top bin and a table whose thresholds sit between grid values. The
//! randomized cases are short; the paper-length fleet and the crafted
//! long traces at the end give the HDR thousands-long tails and ties at
//! the window's edge ranks. An observed kernel's metrics are pinned
//! against a per-episode reference built from the analyses it returns.

use proptest::prelude::*;
use rwc_obs::{MetricsObserver, MetricsRegistry, MetricsSnapshot};
use rwc_optics::{Modulation, ModulationTable};
use rwc_telemetry::analysis::LinkAnalysis;
use rwc_telemetry::trace::SnrTrace;
use rwc_telemetry::{FleetAccumulator, FleetConfig, FleetGenerator, FleetKernel};
use rwc_util::rng::Xoshiro256;
use rwc_util::simd::grid_bin;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::Db;
use std::sync::Arc;

/// Readings on the grid's edges: half steps (`x.x5`, which a rounding
/// slip would move a bin), every threshold of the paper's ladder exactly,
/// negatives, −0.0 and the least subnormals (bin 0), ±`f64::MAX` (whose
/// ten-fold overflows to ±∞ inside the binning), readings at and past
/// 64 dB (the top bin) and ordinary SNR around the top rungs. NaN and ±∞
/// themselves cannot be readings: `SnrTrace::new` refuses them.
fn grid_edge_samples() -> impl Strategy<Value = Vec<f64>> {
    let thresholds: Vec<f64> =
        ModulationTable::paper_default().entries().iter().map(|(_, t)| t.value()).collect();
    let reading = (0u8..6, 0u32..700, 0.0f64..1.0);
    proptest::collection::vec(reading, 1..300).prop_map(move |draws| {
        draws
            .into_iter()
            .map(|(kind, step, u)| match kind {
                0 => step as f64 / 10.0 + 0.05,
                1 => thresholds[step as usize % thresholds.len()],
                2 => [-0.0, -u * 3.0, -5e-324, 5e-324, 0.04, 0.05][step as usize % 6],
                3 => [f64::MAX, f64::MIN, -f64::MIN_POSITIVE][step as usize % 3],
                4 => [63.9, 63.94, 63.95, 64.0, 64.0 + u * 100.0][step as usize % 5],
                _ => 10.5 + u * 3.0,
            })
            .collect()
    })
}

/// Sample vectors spanning the kernel's episode-geometry edge cases. The
/// `regime` index picks a band: mixed healthy/failing, loss-of-light
/// floors near the noise floor, all-failing (below the lowest rung),
/// never-failing (above the top rung), or healthy-then-failing so the
/// final episode stays open at trace end.
fn samples_strategy() -> impl Strategy<Value = Vec<f64>> {
    (0u8..5, proptest::collection::vec(0.0f64..1.0, 2..300)).prop_map(|(regime, units)| {
        let n = units.len();
        units
            .into_iter()
            .enumerate()
            .map(|(i, u)| match regime {
                0 => 0.01 + u * 19.99,          // anything in (0, 20]
                1 => 0.15 + u * 0.1,            // loss-of-light noise floor
                2 => 0.01 + u * 2.8,            // all-failing: below every rung
                3 => 14.5 + u * 5.0,            // never-failing: above the top rung
                _ if i >= n.saturating_sub(3) => 0.5 + u, // open episode at end
                _ => 13.0 + u,                  // healthy prefix
            })
            .collect()
    })
}

/// Tiny randomized fleets with event rates boosted so short horizons still
/// draw dips, steps, and loss-of-light events.
fn fleet_strategy() -> impl Strategy<Value = FleetConfig> {
    (0u64..1_000_000, 1usize..3, 1usize..5, 4u64..15).prop_map(
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

proptest! {
    /// Per-trace: fused analysis of a crafted trace serializes to the very
    /// bytes `LinkAnalysis::new` produces.
    #[test]
    fn fused_link_analysis_is_byte_identical(samples in samples_strategy()) {
        let trace = SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples);
        let table = ModulationTable::paper_default();
        let legacy = LinkAnalysis::new(&trace, &table);
        let mut kernel = FleetKernel::new();
        let fused = kernel.analyze_trace(&trace, &table);
        prop_assert_eq!(
            serde_json::to_string(&fused).expect("fused serializes"),
            serde_json::to_string(&legacy).expect("legacy serializes")
        );
    }

    /// On the grid's edges, against the paper's table and against one
    /// whose thresholds lie between grid values, one reading or many.
    #[test]
    fn grid_edges_are_byte_identical(samples in grid_edge_samples()) {
        let trace = SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples);
        let single = SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, trace.values()[..1].to_vec());
        let mut kernel = FleetKernel::new();
        for table in [ModulationTable::paper_default(), ModulationTable::with_margin(Db(0.37))] {
            for t in [&trace, &single] {
                prop_assert_eq!(
                    serde_json::to_string(&kernel.analyze_trace(t, &table)).expect("fused serializes"),
                    serde_json::to_string(&LinkAnalysis::new(t, &table)).expect("oracle serializes")
                );
            }
        }
    }

    /// Per-fleet: a generated fleet swept by the fused kernel accumulates
    /// to the same bytes as `LinkAnalysis::new` over each materialised
    /// trace, with the kernel's buffers reused across every link.
    #[test]
    fn fused_fleet_accumulator_is_byte_identical(cfg in fleet_strategy()) {
        let gen = FleetGenerator::new(cfg);
        let table = ModulationTable::paper_default();
        let fused = gen.fleet_analysis(&table);
        let mut legacy = FleetAccumulator::new();
        for link_id in 0..gen.n_links() {
            legacy.push(&LinkAnalysis::new(&gen.link(link_id).trace, &table));
        }
        prop_assert_eq!(
            serde_json::to_string(&fused).expect("fused serializes"),
            serde_json::to_string(&legacy).expect("legacy serializes")
        );
    }
}

/// What an observed kernel must have published after `links`, rebuilt one
/// episode at a time from the analyses it returned: one `record` per
/// episode into `fleet.episode_ticks`, and the episode count for
/// `fleet.episodes` and both `events.episode_*` counters.
fn per_episode_reference(links: &[(LinkAnalysis, usize, SimDuration)]) -> MetricsSnapshot {
    let reference = MetricsRegistry::new();
    for (analysis, samples, tick) in links {
        let mut episodes = 0;
        for (_, eps) in &analysis.failures_per_rung {
            for e in eps {
                reference.record("fleet.episode_ticks", e.duration.ticks(*tick) as f64);
                episodes += 1;
            }
        }
        reference.incr("fleet.links", 1);
        reference.incr("fleet.samples", *samples as u64);
        reference.incr("fleet.episodes", episodes);
        reference.incr("events.episode_opened", episodes);
        reference.incr("events.episode_closed", episodes);
    }
    reference.snapshot()
}

proptest! {
    /// An observed kernel publishes each link once, from its episode
    /// lists; over a random fleet's links and a crafted trace, all on one
    /// reused kernel, its observer ends with the very snapshot a
    /// per-episode reference builds from the returned analyses.
    #[test]
    fn observed_kernel_matches_a_per_episode_reference(
        cfg in fleet_strategy(),
        samples in samples_strategy(),
    ) {
        let gen = FleetGenerator::new(cfg);
        let table = ModulationTable::paper_default();
        let obs = Arc::new(MetricsObserver::new());
        let mut kernel = FleetKernel::with_observer(obs.clone());
        let mut links = Vec::new();
        for link_id in 0..gen.n_links() {
            let analysis = kernel.analyze_generated(&gen, link_id, &table);
            links.push((analysis, gen.link(link_id).trace.len(), gen.config().tick));
        }
        let trace = SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples);
        links.push((kernel.analyze_trace(&trace, &table), trace.len(), trace.tick()));
        let expected = per_episode_reference(&links);
        let got = obs.snapshot();
        prop_assert_eq!(got.to_json(), expected.to_json());
        prop_assert_eq!(got, expected);
    }
}

/// The vector binning takes eight readings per vector and the scalar
/// definition the rest, so shorter traces never reach it: every edge
/// reading of `grid_edge_samples` — each half step, each threshold of the
/// paper's ladder, negatives, −0.0, ±subnormals, ±`f64::MAX`, readings at
/// and past 64 dB — sits at each lane 0–7 of the first vector of an
/// 8-reading trace and of the second vector of a 17-reading one.
#[test]
fn grid_edges_in_every_lane_are_byte_identical() {
    let paper = ModulationTable::paper_default();
    let thresholds: Vec<f64> = paper.entries().iter().map(|(_, t)| t.value()).collect();
    let edges: Vec<f64> = (0..640)
        .map(|step| step as f64 / 10.0 + 0.05)
        .chain(thresholds)
        .chain([-0.0, 0.0, -0.05, -3.0, 5e-324, -5e-324, f64::MIN_POSITIVE, -f64::MIN_POSITIVE])
        .chain([f64::MAX, f64::MIN, 63.9, 63.94, 63.95, 64.0, 75.0, 1e300])
        .collect();
    let mut kernel = FleetKernel::new();
    for table in [paper, ModulationTable::with_margin(Db(0.37))] {
        for &v in &edges {
            for lane in 0..8 {
                for (len, at) in [(8, lane), (17, 8 + lane)] {
                    let mut samples: Vec<f64> = (0..len).map(|i| 10.5 + 0.3 * i as f64).collect();
                    samples[at] = v;
                    let trace = SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples);
                    assert_eq!(
                        serde_json::to_string(&kernel.analyze_trace(&trace, &table)).expect("fused serializes"),
                        serde_json::to_string(&LinkAnalysis::new(&trace, &table)).expect("oracle serializes"),
                        "{v:e} at index {at} of {len}"
                    );
                }
            }
        }
    }
}

/// Fused and oracle analyses of `samples` serialize to the same bytes.
fn assert_fused_matches_oracle(samples: Vec<f64>, what: &str) {
    let trace = SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples);
    let table = ModulationTable::paper_default();
    let fused = FleetKernel::new().analyze_trace(&trace, &table);
    let legacy = LinkAnalysis::new(&trace, &table);
    assert_eq!(
        serde_json::to_string(&fused).expect("fused serializes"),
        serde_json::to_string(&legacy).expect("legacy serializes"),
        "{what}: fused kernel diverged from LinkAnalysis::new"
    );
}

/// `sorted` in a seeded random order, as a trace arrives.
fn shuffled(mut sorted: Vec<f64>, seed: u64) -> Vec<f64> {
    Xoshiro256::seed_from_u64(seed).shuffle(&mut sorted);
    sorted
}

/// The paper's horizon, 913 days of 87,648 readings per link, on 16 links
/// of the paper's fleet, one kernel reused across all of them.
#[test]
fn paper_length_fleet_is_byte_identical() {
    let gen = FleetGenerator::new(FleetConfig {
        n_fibers: 4,
        wavelengths_per_fiber: 4,
        ..FleetConfig::paper()
    });
    let table = ModulationTable::paper_default();
    let mut kernel = FleetKernel::new();
    for link_id in 0..gen.n_links() {
        let fused = kernel.analyze_generated(&gen, link_id, &table);
        let legacy = LinkAnalysis::new(&gen.link(link_id).trace, &table);
        assert_eq!(fused.hdr.low, legacy.hdr.low, "link {link_id}: HDR floor");
        assert_eq!(
            serde_json::to_string(&fused).expect("fused serializes"),
            serde_json::to_string(&legacy).expect("legacy serializes"),
            "link {link_id} diverged"
        );
    }
}

/// The binning both paths share sends NaN and −∞ to bin 0 and +∞ to the
/// top bin, as it does the finite readings beyond them.
#[test]
fn non_finite_values_bin_to_the_grid_edges() {
    for v in [f64::NAN, -f64::NAN, f64::NEG_INFINITY, f64::MIN, -0.0, 0.0] {
        assert_eq!(grid_bin(v), 0, "{v}");
    }
    for v in [f64::INFINITY, f64::MAX, 63.95] {
        assert_eq!(grid_bin(v), 639, "{v}");
    }
}

/// Streaming a generated link block by block folds the same readings as
/// its materialised 913-day trace.
#[test]
fn streamed_link_equals_its_materialised_trace() {
    let gen = FleetGenerator::new(FleetConfig {
        n_fibers: 1,
        wavelengths_per_fiber: 3,
        ..FleetConfig::paper()
    });
    let table = ModulationTable::paper_default();
    let mut kernel = FleetKernel::new();
    for link_id in 0..gen.n_links() {
        let streamed = kernel.analyze_generated(&gen, link_id, &table);
        let materialised = kernel.analyze_trace(&gen.link(link_id).trace, &table);
        assert_eq!(
            serde_json::to_string(&streamed).expect("streamed serializes"),
            serde_json::to_string(&materialised).expect("materialised serializes"),
            "link {link_id}"
        );
    }
}

/// An HDR exactly 20 grid steps wide is 2 dB wide, not narrower: the
/// edges 14.4 and 16.4 dB differ by 1.9999999999999982 in `f64`.
#[test]
fn twenty_step_hdr_is_not_below_two_db() {
    let samples: Vec<f64> = (0..100).map(|i| if i % 2 == 0 { 14.4 } else { 16.4 }).collect();
    let trace = SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples);
    let table = ModulationTable::paper_default();
    let analysis = FleetKernel::new().analyze_trace(&trace, &table);
    assert_eq!((analysis.hdr.low, analysis.hdr.high), (Db(14.4), Db(16.4)));
    assert_eq!(analysis.hdr.width(), Db(2.0));
    let mut acc = FleetAccumulator::new();
    acc.push(&analysis);
    assert_eq!(acc.fraction_hdr_below(Db(2.0)), 0.0);
    assert_eq!(acc.fraction_hdr_below(Db(2.05)), 1.0);
    assert!(analysis.failures_at(Modulation::Dp16Qam200).is_empty());
}

/// Long finite traces built to sit on the HDR scan's edges.
#[test]
fn crafted_long_traces_are_byte_identical() {
    let n = 4000;
    let k = (0.95 * n as f64).ceil() as usize;
    let tail = n - k;
    // A ramp whose readings at sorted ranks `tail` and `k - 1` each tie
    // with their neighbours, so equal-width windows compete there.
    let mut ramp: Vec<f64> = (0..n).map(|i| 11.0 + i as f64 * 1e-4).collect();
    for at in [tail, k - 1] {
        let v = ramp[at];
        ramp[at - 2..=at + 2].fill(v);
    }
    assert_fused_matches_oracle(shuffled(ramp, 1), "ties at ranks tail and k-1");

    // Runs of equal readings on both sides of 12 dB, which both land in
    // bin 120.
    let below = f64::from_bits(12.0f64.to_bits() - 1);
    let mut edge: Vec<f64> = Vec::with_capacity(n);
    edge.extend(std::iter::repeat_n(below, 1500));
    edge.extend(std::iter::repeat_n(12.0, 1500));
    edge.extend((0..n - 3000).map(|i| 11.5 + i as f64 * 1e-3));
    assert_fused_matches_oracle(shuffled(edge, 2), "equal runs on both sides of 12 dB");

    // Readings below 1/16 dB and above 64 dB, in the grid's edge bins,
    // both as outliers and as the bulk of a trace.
    let mut outliers: Vec<f64> = (0..n).map(|i| 12.0 + (i % 97) as f64 * 0.01).collect();
    for i in (0..n).step_by(50) {
        outliers[i] = 0.01 + (i % 7) as f64 * 0.005;
    }
    for i in (25..n).step_by(90) {
        outliers[i] = 64.0 + (i % 5) as f64 * 10.0;
    }
    assert_fused_matches_oracle(outliers, "edge-bucket outliers");
    let low: Vec<f64> = (0..n).map(|i| 0.001 + (i % 61) as f64 * 1e-3).collect();
    assert_fused_matches_oracle(low, "every reading below 1/16 dB");
    let high: Vec<f64> = (0..n).map(|i| 70.0 + (i % 43) as f64 * 0.1).collect();
    assert_fused_matches_oracle(high, "every reading above 64 dB");

    // Signed zeros and subnormals in the low tail of a healthy trace.
    let mut zeros: Vec<f64> = (0..n).map(|i| 12.5 + (i % 31) as f64 * 0.003).collect();
    for (i, v) in [-0.0, 0.0, f64::from_bits(1), -f64::from_bits(1), f64::MIN_POSITIVE / 4.0]
        .into_iter()
        .cycle()
        .take(3 * tail / 2)
        .enumerate()
    {
        zeros[i * 2] = v;
    }
    assert_fused_matches_oracle(zeros, "signed zeros and subnormals");

    // A constant trace: every window has width zero, the first one wins.
    assert_fused_matches_oracle(vec![12.3; n], "constant trace");
}
