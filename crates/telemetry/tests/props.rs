//! Property tests for telemetry invariants.

use proptest::prelude::*;
use rwc_telemetry::analysis::{episodes_below, grid_db};
use rwc_telemetry::hdr::Hdr;
use rwc_telemetry::trace::SnrTrace;
use rwc_util::simd::grid_bin;
use rwc_util::time::{SimDuration, SimTime};
use rwc_util::units::Db;

fn trace_strategy() -> impl Strategy<Value = SnrTrace> {
    proptest::collection::vec(0.01f64..20.0, 2..400).prop_map(|samples| {
        SnrTrace::new(SimTime::EPOCH, SimDuration::TELEMETRY_TICK, samples)
    })
}

proptest! {
    /// Episodes exactly tile the below-threshold samples: disjoint, ordered,
    /// and their total duration equals tick × (number of below samples).
    #[test]
    fn episodes_tile_below_threshold_samples(trace in trace_strategy(), threshold in 0.5f64..19.0) {
        let episodes = episodes_below(&trace, Db(threshold));
        let below = trace.values().iter().filter(|&&v| v < threshold).count() as u64;
        let total: u64 = episodes
            .iter()
            .map(|e| e.duration.as_millis() / trace.tick().as_millis())
            .sum();
        prop_assert_eq!(total, below);
        // Ordered and disjoint.
        for pair in episodes.windows(2) {
            prop_assert!(pair[0].start + pair[0].duration <= pair[1].start);
        }
        // Floors are genuine minima of their windows and below threshold.
        for e in &episodes {
            prop_assert!(e.floor.value() < threshold);
        }
    }

    /// The 95% HDR lies within [min, max] of the readings on the 0.1 dB
    /// grid and covers ≥95% of them.
    #[test]
    fn hdr_within_range_and_covers(trace in trace_strategy()) {
        let hdr = Hdr::paper(&trace);
        let grid: Vec<f64> =
            trace.values().iter().map(|&v| grid_db(grid_bin(v) as usize).value()).collect();
        let (min, max) = grid.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        prop_assert!(hdr.low.value() >= min && hdr.high.value() <= max);
        let inside = grid
            .iter()
            .filter(|&&v| v >= hdr.low.value() && v <= hdr.high.value())
            .count();
        let need = (0.95 * trace.len() as f64).ceil() as usize;
        prop_assert!(inside >= need.min(trace.len()));
    }

    /// Raising the threshold never yields less below-threshold time.
    #[test]
    fn failure_time_monotone_in_threshold(trace in trace_strategy(),
                                          t1 in 1.0f64..10.0, delta in 0.0f64..9.0) {
        let t2 = t1 + delta;
        let time = |t: f64| -> u64 {
            episodes_below(&trace, Db(t)).iter().map(|e| e.duration.as_millis()).sum()
        };
        prop_assert!(time(t1) <= time(t2));
    }

    /// Decimation preserves span and never invents samples.
    #[test]
    fn decimation_subset(trace in trace_strategy(), stride in 1usize..10) {
        let d = trace.decimate(stride);
        prop_assert!(d.len() <= trace.len());
        prop_assert!(d.min() >= trace.min());
        prop_assert!(d.max() <= trace.max());
        prop_assert_eq!(d.values()[0], trace.values()[0]);
    }
}
