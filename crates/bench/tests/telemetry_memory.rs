//! A link's analysis costs the same memory whatever its length: the
//! kernel folds each generated block as it arrives and keeps a 640-bin
//! histogram, never the trace. Measured with the counting allocator, as
//! the peak of live heap above the level before the call. This binary
//! holds one test, so no other thread moves the global counters.

use rwc_bench::alloc;
use rwc_optics::ModulationTable;
use rwc_telemetry::{FleetConfig, FleetGenerator, FleetKernel};
use rwc_util::time::SimDuration;

/// Peak live heap of one `analyze_generated` on a fresh kernel, over the
/// live heap before it, for a one-link fleet of `days`.
fn peak_of_one_link(days: u64) -> u64 {
    let gen = FleetGenerator::new(FleetConfig {
        n_fibers: 1,
        wavelengths_per_fiber: 1,
        horizon: SimDuration::from_days(days),
        ..FleetConfig::paper()
    });
    let table = ModulationTable::paper_default();
    let before = alloc::snapshot().live_bytes;
    let (analysis, delta) =
        alloc::measure(|| FleetKernel::new().analyze_generated(&gen, 0, &table));
    assert!(analysis.mean.value() > 0.0);
    delta.peak_live_bytes - before
}

#[test]
fn peak_heap_does_not_grow_with_trace_length() {
    let week = peak_of_one_link(7);
    let paper = peak_of_one_link(913);
    // 913 days are 87,648 readings, 0.67 MiB as a trace.
    assert!(
        paper.abs_diff(week) < 256 * 1024,
        "913-day link peaks at {paper} B of live heap, 7-day link at {week} B"
    );
}
