//! Fleet telemetry pipeline: the fused single-pass kernel vs its oracle
//! (`LinkAnalysis::new` over materialised traces), end to end and per
//! stage.
//!
//! `fleet/paper_fiber` is the acceptance benchmark: one fiber of
//! `FleetConfig::paper()` at the full 913-day horizon (40 links ×
//! 87,600 samples), generated + analysed per iteration on each side. The
//! per-stage groups isolate where the time goes: analysis with the trace
//! already in hand, the sort under the HDR, and sample generation.

use criterion::{criterion_group, criterion_main, Criterion};
use rwc_optics::ModulationTable;
use rwc_telemetry::analysis::LinkAnalysis;
use rwc_telemetry::{BatchScratch, FleetAccumulator, FleetConfig, FleetGenerator, FleetKernel};
use rwc_util::stats::{hdi_of_unsorted, sort_f64_with_scratch};
use rwc_util::time::SimTime;

/// One fiber of the paper fleet at the full horizon — the per-link
/// workload of `FleetConfig::paper()` without re-running all 50 fibers
/// per smoke-shim iteration.
fn paper_fiber() -> FleetGenerator {
    FleetGenerator::new(FleetConfig { n_fibers: 1, ..FleetConfig::paper() })
}

fn bench_fleet_paper(c: &mut Criterion) {
    let gen = paper_fiber();
    let table = ModulationTable::paper_default();
    let mut group = c.benchmark_group("fleet/paper_fiber");
    group.bench_function("oracle", |b| {
        b.iter(|| {
            let mut acc = FleetAccumulator::new();
            for i in 0..gen.n_links() {
                acc.push(&LinkAnalysis::new(&gen.link(i).trace, &table));
            }
            acc.len()
        })
    });
    group.bench_function("fused", |b| {
        b.iter(|| {
            let mut kernel = FleetKernel::new();
            let mut acc = FleetAccumulator::new();
            for i in 0..gen.n_links() {
                acc.push(&kernel.analyze_generated(&gen, i, &table));
            }
            acc.len()
        })
    });
    group.finish();
}

fn bench_analysis_only(c: &mut Criterion) {
    let gen = paper_fiber();
    let table = ModulationTable::paper_default();
    let trace = gen.link(7).trace;
    let mut group = c.benchmark_group("fleet/analysis_only_913d");
    group.bench_function("oracle", |b| {
        b.iter(|| LinkAnalysis::new(&trace, &table))
    });
    let mut kernel = FleetKernel::new();
    group.bench_function("fused", |b| {
        b.iter(|| kernel.analyze_trace(&trace, &table))
    });
    group.finish();
}

fn bench_sort(c: &mut Criterion) {
    let gen = paper_fiber();
    let values = gen.link(3).trace.values().to_vec();
    let mut group = c.benchmark_group("fleet/sort_87k");
    let mut buf: Vec<f64> = Vec::new();
    group.bench_function("comparison", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&values);
            buf.sort_unstable_by(f64::total_cmp);
            buf[0]
        })
    });
    let mut scratch: Vec<f64> = Vec::new();
    group.bench_function("radix", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&values);
            sort_f64_with_scratch(&mut buf, &mut scratch);
            buf[0]
        })
    });
    group.finish();
}

fn bench_hdi(c: &mut Criterion) {
    let gen = paper_fiber();
    let values = gen.link(3).trace.values().to_vec();
    let mut group = c.benchmark_group("fleet/hdi_87k");
    let mut buf: Vec<f64> = Vec::new();
    group.bench_function("full_sort_scan", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&values);
            buf.sort_by(f64::total_cmp);
            rwc_util::stats::highest_density_interval(&buf, 0.95)
        })
    });
    group.bench_function("selection", |b| {
        b.iter(|| {
            buf.clear();
            buf.extend_from_slice(&values);
            hdi_of_unsorted(&mut buf, 0.95)
        })
    });
    group.finish();
}

fn bench_generation(c: &mut Criterion) {
    // Pure generation throughput, one 913-day link, no analysis.
    let gen = paper_fiber();
    let cfg = gen.config().clone();
    let profile = gen.link_profile(11);
    let rng = gen.batch_rng(11);
    let mut group = c.benchmark_group("fleet/generate_913d");
    group.bench_function("trace", |b| {
        b.iter(|| {
            profile
                .process
                .generate_batch(SimTime::EPOCH, cfg.horizon, cfg.tick, &profile.events, &rng)
                .len()
        })
    });
    let mut scratch = BatchScratch::default();
    let mut buf: Vec<f64> = Vec::new();
    group.bench_function("streamed", |b| {
        b.iter(|| {
            profile.process.generate_batch_into(
                SimTime::EPOCH,
                cfg.horizon,
                cfg.tick,
                &profile.events,
                &rng,
                &mut scratch,
                &mut buf,
            );
            buf.len()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_fleet_paper,
    bench_analysis_only,
    bench_sort,
    bench_hdi,
    bench_generation
);
criterion_main!(benches);
