//! The TE round engine, end to end.
//!
//! Runs the perf digest's quick scenario — the week of rounds through
//! `Scenario::run` under SWAN, the always-cold exact LP and the
//! warm-started exact LP, then the large-TE and objective-zoo stages —
//! the configuration `repro --bench-json` gates in CI.

use criterion::{criterion_group, criterion_main, Criterion};
use rwc_bench::perf::scenario_perf;
use rwc_bench::Scale;

fn bench_round_engine(c: &mut Criterion) {
    c.bench_function("round_engine/scenario_perf_quick", |b| {
        b.iter(|| std::hint::black_box(scenario_perf(Scale::Quick)))
    });
}

criterion_group!(benches, bench_round_engine);
criterion_main!(benches);
