//! The five workloads and what they share.

pub mod control;
pub mod serve_fleet;
pub mod serve_paced;
pub mod te_sweep;

use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use rwc::lp::SparseSimplexSolver;
use std::time::{Duration, Instant};

/// What the command line hands every workload.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    /// Feeds `FleetConfig.seed`, shuffles and demand choice — nothing else.
    pub seed: u64,
    /// Length of the timed region.
    pub seconds: f64,
    /// Record spans and per-layer metrics (the end-to-end numbers of a
    /// traced run are diagnostics only).
    pub trace: bool,
}

/// A workload: its name, why it exists, and its entry point.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub run: fn(&RunArgs) -> Report,
}

/// Every workload, in the order `all` runs them. The `why` strings are the
/// ones `BENCHMARK.json` carries.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "serve_fleet",
        why: "closed loop, in-process Daemon, 913-day links: telemetry generation+analysis is nearly all the work, serve only hands off; op = one link",
        run: serve_fleet::run,
    },
    Workload {
        name: "serve_paced",
        why: "open loop, 50 ingests/s over loopback HTTP, 7-day links, checkpoints: serve and harness do the work, telemetry almost none; op = ingest due -> /capacity 200",
        run: serve_paced::run,
    },
    Workload {
        name: "control_calm",
        why: "closed control loop on a 105-link mesh, quiet telemetry: memo hits, in-place patches and warm LP starts dominate; op = one TE round",
        run: control::run_calm,
    },
    Workload {
        name: "control_storm",
        why: "same loop under a hostile fleet: cold solves, suffix rebuilds, update plans and BVT commits/rollbacks; moves when control_calm does not; op = one TE round",
        run: control::run_storm,
    },
    Workload {
        name: "te_sweep",
        why: "pure TE solves on a 376-edge augmented mesh, five objectives, capacity drift then failure states: lp dominates, core and serve do none; op = one solve",
        run: te_sweep::run,
    },
];

/// How many times a run builds its inputs; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// Builds the workload's inputs [`SETUP_REPEATS`] times, keeping the last
/// build, and returns the seconds each took.
pub fn timed_setups<T>(mut build: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        times.push(t0.elapsed().as_secs_f64());
    }
    (last.expect("SETUP_REPEATS is positive"), times)
}

/// What each op of a repeated stream costs on a quiet machine:
/// `passes[k][j]` is what pass `k` measured for op `j`, and the same op does
/// the same work in every pass, so whatever exceeds the fastest pass was
/// added by the box — a scheduler hiccup, a burst of steal time, a slow
/// minute of a noisy neighbour. On the shared 2-core builder the same
/// deterministic pass took anything from 1.0 to 3.2 s of wall time; the
/// per-op minimum over the passes of a run holds to a few percent.
pub fn quiet(passes: &[Vec<f64>]) -> Vec<f64> {
    let n_ops = passes[0].len();
    assert!(
        passes.iter().all(|p| p.len() == n_ops),
        "passes differ in op count"
    );
    (0..n_ops)
        .map(|j| passes.iter().map(|p| p[j]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Records the timing-derived end-to-end metrics of a workload that repeats
/// one stream of ops (`peak_rss_mb` is read by `main` when the process is
/// about to exit), and the demoted tail. `intervals_s[k][j]` is the wall
/// time pass `k` spent from the completion of op `j - 1` to the completion
/// of op `j`, so load-generator work between ops counts towards
/// `ops_per_s`; `latencies_ms[k][j]` is the op's own latency.
pub fn set_end_to_end_of_passes(
    report: &mut Report,
    setup_s: &[f64],
    intervals_s: &[Vec<f64>],
    latencies_ms: &[Vec<f64>],
) {
    let samples = intervals_s.len() * intervals_s[0].len();
    set_end_to_end(
        report,
        setup_s,
        intervals_s[0].len() as f64 / quiet_total(intervals_s),
        &quiet(latencies_ms),
        samples,
    );
}

/// What one quiet pass takes: the sum of the per-op minima.
pub fn quiet_total(passes: &[Vec<f64>]) -> f64 {
    quiet(passes).iter().sum()
}

/// `obs.trace_overhead_share`: a traced run alternates untraced and traced
/// passes over the same ops; the quietest of each (replay excluded from the
/// traced intervals) differ by what observers and spans cost.
pub fn set_trace_overhead(report: &mut Report, traced: &[Vec<f64>], untraced: &[Vec<f64>]) {
    if !traced.is_empty() && !untraced.is_empty() {
        let share = quiet_total(traced) / quiet_total(untraced) - 1.0;
        report.set("obs.trace_overhead_share", share, traced.len());
    }
}

/// Writes the trace to `benchmark/out/trace_<workload>.json`.
pub fn write_trace(report: &mut Report, tracer: &Tracer, workload: &str, seed: u64) {
    let path = out_dir().join(format!("trace_{workload}.json"));
    if let Err(e) = tracer.write_json(&path, workload, seed) {
        report.fail(format!("write {}: {e}", path.display()));
    }
}

/// A benchmark-owned simplex engine for replaying LPs. The watchdog keeps
/// one degenerate replay solve from eating the traced run's time budget.
pub fn replay_solver(timeout: Duration) -> SparseSimplexSolver {
    let mut solver = SparseSimplexSolver::new();
    solver.set_solve_timeout(Some(timeout));
    solver
}

/// Records the timing-derived end-to-end metrics and the demoted tail.
pub fn set_end_to_end(
    report: &mut Report,
    setup_s: &[f64],
    ops_per_s: f64,
    op_latencies_ms: &[f64],
    samples: usize,
) {
    report.set("setup_s", stats::median(setup_s), setup_s.len());
    report.set("ops_per_s", ops_per_s, samples);
    report.set(
        "op_p50_ms",
        stats::smoothed_median(op_latencies_ms),
        samples,
    );
    report.set(
        "op_p99_ms",
        stats::percentile(op_latencies_ms, 0.99),
        samples,
    );
    report.set("op_max_ms", stats::max(op_latencies_ms), samples);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    report.set("sys.available_parallelism", cores as f64, 1);
}

/// Where traces and scratch files go: `benchmark/out/` of the checkout the
/// binary was built in.
pub fn out_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}
