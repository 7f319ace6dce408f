//! `serve_fleet`: the in-process daemon analysing paper-length links.
//!
//! Closed loop, one client, `Daemon` API (no HTTP): `ServeConfig::paper()`
//! cut to 30 fibers × 40 λ × 913 days with one shard and a queue as large
//! as the fleet. A *pass* starts a daemon, ingests 192 seeded-shuffled links
//! in windows of 8 (ingest a window, wait until the daemon has completed
//! it, ingest the next), and drains. Generating and analysing 87,648
//! readings per link is nearly all the work; `serve` adds the queue and
//! collector hand-offs. An op is one link; its latency is its share of the
//! window. The run repeats the pass — a fresh daemon, the same links —
//! until its time is up and reports what each window costs in the quietest
//! pass (`workloads::quiet`).

use super::{set_end_to_end_of_passes, timed_setups, RunArgs};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use rwc::core::controller::Controller;
use rwc::optics::Modulation;
use rwc::serve::{BoundedQueue, Daemon, PopKind, ServeConfig, ShedPolicy};
use rwc::telemetry::{BatchScratch, FleetAccumulator, FleetGenerator, FleetKernel, SnrTrace};
use rwc::topology::wan::LinkId;
use rwc::util::rng::Xoshiro256;
use rwc::util::time::{SimDuration, SimTime};
use std::time::{Duration, Instant};

const N_FIBERS: usize = 30;
const WAVELENGTHS: usize = 40;
/// Links in flight at once.
const WINDOW: usize = 8;
/// Windows per pass: 192 links, about 1.3 s.
const WINDOWS_PER_PASS: usize = 24;
/// Links whose served capacity is compared with a direct analysis.
const SAMPLE_LINKS: usize = 32;
/// How often the client looks whether a window has completed.
const POLL: Duration = Duration::from_micros(200);
/// A window that takes this long has lost a link.
const WINDOW_DEADLINE: Duration = Duration::from_secs(30);

pub(super) fn config(seed: u64, horizon_days: u64, n_shards: usize) -> ServeConfig {
    let mut cfg = ServeConfig::paper();
    cfg.fleet.seed = seed;
    cfg.fleet.n_fibers = N_FIBERS;
    cfg.fleet.wavelengths_per_fiber = WAVELENGTHS;
    cfg.fleet.horizon = SimDuration::from_days(horizon_days);
    cfg.n_shards = n_shards;
    cfg.queue_capacity = cfg.fleet.n_links();
    cfg
}

/// The fleet's link ids in the seed's order.
pub(super) fn shuffled_links(cfg: &ServeConfig, seed: u64) -> Vec<usize> {
    let mut ids: Vec<usize> = (0..cfg.n_links()).collect();
    Xoshiro256::seed_from_u64(seed ^ 0x5E_2F_1E).shuffle(&mut ids);
    ids
}

/// Blocks until the daemon has completed `target` links.
fn wait_completed(daemon: &Daemon, target: u64) -> Result<(), String> {
    let start = Instant::now();
    while daemon.completed_links() < target {
        if start.elapsed() > WINDOW_DEADLINE {
            return Err(format!(
                "{} of {target} links completed after {WINDOW_DEADLINE:?}",
                daemon.completed_links()
            ));
        }
        std::thread::sleep(POLL);
    }
    Ok(())
}

struct Built {
    cfg: ServeConfig,
    /// The links every pass ingests, then the sample links' worth of spare.
    links: Vec<usize>,
}

/// Set-up: config, shuffle, daemon start, and one link served end to end
/// (thread start-up, buffer growth and the fiber memo are paid here).
fn build(seed: u64) -> Built {
    let cfg = config(seed, 913, 1);
    let links = shuffled_links(&cfg, seed);
    let daemon = Daemon::start(cfg.clone()).expect("benchmark daemon config is valid");
    let warm = links[links.len() - 1];
    daemon
        .ingest(&[warm])
        .expect("a fresh daemon accepts ingest");
    wait_completed(&daemon, 1).expect("the warm-up link completes");
    drop(daemon);
    Built { cfg, links }
}

#[derive(Default)]
struct Pass {
    wall_s: f64,
    /// Per window: ingest call to every link of the window completed.
    window_s: Vec<f64>,
    /// Ops that did not go as they should (not accepted, never completed,
    /// ledger open at drain).
    failed: u64,
    failures: Vec<String>,
    drain_ms: f64,
    queue_depth_max: f64,
    counters: Vec<(&'static str, u64)>,
    readings: u64,
    episodes: u64,
}

/// One pass: fresh daemon, the pass's links window by window, drain.
fn pass(b: &Built, n_shards: usize, tracer: &mut Tracer, check_samples: bool) -> Pass {
    let mut out = Pass::default();
    let mut cfg = b.cfg.clone();
    cfg.n_shards = n_shards;
    let daemon = Daemon::start(cfg).expect("benchmark daemon config is valid");
    let links = &b.links[..WINDOW * WINDOWS_PER_PASS];
    let start = Instant::now();
    tracer.begin("pass", 0);
    for (w, window) in links.chunks(WINDOW).enumerate() {
        let op = w as u64;
        let t0 = Instant::now();
        let receipt = tracer.time("serve.ingest_call", op, || daemon.ingest(window));
        match receipt {
            Ok(r) if r.accepted == WINDOW as u64 => {}
            other => {
                out.failed += WINDOW as u64;
                out.failures
                    .push(format!("window {w}: ingest answered {other:?}"));
                continue;
            }
        }
        let waited = tracer.time("serve.window_wait", op, || {
            wait_completed(&daemon, ((w + 1) * WINDOW) as u64)
        });
        if let Err(why) = waited {
            out.failed += WINDOW as u64;
            out.failures.push(format!("window {w}: {why}"));
            break;
        }
        out.window_s.push(t0.elapsed().as_secs_f64());
    }
    out.wall_s = start.elapsed().as_secs_f64();

    if check_samples {
        // Bit-for-bit: what the daemon serves is what a direct fused
        // analysis of the same link yields.
        let gen = FleetGenerator::new(b.cfg.fleet.clone());
        let mut kernel = FleetKernel::new();
        for &link in links.iter().step_by(links.len() / SAMPLE_LINKS) {
            let direct = kernel
                .analyze_generated(&gen, link, &b.cfg.controller.table)
                .feasible_capacity
                .value();
            match daemon.capacity(link) {
                Some(served) if served.to_bits() == direct.to_bits() => {}
                served => {
                    out.failed += 1;
                    out.failures.push(format!(
                        "link {link}: daemon serves {served:?}, direct {direct}"
                    ));
                }
            }
        }
    }

    let ingested = daemon.completed_links();
    let t0 = Instant::now();
    let drained = tracer.time("serve.drain", 0, || daemon.drain());
    out.drain_ms = t0.elapsed().as_secs_f64() * 1e3;
    tracer.end();
    match drained {
        Err(e) => {
            out.failed += 1;
            out.failures.push(format!("drain: {e}"));
        }
        Ok(report) => {
            // The overload ledger must close with nothing shed or dropped.
            let closes = report.counter("serve.ingested") == report.links_completed
                && report.links_completed == links.len() as u64
                && report.links_completed == ingested;
            if !closes {
                out.failed += 1;
                out.failures.push(format!(
                    "ledger open at drain: ingested {} completed {} of {}",
                    report.counter("serve.ingested"),
                    report.links_completed,
                    links.len()
                ));
            }
            out.queue_depth_max = report
                .serve_metrics
                .gauges
                .get("serve.queue_depth")
                .copied()
                .unwrap_or(0.0);
            out.counters = vec![
                ("serve.http_requests", report.counter("serve.http_requests")),
                (
                    "serve.checkpoints_written",
                    report.counter("serve.checkpoints_written"),
                ),
                ("serve.rejected", report.counter("serve.rejected")),
                (
                    "serve.shed",
                    report.counter("serve.shed_oldest") + report.counter("serve.shed_deadline"),
                ),
                ("serve.duplicates", report.counter("serve.duplicates")),
            ];
            let pipeline = &report.pipeline_metrics.counters;
            out.readings = pipeline.get("fleet.samples").copied().unwrap_or(0);
            out.episodes = pipeline.get("fleet.episodes").copied().unwrap_or(0);
        }
    }
    out
}

/// The same links through each layer's public function, without a daemon.
/// Returns per link the seconds of the fused analysis + decision + fold the
/// shard performs, the part of a window that is not `serve`'s.
fn replay(b: &Built, tracer: &mut Tracer) -> Vec<f64> {
    let gen = FleetGenerator::new(b.cfg.fleet.clone());
    let table = &b.cfg.controller.table;
    let controller = Controller::new(b.cfg.controller.clone(), b.cfg.n_links(), b.cfg.fleet.seed);
    let mut kernel = FleetKernel::new();
    let mut scratch = BatchScratch::default();
    let mut samples = Vec::new();
    let mut fleet = FleetAccumulator::new();
    let mut busy = Vec::new();
    tracer.begin("replay", 0);
    for &link in &b.links[..WINDOW * WINDOWS_PER_PASS] {
        let op = link as u64;
        // The shipped shard path, fused: what `serve` wraps.
        let t0 = Instant::now();
        tracer.begin("shard.link", op);
        let analysis = kernel.analyze_generated(&gen, link, table);
        let decision = controller.decide(
            LinkId(link),
            Modulation::DpQpsk100,
            analysis.hdr.feasibility_floor(),
            SimTime::EPOCH,
        );
        std::hint::black_box(decision);
        let mut single = FleetAccumulator::new();
        single.push(&analysis);
        tracer.end();
        busy.push(t0.elapsed().as_secs_f64());
        // The same work layer by layer.
        tracer.time("telemetry.generate", op, || {
            gen.generate_link_into(link, &mut scratch, &mut samples)
        });
        let trace = SnrTrace::new(SimTime::EPOCH, b.cfg.fleet.tick, samples.clone());
        let analysis = tracer.time("telemetry.analyze", op, || {
            kernel.analyze_trace(&trace, table)
        });
        tracer.time("telemetry.accumulate", op, || {
            let mut single = FleetAccumulator::new();
            single.push(&analysis);
            fleet.merge(single);
        });
    }
    tracer.end();
    std::hint::black_box(fleet.len());
    busy
}

pub fn run(args: &RunArgs) -> Report {
    let (built, setup_s) = timed_setups(|| build(args.seed));
    let mut report = Report::default();
    let mut tracer = Tracer::disabled();
    if args.trace {
        tracer = Tracer::new(Instant::now(), true);
    }
    // A traced run alternates untraced and traced passes over the same links.
    let mut untraced_windows_s = Vec::new();

    let mut windows_s = Vec::new();
    let mut busy_passes = Vec::new();
    let mut last = Pass::default();
    let mut busy_s = 0.0;
    tracer.begin("workload", 0);
    while busy_s < args.seconds {
        let t0 = Instant::now();
        if args.trace {
            let untraced = tracer.time("untraced_pass", 0, || {
                pass(&built, 1, &mut Tracer::disabled(), false)
            });
            if untraced.window_s.len() == WINDOWS_PER_PASS {
                untraced_windows_s.push(untraced.window_s);
            }
        }
        let p = pass(&built, 1, &mut tracer, windows_s.is_empty());
        if args.trace {
            busy_passes.push(replay(&built, &mut tracer));
        }
        busy_s += t0.elapsed().as_secs_f64();
        report.attempted += (WINDOW * WINDOWS_PER_PASS) as u64;
        report.failed += p.failed;
        for f in &p.failures {
            report.fail(f.clone());
        }
        if p.window_s.len() == WINDOWS_PER_PASS {
            windows_s.push(p.window_s.clone());
        }
        last = p;
    }
    tracer.end();
    if windows_s.is_empty() {
        report.fail("no pass completed");
        return report;
    }

    // Per link: its share of the window.
    let per_link = |unit: f64| -> Vec<Vec<f64>> {
        windows_s
            .iter()
            .map(|p| p.iter().map(|w| w * unit / WINDOW as f64).collect())
            .collect()
    };
    let (per_link_s, per_link_ms) = (per_link(1.0), per_link(1e3));
    set_end_to_end_of_passes(&mut report, &setup_s, &per_link_s, &per_link_ms);
    let ticks_per_link = built.cfg.fleet.horizon.ticks(built.cfg.fleet.tick) as f64;
    let links_per_s = report.get("ops_per_s").unwrap_or(0.0);
    report.set(
        "readings_per_s",
        links_per_s * ticks_per_link,
        windows_s.len() * WINDOWS_PER_PASS,
    );
    report.set(
        "telemetry.readings",
        last.readings as f64,
        WINDOW * WINDOWS_PER_PASS,
    );
    report.set(
        "telemetry.episodes",
        last.episodes as f64,
        WINDOW * WINDOWS_PER_PASS,
    );
    report.set("serve.drain_ms", last.drain_ms, 1);
    report.set("serve.queue_depth_max", last.queue_depth_max, 1);
    for &(name, value) in &last.counters {
        report.set(name, value as f64, 1);
    }
    report.counts = vec![
        ("pass.links", (WINDOW * WINDOWS_PER_PASS) as u64),
        ("pass.telemetry.readings", last.readings),
        ("pass.telemetry.episodes", last.episodes),
    ];

    if args.trace {
        super::set_trace_overhead(&mut report, &windows_s, &untraced_windows_s);
        layer_metrics(
            &mut report,
            &built,
            &tracer,
            &windows_s,
            &busy_passes,
            ticks_per_link,
        );
        super::write_trace(&mut report, &tracer, "serve_fleet", args.seed);
    }
    report
}

fn layer_metrics(
    report: &mut Report,
    built: &Built,
    tracer: &Tracer,
    windows_s: &[Vec<f64>],
    busy_passes: &[Vec<f64>],
    ticks_per_link: f64,
) {
    let links = WINDOW * WINDOWS_PER_PASS;
    let per_reading_ns = |span: &str| {
        let d = tracer.durations_us(span);
        (stats::median(&d) * 1e3 / ticks_per_link, d.len())
    };
    let (v, n) = per_reading_ns("telemetry.generate");
    report.set("telemetry.generate_ns_per_reading", v, n);
    let (v, n) = per_reading_ns("telemetry.analyze");
    report.set("telemetry.analyze_ns_per_reading", v, n);
    let d = tracer.durations_us("telemetry.accumulate");
    report.set(
        "telemetry.accumulate_us_per_link",
        stats::median(&d),
        d.len(),
    );
    let d = tracer.durations_us("serve.ingest_call");
    report.set("serve.ingest_call_us_p50", stats::median(&d), d.len());
    report.set(
        "trace.coverage_share",
        tracer.coverage_of("workload"),
        tracer.spans().len(),
    );

    // What `serve` adds: the quietest daemon pass against the quietest
    // direct pass over the same links.
    let overhead = 1.0 - super::quiet_total(busy_passes) / super::quiet_total(windows_s);
    report.set("serve.overhead_share", overhead, links);

    // One link at a time: ingest until `Daemon::capacity` answers.
    let daemon = Daemon::start(built.cfg.clone()).expect("benchmark daemon config is valid");
    let mut visible_us = Vec::new();
    for &link in &built.links[links..links + SAMPLE_LINKS] {
        let t0 = Instant::now();
        if daemon.ingest(&[link]).is_err() {
            break;
        }
        while daemon.capacity(link).is_none() && t0.elapsed() < WINDOW_DEADLINE {
            std::thread::yield_now();
        }
        visible_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    drop(daemon);
    report.set(
        "serve.inproc_visible_us_p50",
        stats::median(&visible_us),
        visible_us.len(),
    );

    // Two shards against one, each the quieter of two passes. Ungated: on a
    // 2-core box the second shard shares its cores with collector and client.
    let rate = |n_shards: usize| {
        (0..2)
            .map(|_| links as f64 / pass(built, n_shards, &mut Tracer::disabled(), false).wall_s)
            .fold(0.0, f64::max)
    };
    report.set("serve.two_shard_speedup", rate(2) / rate(1), 2);

    // The queue on its own: offer + pop of one item, one thread.
    let queue = BoundedQueue::new(64);
    const ROUNDS: usize = 200_000;
    let t0 = Instant::now();
    for i in 0..ROUNDS {
        std::hint::black_box(queue.offer(i, ShedPolicy::RejectNewest));
        let popped = queue.pop_timeout(None, Duration::ZERO);
        debug_assert!(matches!(popped.kind, PopKind::Item(_)));
        std::hint::black_box(popped);
    }
    report.set(
        "serve.queue.offer_pop_ns",
        t0.elapsed().as_nanos() as f64 / ROUNDS as f64,
        ROUNDS,
    );

    // A 7-day link through the fused path: the unit of work of `serve_paced`.
    let small = FleetGenerator::new(config(built.cfg.fleet.seed, 7, 1).fleet);
    let mut kernel = FleetKernel::new();
    let table = &built.cfg.controller.table;
    let small_us: Vec<f64> = built.links[..links]
        .iter()
        .map(|&link| {
            let t0 = Instant::now();
            std::hint::black_box(kernel.analyze_generated(&small, link, table));
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    report.set(
        "telemetry.small_link_us",
        stats::median(&small_us),
        small_us.len(),
    );

    let controller = Controller::new(
        built.cfg.controller.clone(),
        built.cfg.n_links(),
        built.cfg.fleet.seed,
    );
    const DECIDES: usize = 1_000_000;
    let t0 = Instant::now();
    for i in 0..DECIDES {
        let snr = rwc::util::units::Db(6.0 + (i % 97) as f64 * 0.1);
        std::hint::black_box(controller.decide(
            LinkId(i % built.cfg.n_links()),
            Modulation::DpQpsk100,
            snr,
            SimTime::EPOCH,
        ));
    }
    report.set(
        "core.decide_ns",
        t0.elapsed().as_nanos() as f64 / DECIDES as f64,
        DECIDES,
    );
}
