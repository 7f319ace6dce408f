//! `serve_paced`: the daemon behind its HTTP surface, at a fixed rate.
//!
//! Open loop over loopback HTTP (`HttpServer` + `Daemon` in this process):
//! a generator thread sends one `POST /ingest` with one link id in every
//! 20 ms slot (50/s, the smallest message, at a seeded offset in the slot), a poller thread asks `GET /capacity/<link>`
//! until it answers 200, and a scraper reads `GET /metrics` once a second
//! beside them. Links carry a 7-day horizon (≈ 50 µs of analysis each) and
//! the daemon checkpoints every 64 links, so `serve` (accept loop, parser,
//! queue, collector) and `harness` (checkpoints) do the work and `telemetry`
//! almost none — the mirror image of `serve_fleet`. An op is one ingest; its
//! latency runs from the moment the request was *due* until the first 200
//! from `/capacity`, so time the generator or the accept loop lost is
//! counted, and how late the generator ran is reported.

use super::serve_fleet::{config, shuffled_links};
use super::{set_end_to_end, RunArgs, SETUP_REPEATS};
use crate::report::Report;
use crate::stats;
use crate::trace::Tracer;
use rwc::harness::{CheckpointStore, ChunkCheckpoint, SweepCheckpoint, SweepFingerprint};
use rwc::obs::MetricsObserver;
use rwc::serve::{Daemon, HttpServer, ServeCheckpointConfig, ServeConfig, ServeReport};
use rwc::telemetry::{FleetAccumulator, FleetGenerator, FleetKernel};
use rwc::util::rng::Xoshiro256;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Requests per second and the period between two of them.
const RATE: u64 = 50;
const PERIOD: Duration = Duration::from_millis(1000 / RATE);
const CHECKPOINT_EVERY: u64 = 64;
/// A link not visible this long after it was due counts as lost.
const VISIBLE_DEADLINE: Duration = Duration::from_secs(5);
const IO_TIMEOUT: Duration = Duration::from_secs(5);
/// The run stops being an open loop at [`RATE`], and is declared invalid
/// instead of reported, when the generator is habitually late (median
/// lateness above a quarter period) or delivers under 95 % of the schedule.
/// The worst single lateness is reported but cannot be the test: the shared
/// box freezes the process for 50–250 ms a few times in every run, each
/// freeze makes a dozen sends late, and all of it lands in those ops' own
/// latencies because they are timed from their due time.
const LATE_P50_LIMIT: Duration = Duration::from_millis(1000 / RATE / 4);
const ACHIEVED_RATE_FLOOR: f64 = 0.95;

/// One request on a connection of its own, as the server expects.
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    let io = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect_timeout(&addr, IO_TIMEOUT).map_err(io)?;
    stream.set_nodelay(true).map_err(io)?;
    stream.set_read_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    stream.set_write_timeout(Some(IO_TIMEOUT)).map_err(io)?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).map_err(io)?;
    let mut response = String::new();
    stream.read_to_string(&mut response).map_err(io)?;
    let status = response
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: malformed response {response:?}"))?;
    let payload = response
        .split_once("\r\n\r\n")
        .map_or("", |(_, b)| b)
        .to_string();
    Ok((status, payload))
}

/// A checkpoint directory no other run shares: pid + seed + counter.
fn checkpoint_dir(seed: u64) -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    super::out_dir()
        .join("tmp")
        .join(format!("ckpt-{}-{seed}-{n}", std::process::id()))
}

/// What one daemon + HTTP server session produced.
struct Session<R> {
    /// Seconds from nothing to the first `/healthz` 200.
    setup_s: f64,
    body: R,
    drained: ServeReport,
}

/// Starts a daemon and its HTTP server, runs `body` against them, then
/// shuts down, joins the server thread, drains and removes the checkpoints.
fn session<R: Send>(
    cfg: ServeConfig,
    body: impl FnOnce(&Daemon, SocketAddr) -> R + Send,
) -> Result<Session<R>, String> {
    let dir = cfg.checkpoint.as_ref().map(|c| c.dir.clone());
    let t0 = Instant::now();
    let outcome = (|| {
        let daemon = Daemon::start(cfg).map_err(|e| format!("daemon start: {e}"))?;
        let server = HttpServer::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = server.local_addr().ok_or("server has no local address")?;
        let shutdown = AtomicBool::new(false);
        let ran = std::thread::scope(|scope| {
            let accept_loop = scope.spawn(|| server.run(&daemon, &shutdown));
            let ran = match http(addr, "GET", "/healthz", "") {
                Ok((200, _)) => Ok((t0.elapsed().as_secs_f64(), body(&daemon, addr))),
                other => Err(format!("first /healthz answered {other:?}")),
            };
            shutdown.store(true, Ordering::Release);
            accept_loop
                .join()
                .map_err(|_| "accept loop panicked".to_string())?;
            ran
        });
        let (setup_s, body) = ran?;
        let drained = daemon.drain().map_err(|e| format!("drain: {e}"))?;
        Ok(Session {
            setup_s,
            body,
            drained,
        })
    })();
    if let Some(dir) = dir {
        std::fs::remove_dir_all(dir).ok();
    }
    outcome
}

fn paced_config(seed: u64) -> ServeConfig {
    let mut cfg = config(seed, 7, 1);
    cfg.checkpoint = Some(ServeCheckpointConfig {
        dir: checkpoint_dir(seed),
        every_links: CHECKPOINT_EVERY,
    });
    cfg
}

/// Everything the client threads measured.
#[derive(Default)]
struct Measured {
    /// Due time → first 200 from `/capacity`, per visible link.
    visible_ms: Vec<f64>,
    /// When each link became visible, seconds after the first was due.
    visible_at_s: Vec<f64>,
    late_ms: Vec<f64>,
    ingest_rtt_ms: Vec<f64>,
    capacity_rtt_ms: Vec<f64>,
    metrics_rtt_ms: Vec<f64>,
    polls: u64,
    failed: u64,
    failures: Vec<String>,
    tracer: Option<Tracer>,
}

/// The open loop: generator, poller and scraper threads, all joined.
fn drive(addr: SocketAddr, links: &[usize], seed: u64, epoch: Instant, trace: bool) -> Measured {
    // Each request is due somewhere inside its own 20 ms slot, drawn from
    // the seed: a strictly periodic schedule beats against the accept loop's
    // own 5 ms sleep cycle, and the median then depends on the phase the run
    // happened to start in.
    let mut rng = Xoshiro256::seed_from_u64(seed ^ 0x000F_F5E7);
    let offsets: Vec<Duration> = links
        .iter()
        .map(|_| PERIOD.mul_f64(rng.uniform()))
        .collect();
    let offsets = &offsets;
    let done = AtomicBool::new(false);
    let (posted_tx, posted_rx) = mpsc::channel::<(usize, Instant)>();
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut tracer = Tracer::new(epoch, trace);
            let (mut late_ms, mut rtt_ms, mut failures) = (Vec::new(), Vec::new(), Vec::new());
            for (i, &link) in links.iter().enumerate() {
                let due = start + PERIOD * i as u32 + offsets[i];
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                late_ms.push((sent - due).as_secs_f64() * 1e3);
                let answer = tracer.time("serve.http.ingest", link as u64, || {
                    http(addr, "POST", "/ingest", &link.to_string())
                });
                rtt_ms.push(sent.elapsed().as_secs_f64() * 1e3);
                match answer {
                    Ok((200, body)) if body.contains("\"accepted\":1,") => {
                        posted_tx.send((link, due)).ok();
                    }
                    other => failures.push(format!("POST /ingest {link}: {other:?}")),
                }
            }
            drop(posted_tx);
            (late_ms, rtt_ms, failures, tracer)
        });
        let poller = scope.spawn(|| {
            let mut tracer = Tracer::new(epoch, trace);
            let mut m = Measured::default();
            for (link, due) in posted_rx {
                let path = format!("/capacity/{link}");
                loop {
                    m.polls += 1;
                    let t0 = Instant::now();
                    let answer = tracer.time("serve.http.capacity", link as u64, || {
                        http(addr, "GET", &path, "")
                    });
                    m.capacity_rtt_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    match answer {
                        Ok((200, _)) => {
                            let now = Instant::now();
                            m.visible_ms.push((now - due).as_secs_f64() * 1e3);
                            m.visible_at_s.push((now - start).as_secs_f64());
                            break;
                        }
                        Ok((404, _)) if due.elapsed() < VISIBLE_DEADLINE => {}
                        other => {
                            m.failed += 1;
                            m.failures
                                .push(format!("GET {path}: never visible, last {other:?}"));
                            break;
                        }
                    }
                }
            }
            done.store(true, Ordering::Release);
            m.tracer = Some(tracer);
            m
        });
        let scraper = scope.spawn(|| {
            let mut tracer = Tracer::new(epoch, trace);
            let (mut rtt_ms, mut failures) = (Vec::new(), Vec::new());
            let mut next = Instant::now() + Duration::from_secs(1);
            while !done.load(Ordering::Acquire) {
                if Instant::now() < next {
                    std::thread::sleep(Duration::from_millis(10));
                    continue;
                }
                next += Duration::from_secs(1);
                let t0 = Instant::now();
                match tracer.time("serve.http.metrics", 0, || {
                    http(addr, "GET", "/metrics", "")
                }) {
                    Ok((200, _)) => rtt_ms.push(t0.elapsed().as_secs_f64() * 1e3),
                    other => failures.push(format!("GET /metrics: {:?}", other.map(|(s, _)| s))),
                }
            }
            (rtt_ms, failures, tracer)
        });

        let (late_ms, ingest_rtt_ms, ingest_failures, generator_trace) =
            generator.join().expect("generator thread panicked");
        let mut m = poller.join().expect("poller thread panicked");
        let (metrics_rtt_ms, scrape_failures, scraper_trace) =
            scraper.join().expect("scraper thread panicked");
        m.failed += (ingest_failures.len() + scrape_failures.len()) as u64;
        m.failures.extend(ingest_failures);
        m.failures.extend(scrape_failures);
        m.late_ms = late_ms;
        m.ingest_rtt_ms = ingest_rtt_ms;
        m.metrics_rtt_ms = metrics_rtt_ms;
        if let Some(tracer) = &mut m.tracer {
            tracer.absorb(generator_trace);
            tracer.absorb(scraper_trace);
        }
        m
    })
}

pub fn run(args: &RunArgs) -> Report {
    let mut report = Report::default();
    // Set-up repeats: all but the last session do nothing but come up.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    for _ in 1..SETUP_REPEATS {
        match session(paced_config(args.seed), |_, _| ()) {
            Ok(s) => setup_s.push(s.setup_s),
            Err(e) => report.fail(format!("set-up session: {e}")),
        }
    }

    let cfg = paced_config(args.seed);
    let n_ops = ((args.seconds * RATE as f64) as usize).clamp(1, cfg.n_links() - 1);
    let links = shuffled_links(&cfg, args.seed);
    let epoch = Instant::now();
    let timed = session(cfg.clone(), |daemon, addr| {
        let m = drive(addr, &links[..n_ops], args.seed, epoch, args.trace);
        // Every served capacity is what a direct analysis of the link yields.
        let gen = FleetGenerator::new(cfg.fleet.clone());
        let mut kernel = FleetKernel::new();
        let mut mismatches = Vec::new();
        for &link in links[..n_ops].iter().step_by((n_ops / 32).max(1)) {
            let direct = kernel
                .analyze_generated(&gen, link, &cfg.controller.table)
                .feasible_capacity
                .value();
            if daemon.capacity(link).map(f64::to_bits) != Some(direct.to_bits()) {
                mismatches.push(format!(
                    "link {link}: daemon serves {:?}, direct {direct}",
                    daemon.capacity(link)
                ));
            }
        }
        let healthz_ms: Vec<f64> = if args.trace {
            (0..50)
                .filter_map(|_| {
                    let t0 = Instant::now();
                    matches!(http(addr, "GET", "/healthz", ""), Ok((200, _)))
                        .then(|| t0.elapsed().as_secs_f64() * 1e3)
                })
                .collect()
        } else {
            Vec::new()
        };
        (m, mismatches, healthz_ms)
    });
    let Session {
        setup_s: last_setup_s,
        body: (m, mismatches, healthz_ms),
        drained,
    } = match timed {
        Ok(s) => s,
        Err(e) => {
            report.attempted = n_ops as u64;
            report.failed = n_ops as u64;
            report.fail(format!("timed session: {e}"));
            return report;
        }
    };
    setup_s.push(last_setup_s);

    report.attempted = n_ops as u64;
    report.failed = m.failed + mismatches.len() as u64;
    for f in m.failures.iter().chain(&mismatches) {
        report.fail(f.clone());
    }
    // The overload ledger closes: everything ingested was completed.
    if drained.counter("serve.ingested") != drained.links_completed
        || drained.links_completed != n_ops as u64
    {
        report.failed += 1;
        report.fail(format!(
            "ledger open at drain: ingested {} completed {} of {n_ops}",
            drained.counter("serve.ingested"),
            drained.links_completed
        ));
    }
    let achieved = m.visible_ms.len() as f64 / m.visible_at_s.last().copied().unwrap_or(f64::NAN);
    let late_p50_ms = stats::median(&m.late_ms);
    if late_p50_ms > LATE_P50_LIMIT.as_secs_f64() * 1e3
        || achieved < ACHIEVED_RATE_FLOOR * RATE as f64
    {
        report.fail(format!(
            "invalid run: generator late by {late_p50_ms:.2} ms at the median, {achieved:.1} of {RATE} ops/s delivered"
        ));
    }
    set_end_to_end(
        &mut report,
        &setup_s,
        achieved,
        &m.visible_ms,
        m.visible_ms.len(),
    );
    report.set("loadgen.achieved_rate", achieved, m.visible_ms.len());
    report.set("loadgen.late_p50_ms", late_p50_ms, m.late_ms.len());
    report.set(
        "loadgen.late_max_ms",
        stats::max(&m.late_ms),
        m.late_ms.len(),
    );
    report.set(
        "serve.polls_per_link",
        m.polls as f64 / m.visible_ms.len().max(1) as f64,
        m.polls as usize,
    );
    report.set(
        "serve.http.ingest_rtt_ms_p50",
        stats::median(&m.ingest_rtt_ms),
        m.ingest_rtt_ms.len(),
    );
    report.set(
        "serve.http.capacity_rtt_ms_p50",
        stats::median(&m.capacity_rtt_ms),
        m.capacity_rtt_ms.len(),
    );
    report.set(
        "serve.http.metrics_rtt_ms_p50",
        stats::median(&m.metrics_rtt_ms),
        m.metrics_rtt_ms.len(),
    );
    report.set(
        "serve.http.healthz_rtt_ms_p50",
        stats::median(&healthz_ms),
        healthz_ms.len(),
    );
    for name in [
        "serve.http_requests",
        "serve.checkpoints_written",
        "serve.rejected",
        "serve.duplicates",
    ] {
        report.set(name, drained.counter(name) as f64, 1);
    }
    report.set(
        "serve.shed",
        (drained.counter("serve.shed_oldest") + drained.counter("serve.shed_deadline")) as f64,
        1,
    );
    let pipeline = &drained.pipeline_metrics.counters;
    let readings = pipeline.get("fleet.samples").copied().unwrap_or(0);
    let episodes = pipeline.get("fleet.episodes").copied().unwrap_or(0);
    report.set("telemetry.readings", readings as f64, n_ops);
    report.set("telemetry.episodes", episodes as f64, n_ops);
    report.set(
        "readings_per_s",
        achieved * readings as f64 / n_ops as f64,
        n_ops,
    );
    report.counts = vec![
        ("run.links", n_ops as u64),
        ("run.telemetry.readings", readings),
        ("run.telemetry.episodes", episodes),
        (
            "run.checkpoints_written",
            drained.counter("serve.checkpoints_written"),
        ),
    ];

    if let Some(tracer) = m.tracer.filter(|_| args.trace) {
        layer_metrics(&mut report, &cfg, &links[..n_ops]);
        super::write_trace(&mut report, &tracer, "serve_paced", args.seed);
    }
    report
}

/// Layers replayed without HTTP: the checkpoints the collector wrote, and
/// the in-process ingest → capacity hand-off.
fn layer_metrics(report: &mut Report, cfg: &ServeConfig, links: &[usize]) {
    // The checkpoint the shard writes after 64, 128, … completions holds
    // every link completed so far (ascending link id), so the bytes written
    // grow quadratically with the fleet.
    let gen = FleetGenerator::new(cfg.fleet.clone());
    let mut kernel = FleetKernel::new();
    let mut small_us = Vec::with_capacity(links.len());
    let mut chunks: Vec<ChunkCheckpoint> = Vec::new();
    let dir = checkpoint_dir(cfg.fleet.seed);
    let store = CheckpointStore::new(dir.join("shard-0.ckpt"));
    let fingerprint = SweepFingerprint {
        n_links: cfg.n_links() as u64,
        chunk_size: 1,
        seed: cfg.fleet.seed,
        mode: "fused".into(),
    };
    let (mut write_ms, mut bytes) = (Vec::new(), 0u64);
    if std::fs::create_dir_all(&dir).is_ok() {
        for (i, &link) in links.iter().enumerate() {
            let obs = Arc::new(MetricsObserver::new());
            kernel.set_observer(obs.clone());
            let t0 = Instant::now();
            let analysis = kernel.analyze_generated(&gen, link, &cfg.controller.table);
            small_us.push(t0.elapsed().as_secs_f64() * 1e6);
            let mut accumulator = FleetAccumulator::new();
            accumulator.push(&analysis);
            chunks.push(ChunkCheckpoint {
                id: link as u64,
                accumulator,
                metrics: Some(obs.snapshot()),
            });
            if ((i + 1) as u64).is_multiple_of(CHECKPOINT_EVERY) {
                let mut cp = SweepCheckpoint::new(fingerprint.clone());
                cp.chunks = chunks.clone();
                cp.chunks.sort_by_key(|c| c.id);
                let t0 = Instant::now();
                if store.write(&cp).is_err() {
                    break;
                }
                write_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                bytes += std::fs::metadata(store.path()).map_or(0, |m| m.len());
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    report.set(
        "harness.checkpoint_write_ms_p50",
        stats::median(&write_ms),
        write_ms.len(),
    );
    report.set(
        "harness.checkpoint_write_ms_max",
        stats::max(&write_ms),
        write_ms.len(),
    );
    report.set(
        "harness.checkpoint_bytes_total",
        bytes as f64,
        write_ms.len(),
    );
    report.set(
        "telemetry.small_link_us",
        stats::median(&small_us),
        small_us.len(),
    );

    // Ingest → `Daemon::capacity` answers, one link at a time, no HTTP.
    let mut plain = cfg.clone();
    plain.checkpoint = None;
    if let Ok(daemon) = Daemon::start(plain) {
        let (mut ingest_us, mut visible_us) = (Vec::new(), Vec::new());
        for &link in links {
            let t0 = Instant::now();
            if daemon.ingest(&[link]).is_err() {
                break;
            }
            ingest_us.push(t0.elapsed().as_secs_f64() * 1e6);
            while daemon.capacity(link).is_none() && t0.elapsed() < VISIBLE_DEADLINE {
                std::hint::spin_loop();
            }
            visible_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        report.set(
            "serve.ingest_call_us_p50",
            stats::median(&ingest_us),
            ingest_us.len(),
        );
        report.set(
            "serve.inproc_visible_us_p50",
            stats::median(&visible_us),
            visible_us.len(),
        );
    }
}
