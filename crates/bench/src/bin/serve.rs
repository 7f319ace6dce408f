//! `rwc-serve`: the sharded controller daemon as a process.
//!
//! ```text
//! rwc-serve [--listen ADDR] [--quick|--full]
//!           [--shards N] [--queue-capacity N] [--shed oldest|reject]
//!           [--deadline-ms T] [--restart-budget N]
//!           [--checkpoint-dir DIR] [--checkpoint-every N]
//!           [--obs-json FILE] [--quiet]
//! ```
//!
//! Binds the minimal HTTP/1.1 surface (`/healthz`, `/readyz`, `/metrics`,
//! `/capacity/<link>`, `/ingest`, `/shutdown`) over a sharded daemon and
//! serves until `/shutdown` raises the SIGINT-equivalent flag, then
//! drains gracefully: shards flush their queues, final per-shard
//! checkpoints are written, and the merged pipeline + `serve.*` snapshot
//! goes to `--obs-json` in the same schema `repro --obs-json` emits.
//!
//! With `--checkpoint-dir`, an abrupt kill (`kill -9`, power loss) is
//! recoverable: restarting with the same flags resumes from the periodic
//! per-shard checkpoints and converges to the byte-identical result.
//!
//! Exit codes extend the [`rwc_bench::cli`] table: `0` clean drain, `2`
//! bad flags, `6` corrupt checkpoints, `10` serve failures (shard restart
//! budget exhausted with work stranded, socket trouble).

use rwc_bench::cli;
use rwc_obs::ConsoleSink;
use rwc_serve::{
    Daemon, HttpServer, ServeCheckpointConfig, ServeConfig, ServeError, ShedPolicy,
};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(cli::EXIT_USAGE)
}

fn serve_error(sink: &ConsoleSink, err: &ServeError) -> ExitCode {
    sink.error(&err.to_string());
    ExitCode::from(cli::serve_exit_code(err))
}

fn main() -> ExitCode {
    let mut cfg = ServeConfig::small();
    let mut listen = "127.0.0.1:7117".to_string();
    let mut obs_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => cfg.fleet = ServeConfig::small().fleet,
            "--full" => cfg.fleet = ServeConfig::paper().fleet,
            "--quiet" => quiet = true,
            "--listen" => match args.next() {
                Some(addr) => listen = addr,
                None => return usage_error("--listen needs an address"),
            },
            "--shards" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => cfg.n_shards = n,
                _ => return usage_error("--shards needs a positive integer"),
            },
            "--queue-capacity" => match args.next().and_then(|n| n.parse::<usize>().ok()) {
                Some(n) if n > 0 => cfg.queue_capacity = n,
                _ => return usage_error("--queue-capacity needs a positive integer"),
            },
            "--shed" => match args.next().as_deref() {
                Some("oldest") => cfg.shed_policy = ShedPolicy::ShedOldest,
                Some("reject") => cfg.shed_policy = ShedPolicy::RejectNewest,
                _ => return usage_error("--shed needs 'oldest' or 'reject'"),
            },
            "--deadline-ms" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(ms) if ms > 0 => cfg.deadline = Some(Duration::from_millis(ms)),
                _ => return usage_error("--deadline-ms needs a positive integer"),
            },
            "--restart-budget" => match args.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) => cfg.restart.budget = n,
                None => return usage_error("--restart-budget needs an integer"),
            },
            "--checkpoint-dir" => match args.next() {
                Some(dir) => {
                    let every =
                        cfg.checkpoint.as_ref().map_or(8, |c| c.every_links);
                    cfg.checkpoint = Some(ServeCheckpointConfig {
                        dir: PathBuf::from(dir),
                        every_links: every,
                    });
                }
                None => return usage_error("--checkpoint-dir needs a directory"),
            },
            "--checkpoint-every" => match args.next().and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => match &mut cfg.checkpoint {
                    Some(ck) => ck.every_links = n,
                    None => {
                        return usage_error("--checkpoint-every needs --checkpoint-dir first")
                    }
                },
                _ => return usage_error("--checkpoint-every needs a positive integer"),
            },
            "--obs-json" => match args.next() {
                Some(file) => obs_path = Some(PathBuf::from(file)),
                None => return usage_error("--obs-json needs a file"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: rwc-serve [--listen ADDR] [--quick|--full] \
                     [--shards N] [--queue-capacity N] [--shed oldest|reject] \
                     [--deadline-ms T] [--restart-budget N] [--checkpoint-dir DIR] \
                     [--checkpoint-every N] [--obs-json FILE] [--quiet]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown flag: {other}")),
        }
    }

    let sink = ConsoleSink::new(quiet);
    let shutdown = Arc::new(AtomicBool::new(false));
    cfg.shutdown = Some(shutdown.clone());
    let daemon = match Daemon::start(cfg) {
        Ok(d) => d,
        Err(e) => return serve_error(&sink, &e),
    };
    let server = match HttpServer::bind(&listen) {
        Ok(s) => s,
        Err(e) => return serve_error(&sink, &e),
    };
    if let Some(addr) = server.local_addr() {
        sink.result(&format!(
            "rwc-serve listening on {addr} ({} links across {} shards)",
            daemon.n_links(),
            daemon.shard_statuses().len()
        ));
    }
    server.run(&daemon, &shutdown);
    sink.progress("shutdown flag raised; draining shards…");
    let report = match daemon.drain() {
        Ok(r) => r,
        Err(e) => return serve_error(&sink, &e),
    };
    sink.result(&format!(
        "drained: {} links completed, {} shed, {} restarts",
        report.links_completed,
        report.counter("serve.shed_oldest") + report.counter("serve.shed_deadline"),
        report.counter("serve.shard_restarts"),
    ));
    if let Some(path) = obs_path {
        let mut merged = report.pipeline_metrics.clone();
        merged.merge(&report.serve_metrics);
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            if let Err(e) = std::fs::create_dir_all(dir) {
                sink.error(&format!("cannot create {}: {e}", dir.display()));
                return ExitCode::from(cli::EXIT_SERVE);
            }
        }
        if let Err(e) = std::fs::write(&path, merged.to_json() + "\n") {
            sink.error(&format!("cannot write {}: {e}", path.display()));
            return ExitCode::from(cli::EXIT_SERVE);
        }
        sink.result(&format!("observability snapshot -> {}", path.display()));
    }
    ExitCode::SUCCESS
}
