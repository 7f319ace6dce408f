//! Figure-reproduction CLI.
//!
//! ```text
//! repro [--quick|--full|--scale N] [--quiet] [--obs-json FILE]
//!       [--checkpoint DIR] [--resume DIR] [--out DIR] <id>... | all
//! ```
//!
//! Ids: fig1 fig2a fig2b fig3a fig3b fig4 fig5 fig6b fig7 fig8 thm1 tput
//! avail scenario faults srlg objectives ablation chaos. Default scale is a
//! reduced fleet (fast); `--quick` spells that default out (handy in CI), `--full` runs
//! the paper-scale corpus (2,000 links × 2.5 years — takes a while), and
//! `--scale N` multiplies the paper fleet (`--scale 10` = 20,000 links)
//! for fleet-pipeline stress runs.
//!
//! `--obs-json FILE` switches observability on for the whole process: a
//! [`rwc_obs::MetricsObserver`] is installed before any experiment
//! dispatches, every pipeline the experiments build publishes into it
//! (controller decisions and reconfigurations, TE round/solve timing and
//! warm-start rates, scenario tick/fault counters, fleet-kernel episode
//! statistics, the fleet sweeps' `serve.*` counters), and the merged
//! snapshot is written to `FILE` as deterministic JSON when the run
//! finishes. Reports stay byte-identical with observability on or off —
//! metrics are a sidecar, never an input.
//!
//! `--quiet` suppresses progress lines and the `[obs]` event echo;
//! experiment findings and errors still print.
//!
//! Fleet sweeps (fig2a, fig2b, fig3b) run on the `rwc-serve` daemon.
//! `--checkpoint DIR` makes them crash-safe: the daemon keeps its
//! per-shard checkpoint stores in `DIR` (`shard-<i>.ckpt` + `.prev`,
//! written atomically, temp + rename) and restores whatever completed
//! links they hold, so a killed run is continued with `--resume DIR`.
//! `--resume` checks every `shard-*.ckpt` in `DIR` up front — envelope
//! checksum, format version, and sweep fingerprint against this
//! invocation's fleet/seed/pipeline label — and a bad file exits with a
//! distinct code (see [`rwc_bench::cli`]) instead of silently starting
//! over. A resumed run reproduces the uninterrupted run's reports byte
//! for byte, and keeps writing to the same directory.
//!
//! Failure classes map to stable exit codes, documented in
//! [`rwc_bench::cli`]. `repro` reproduces figures and checks them;
//! performance is measured by the `benchmark/` package.

use rwc_bench::experiments;
use rwc_bench::{cli, Scale};
use rwc_harness::{checkpoint, CheckpointError, SweepFingerprint, SWEEP_MODE};
use rwc_obs::{ConsoleSink, MetricsObserver};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    ExitCode::from(cli::EXIT_USAGE)
}

fn main() -> ExitCode {
    let mut scale = Scale::Quick;
    let mut out_dir = PathBuf::from("results");
    let mut ids: Vec<String> = Vec::new();
    let mut obs_path: Option<PathBuf> = None;
    let mut checkpoint_path: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut quiet = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--full" => scale = Scale::Full,
            "--quick" => scale = Scale::Quick,
            "--scale" => match args.next().and_then(|n| n.parse::<u32>().ok()) {
                Some(n) if n > 0 => scale = Scale::Scaled(n),
                _ => return usage_error("--scale needs a positive integer fleet multiplier"),
            },
            "--quiet" => quiet = true,
            "--obs-json" => match args.next() {
                Some(file) => obs_path = Some(PathBuf::from(file)),
                None => return usage_error("--obs-json needs a file"),
            },
            "--checkpoint" => match args.next() {
                Some(dir) => checkpoint_path = Some(PathBuf::from(dir)),
                None => return usage_error("--checkpoint needs a directory"),
            },
            "--resume" => match args.next() {
                Some(dir) => resume_path = Some(PathBuf::from(dir)),
                None => return usage_error("--resume needs a directory"),
            },
            "--out" => match args.next() {
                Some(dir) => out_dir = PathBuf::from(dir),
                None => return usage_error("--out needs a directory"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: repro [--quick|--full|--scale N] [--quiet] \
                     [--obs-json FILE] [--checkpoint DIR] [--resume DIR] [--out DIR] \
                     <id>... | all"
                );
                println!("ids: {} ablation chaos", experiments::ALL.join(" "));
                return ExitCode::SUCCESS;
            }
            other => ids.push(other.to_string()),
        }
    }
    let sink = ConsoleSink::new(quiet);
    if obs_path.is_some() {
        // Install before any experiment dispatches: every pipeline built
        // from here on publishes into this registry, with the salient
        // events echoed through the console sink.
        experiments::set_observer(Arc::new(MetricsObserver::with_forward(Arc::new(sink))));
    }
    if let Err(code) = install_checkpoint_dir(checkpoint_path, resume_path, scale, &sink) {
        return code;
    }
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = experiments::ALL.iter().map(|s| s.to_string()).collect();
        ids.push("ablation".into());
    }

    for id in &ids {
        sink.progress(&format!("running {id} ({} scale)…", scale.label()));
        let Some(report) = experiments::run(id, scale) else {
            sink.error(&format!("unknown experiment id: {id}"));
            return ExitCode::FAILURE;
        };
        sink.result(report.render().trim_end());
        match report.write_csv(&out_dir) {
            Ok(files) => {
                for f in files {
                    sink.progress(&format!("  -> {f}"));
                }
            }
            Err(e) => {
                sink.error(&format!("failed to write CSV: {e}"));
                return ExitCode::FAILURE;
            }
        }
        sink.progress("");
    }
    write_obs_snapshot(obs_path.as_deref(), &sink)
}

/// Installs the `--checkpoint` / `--resume` directory as the fleet
/// sweeps' checkpoint store. `--resume` first verifies every
/// `shard-*.ckpt` in it, so a bad store fails before any experiment
/// dispatches; failures map to the exit codes documented in [`cli`] —
/// notably [`cli::EXIT_CHECKPOINT`] for corrupt, version-mismatched, or
/// foreign checkpoints.
fn install_checkpoint_dir(
    checkpoint_dir: Option<PathBuf>,
    resume_dir: Option<PathBuf>,
    scale: Scale,
    sink: &ConsoleSink,
) -> Result<(), ExitCode> {
    let dir = match (checkpoint_dir, resume_dir) {
        (None, None) => return Ok(()),
        (Some(dir), None) => dir,
        (Some(ck), Some(resume)) if ck != resume => {
            return Err(usage_error("--checkpoint and --resume name one store: give one directory"))
        }
        (_, Some(resume)) => {
            let (files, links) = verify_resume_dir(&resume, scale).map_err(|(path, e)| {
                sink.error(&format!("--resume {}: {e}", path.display()));
                ExitCode::from(cli::checkpoint_exit_code(&e))
            })?;
            sink.progress(&format!(
                "resuming from {} ({files} shard checkpoints, {links} completed links verified)",
                resume.display()
            ));
            resume
        }
    };
    experiments::set_checkpoint_dir(dir);
    Ok(())
}

/// Loads every `shard-<i>.ckpt` in `dir` (envelope checksum, format
/// version) and checks its fingerprint against this invocation's fleet,
/// seed and pipeline label, at the daemon's chunk size of one link.
/// Returns how many files and completed links verified, or the first
/// path that failed with its error.
fn verify_resume_dir(
    dir: &Path,
    scale: Scale,
) -> Result<(usize, usize), (PathBuf, CheckpointError)> {
    let fleet = scale.fleet();
    let expected = SweepFingerprint {
        n_links: fleet.n_links() as u64,
        chunk_size: 1,
        seed: fleet.seed,
        mode: SWEEP_MODE.into(),
    };
    let io = |msg: String| (dir.to_path_buf(), CheckpointError::Io(msg));
    let entries = std::fs::read_dir(dir).map_err(|e| io(e.to_string()))?;
    let mut paths: Vec<PathBuf> = entries
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.starts_with("shard-") && name.ends_with(".ckpt")
        })
        .collect();
    if paths.is_empty() {
        return Err(io("no shard-*.ckpt checkpoint in it".into()));
    }
    paths.sort();
    let mut links = 0;
    for path in &paths {
        let cp = checkpoint::load(path)
            .and_then(|cp| expected.verify(&cp.fingerprint).map(|()| cp))
            .map_err(|e| (path.clone(), e))?;
        links += cp.chunks.len();
    }
    Ok((paths.len(), links))
}

/// Writes the installed observer's merged snapshot to `path`; a no-op
/// when `--obs-json` was not given.
fn write_obs_snapshot(path: Option<&std::path::Path>, sink: &ConsoleSink) -> ExitCode {
    let Some(path) = path else {
        return ExitCode::SUCCESS;
    };
    let Some(snapshot) = experiments::metrics() else {
        sink.error("--obs-json: no observer was installed (internal error)");
        return ExitCode::FAILURE;
    };
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        if let Err(e) = std::fs::create_dir_all(dir) {
            sink.error(&format!("cannot create {}: {e}", dir.display()));
            return ExitCode::FAILURE;
        }
    }
    if let Err(e) = std::fs::write(path, snapshot.to_json() + "\n") {
        sink.error(&format!("cannot write {}: {e}", path.display()));
        return ExitCode::FAILURE;
    }
    sink.result(&format!(
        "observability snapshot ({} counters, {} gauges, {} histograms) -> {}",
        snapshot.counters.len(),
        snapshot.gauges.len(),
        snapshot.histograms.len(),
        path.display()
    ));
    ExitCode::SUCCESS
}
