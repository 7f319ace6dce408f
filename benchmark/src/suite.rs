//! `all` and `repeat`: the whole suite, one OS process per workload run.
//!
//! Both re-invoke this binary with the single-run command line and read the
//! `metric` / `count` lines it prints, so every run has a `peak_rss_mb` of
//! its own and the numbers are exactly those the contract's JSON line
//! carries.

use crate::report::{MetricDef, END_TO_END};
use crate::stats;
use crate::workloads::WORKLOADS;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

/// The `count` lines of one run.
type Counts = Vec<(String, u64)>;

/// What one child run printed.
#[derive(Debug, Default)]
struct RunOutput {
    ok: bool,
    metrics: BTreeMap<String, f64>,
    counts: Counts,
}

/// Runs one workload in a child process, echoing its lines.
fn run_child(
    workload: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    echo: bool,
) -> Result<RunOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut out = RunOutput {
        ok: output.status.success(),
        ..Default::default()
    };
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.as_slice() {
            ["metric", _, name, value, ..] => {
                if let Ok(v) = value.parse() {
                    out.metrics.insert(name.to_string(), v);
                }
            }
            ["count", _, name, value] => {
                if let Ok(v) = value.parse() {
                    out.counts.push((name.to_string(), v));
                }
            }
            _ => {}
        }
        if echo && !line.starts_with('{') {
            println!("{line}");
        }
    }
    if !output.status.success() {
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        for line in stdout.lines().filter(|l| l.starts_with("check ")) {
            eprintln!("{line}");
        }
    }
    Ok(out)
}

/// Every workload untraced, then every workload traced; all metrics by
/// name with unit and sample count, and a summary of the end-to-end ones.
pub fn all(seed: u64, seconds: f64) -> Result<ExitCode, String> {
    let mut ok = true;
    let mut summary = Vec::new();
    for w in WORKLOADS {
        println!(
            "# {} untraced (seed {seed}, {seconds} s): {}",
            w.name, w.why
        );
        let run = run_child(w.name, seed, seconds, false, true)?;
        ok &= run.ok;
        summary.push((w.name, run));
    }
    for w in WORKLOADS {
        println!("# {} traced (seed {seed}, {seconds} s)", w.name);
        ok &= run_child(w.name, seed, seconds, true, true)?.ok;
    }
    println!("# end-to-end summary");
    for (name, run) in &summary {
        let cells: Vec<String> = END_TO_END
            .iter()
            .map(|d| {
                format!(
                    "{}={:.4}{}",
                    d.name,
                    run.metrics.get(d.name).copied().unwrap_or(f64::NAN),
                    d.unit
                )
            })
            .collect();
        println!("summary {name} {}", cells.join(" "));
    }
    println!("# traces: benchmark/out/trace_<workload>.json");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// How much worse `second` is than `first`, as a share of `first`.
fn worsening(def: &MetricDef, first: f64, second: f64) -> f64 {
    let delta = if def.better == "lower" {
        second - first
    } else {
        first - second
    };
    delta / first.abs()
}

/// `sets` × `runs` untraced suites on this build. Per metric × workload:
/// each set's median and quartiles, its spread (IQR / median), and whether
/// every later set's median is within the metric's bound of the first.
/// Also checks that the counts repeat exactly for a seed and differ between
/// seeds. Non-zero exit when a run fails, a spread (other than
/// `setup_s`'s) exceeds its bound, two sets disagree, or the counts misbehave.
pub fn repeat(sets: usize, runs: usize, seed: u64, seconds: f64) -> Result<ExitCode, String> {
    if sets < 2 || runs < 1 {
        return Err("repeat needs --sets >= 2 and --runs >= 1".into());
    }
    let mut ok = true;
    // values[workload][metric][set] = one value per run
    let mut values: BTreeMap<&str, BTreeMap<&str, Vec<Vec<f64>>>> = BTreeMap::new();
    // counts[workload][run][set]
    let mut counts: BTreeMap<&str, Vec<Vec<Counts>>> = BTreeMap::new();
    for set in 0..sets {
        for run in 0..runs {
            for w in WORKLOADS {
                let out = run_child(w.name, seed + run as u64, seconds, false, false)?;
                if !out.ok {
                    println!(
                        "FAILED run: {} set {set} seed {}",
                        w.name,
                        seed + run as u64
                    );
                    ok = false;
                }
                for d in END_TO_END {
                    let per_set = values
                        .entry(w.name)
                        .or_default()
                        .entry(d.name)
                        .or_insert_with(|| vec![Vec::new(); sets]);
                    per_set[set].push(out.metrics.get(d.name).copied().unwrap_or(f64::NAN));
                }
                let per_run = counts
                    .entry(w.name)
                    .or_insert_with(|| vec![Vec::new(); runs]);
                per_run[run].push(out.counts);
            }
            println!("# set {set} run {run} done");
        }
    }

    for w in WORKLOADS {
        for d in END_TO_END {
            let per_set = &values[w.name][d.name];
            let medians: Vec<f64> = per_set.iter().map(|v| stats::quartiles(v)[1]).collect();
            for (set, v) in per_set.iter().enumerate() {
                let [q1, q2, q3] = stats::quartiles(v);
                let spread = stats::spread(v);
                let spread_ok = d.name == "setup_s" || runs < 4 || spread <= d.bound;
                let agrees = set == 0 || worsening(d, medians[0], medians[set]) <= d.bound;
                ok &= spread_ok && agrees;
                println!(
                    "repeat {} {} set={set} n={} q1={q1:.6} median={q2:.6} q3={q3:.6} {} spread={spread:.4} bound={} {}{}",
                    w.name,
                    d.name,
                    v.len(),
                    d.unit,
                    d.bound,
                    if agrees { "agrees" } else { "DISAGREES" },
                    if spread_ok { "" } else { " SPREAD-OVER-BOUND" },
                );
            }
        }
    }

    // Counts: identical whenever the seed is, different somewhere in the
    // suite when it is not.
    let mut any_seed_difference = false;
    let mut counts_ok = true;
    for w in WORKLOADS {
        let per_run = &counts[w.name];
        for (run, per_set) in per_run.iter().enumerate() {
            if per_set.iter().any(|c| c.is_empty() || *c != per_set[0]) {
                println!(
                    "counts {} seed {} DIFFER between sets: {per_set:?}",
                    w.name,
                    seed + run as u64
                );
                counts_ok = false;
            }
        }
        any_seed_difference |= per_run.iter().any(|per_set| per_set[0] != per_run[0][0]);
    }
    if runs >= 2 && !any_seed_difference {
        println!("counts are the same for every seed: the seed does not reach the inputs");
        counts_ok = false;
    }
    println!(
        "counts repeat exactly per seed and differ between seeds: {}",
        if counts_ok { "yes" } else { "NO" }
    );
    ok &= counts_ok;
    println!(
        "repeat: {}",
        if ok {
            "sets agree within the bounds"
        } else {
            "FAILED"
        }
    );
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
