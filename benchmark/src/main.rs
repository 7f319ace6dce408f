//! `rwc-benchmark`: one command for the reading → capacity budget.
//!
//! ```text
//! rwc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! rwc-benchmark all    [--seed <n>] [--seconds <s>]
//! rwc-benchmark repeat [--sets 2] [--runs <n>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! The first form runs one workload in this process and ends with one JSON
//! line (the contract in `BENCHMARK.json`). `all` and `repeat` re-invoke
//! this binary once per workload run, so every run has a process — and a
//! `peak_rss_mb` — of its own.

mod report;
mod stats;
mod suite;
mod trace;
mod workloads;

use report::{Report, END_TO_END, PER_LAYER};
use std::process::ExitCode;
use workloads::{RunArgs, WORKLOADS};

/// Run length when the command line gives none; equals `run_seconds` in
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;

/// `--key value` pairs after the optional subcommand.
struct Flags(Vec<(String, String)>);

impl Flags {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut pairs = Vec::new();
        let mut it = args.iter();
        while let Some(key) = it.next() {
            let name = key
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument {key}"))?;
            let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
            pairs.push((name.to_string(), value.clone()));
        }
        Ok(Self(pairs))
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.0.iter().find(|(k, _)| k == name) {
            None => Ok(default),
            Some((_, v)) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot read {v:?}")),
        }
    }

    fn text(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// `VmHWM` of this process in MiB: the peak resident set so far.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Caps glibc at one malloc arena for this process. glibc hands a thread a
/// new arena whenever it finds its own contended; which of `serve_paced`'s
/// seven threads ends up where is a race, and 8 MiB of its peak RSS with it
/// (27–36 MiB between identical runs, 27.2–27.6 pinned). The cap applies to
/// every workload and to both sides of any comparison.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn pin_malloc_arenas() {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_ARENA_MAX: i32 = -8;
    // SAFETY: `mallopt` is glibc's documented tuning entry point; it takes
    // two integers, stores the limit and touches no memory of ours. It runs
    // first thing in `main`, before any other thread exists.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn pin_malloc_arenas() {}

/// Runs one workload in this process and prints its lines and JSON.
fn run_one(flags: &Flags) -> Result<ExitCode, String> {
    let name = flags.text("workload").ok_or("--workload is required")?;
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or_else(|| format!("unknown workload {name}"))?;
    let args = RunArgs {
        seed: flags.get("seed", 1u64)?,
        seconds: flags.get("seconds", DEFAULT_SECONDS)?,
        trace: flags.get("trace", 0u8)? != 0,
    };
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err(format!("--seconds {} outside (0, 120]", args.seconds));
    }
    let mut report: Report = (workload.run)(&args);
    match peak_rss_mb() {
        Some(mb) => report.set("peak_rss_mb", mb, 1),
        None => report.fail("cannot read VmHWM from /proc/self/status"),
    }
    print!("{}", report.render_lines(workload.name));
    println!(
        "{}",
        report.render_json(if args.trace { PER_LAYER } else { END_TO_END })
    );
    Ok(if report.correct() && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn main() -> ExitCode {
    pin_malloc_arenas();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match args.first().map(String::as_str) {
        Some("all") => ("all", &args[1..]),
        Some("repeat") => ("repeat", &args[1..]),
        _ => ("run", &args[..]),
    };
    let outcome = Flags::parse(rest).and_then(|flags| match command {
        "all" => suite::all(
            flags.get("seed", 1u64)?,
            flags.get("seconds", DEFAULT_SECONDS)?,
        ),
        "repeat" => suite::repeat(
            flags.get("sets", 2usize)?,
            flags.get("runs", 10usize)?,
            flags.get("seed", 1u64)?,
            flags.get("seconds", DEFAULT_SECONDS)?,
        ),
        _ => run_one(&flags),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("rwc-benchmark: {message}");
            eprintln!(
                "usage: rwc-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>"
            );
            eprintln!("       rwc-benchmark all [--seed <n>] [--seconds <s>]");
            eprintln!(
                "       rwc-benchmark repeat [--sets 2] [--runs <n>] [--seed <n>] [--seconds <s>]"
            );
            eprintln!(
                "workloads: {}",
                WORKLOADS
                    .iter()
                    .map(|w| w.name)
                    .collect::<Vec<_>>()
                    .join(" ")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// ROADMAP item 3 wants to delete the mode enums and escape hatches;
    /// the benchmark must keep measuring the shipped default path without
    /// naming any of them, so that deletion never touches this package.
    #[test]
    fn sources_name_no_mode_enum_or_escape_hatch() {
        let banned: Vec<String> = [
            ["Gen", "Mode"],
            ["Analysis", "Mode"],
            ["Lp", "Backend"],
            ["full_", "rebuild"],
            ["set_full_", "rebuild"],
        ]
        .iter()
        .map(|p| p.concat())
        .collect();
        let banned_paths = [["te::", "exact"].concat(), ["exact", "::"].concat()];
        let src = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
        let mut stack = vec![src];
        let mut files = 0;
        while let Some(dir) = stack.pop() {
            for entry in std::fs::read_dir(dir).unwrap() {
                let path = entry.unwrap().path();
                if path.is_dir() {
                    stack.push(path);
                    continue;
                }
                files += 1;
                let text = std::fs::read_to_string(&path).unwrap();
                for token in text.split(|c: char| !(c.is_alphanumeric() || c == '_')) {
                    assert!(
                        !banned.iter().any(|b| b == token),
                        "{} names {token}",
                        path.display()
                    );
                }
                for p in &banned_paths {
                    assert!(!text.contains(p.as_str()), "{} names {p}", path.display());
                }
            }
        }
        assert!(files >= 8, "walked only {files} source files");
    }

    #[test]
    fn workload_table_meets_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        for w in WORKLOADS {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
        }
        let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(manifest).unwrap();
        for w in WORKLOADS {
            assert!(
                text.contains(&format!("\"name\": \"{}\"", w.name)),
                "{} not listed",
                w.name
            );
            assert!(
                text.contains(w.why),
                "{}: why differs from BENCHMARK.json",
                w.name
            );
        }
        assert!(text.contains(&format!("\"run_seconds\": {}", DEFAULT_SECONDS as u64)));
    }
}
