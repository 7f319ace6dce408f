//! The documents name files and experiment ids; these tests keep the names
//! real. Deliberately narrow: only what can be checked without judgement —
//! a backticked repository path exists, a file the results table lists is
//! there (or the row says it is not committed), an experiment id in the
//! README's table is one `repro` accepts.

use rwc_bench::experiments;
use std::path::{Path, PathBuf};

const DOCS: [&str; 4] = ["README.md", "EXPERIMENTS.md", "DESIGN.md", "results/README.md"];
const PATH_PREFIXES: [&str; 7] =
    ["crates/", "benchmark/", "results/", "tests/", "examples/", "vendor/", ".github/"];

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn read(doc: &str) -> String {
    let path = repo_root().join(doc);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// Inline code spans of a markdown document, fenced blocks skipped.
fn code_spans(text: &str) -> Vec<&str> {
    let mut spans = Vec::new();
    let mut fenced = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            spans.extend(line.split('`').skip(1).step_by(2));
        }
    }
    spans
}

/// First-column cells of the markdown table whose header row starts with
/// `header`, up to the first line that is not a table row.
fn first_column<'a>(text: &'a str, header: &str) -> Vec<(&'a str, &'a str)> {
    text.lines()
        .skip_while(|l| !l.starts_with(header))
        .skip(2)
        .take_while(|l| l.starts_with('|'))
        .map(|row| (row.split('|').nth(1).expect("row has a first cell").trim(), row))
        .collect()
}

#[test]
fn backticked_repo_paths_exist() {
    let root = repo_root();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for span in code_spans(&text) {
            if !PATH_PREFIXES.iter().any(|p| span.starts_with(p))
                || span.contains(['*', '{', '<', '…'])
            {
                continue;
            }
            // `tests/x.rs::some_test`, `crates/lp/src/revised.rs:120`.
            let path = span.split([':', ' ']).next().expect("split yields one item");
            checked += 1;
            if !root.join(path).exists() {
                missing.push(format!("{doc}: `{span}`"));
            }
        }
    }
    println!("docs: {checked} backticked paths checked");
    assert!(checked > 0, "the span scanner found nothing to check");
    assert!(missing.is_empty(), "documents name paths that do not exist:\n{}", missing.join("\n"));
}

#[test]
fn results_table_lists_files_that_are_there() {
    let text = read("results/README.md");
    let results = repo_root().join("results");
    let mut checked = 0;
    for (cell, row) in first_column(&text, "| file |") {
        for name in cell.split('`').skip(1).step_by(2) {
            checked += 1;
            assert!(
                results.join(name).exists() || row.contains("not committed"),
                "results/README.md lists `{name}`, which is neither in results/ nor marked \
                 \"not committed\""
            );
        }
    }
    println!("docs: {checked} results files checked");
    assert!(checked > 0, "results/README.md has no file table");
}

#[test]
fn readme_experiment_ids_are_ones_repro_accepts() {
    let text = read("README.md");
    let ids = first_column(&text, "| id |");
    for (id, _) in &ids {
        assert!(
            experiments::ALL.contains(id) || ["ablation", "chaos"].contains(id),
            "README.md's experiment table lists `{id}`, which `repro` does not run"
        );
    }
    println!("docs: {} experiment ids checked", ids.len());
    assert!(!ids.is_empty(), "README.md has no experiment table");
}
