//! The documents name files, Rust items and experiment ids; these tests
//! keep the names real. Deliberately narrow: only what can be checked
//! without judgement — a backticked repository path exists, a backticked
//! `Type::name` still names a type and a member the sources define, a
//! backticked `snake_case` name still occurs in some source, a backticked
//! dotted metric name or `--flag` is still a string some source spells
//! out, a file the results table lists is there (or the row says it is not
//! committed), an experiment id in the README's table is one `repro`
//! accepts. Code spans pair within a paragraph, so one that wraps a line
//! is checked like any other.

use rwc_bench::experiments;
use std::collections::HashSet;
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

/// The paragraphs of a markdown document outside fenced blocks: runs of
/// lines up to a blank line or a fence, each line trimmed, joined by `\n`.
fn paragraphs(text: &str) -> Vec<String> {
    let mut paragraphs = vec![String::new()];
    let mut fenced = false;
    for line in text.lines() {
        let fence = line.trim_start().starts_with("```");
        if fence || line.trim().is_empty() {
            paragraphs.push(String::new());
            fenced ^= fence;
        } else if !fenced {
            let paragraph = paragraphs.last_mut().expect("starts with one");
            if !paragraph.is_empty() {
                paragraph.push('\n');
            }
            paragraph.push_str(line.trim());
        }
    }
    paragraphs.retain(|p| !p.is_empty());
    paragraphs
}

/// Inline code spans of a markdown document, fenced blocks skipped. A span
/// may wrap a line, so backticks pair within a paragraph, and a line break
/// inside a span reads as one space, as markdown renders it.
fn code_spans(text: &str) -> Vec<String> {
    paragraphs(text)
        .iter()
        .flat_map(|p| p.split('`').skip(1).step_by(2).map(|span| span.replace('\n', " ")))
        .collect()
}

#[test]
fn code_spans_pair_within_paragraphs() {
    let text = "a `x` b `wraps\n  a line` c\n\n`y`\n```sh\necho `z`\n```\n`w` and `v`";
    assert_eq!(code_spans(text), ["x", "wraps a line", "y", "w", "v"]);
    let mut unpaired = Vec::new();
    for doc in DOCS {
        let paragraphs = paragraphs(&read(doc));
        let (mut spans, mut wrapped) = (0, 0);
        for p in &paragraphs {
            if p.matches('`').count() % 2 == 1 {
                unpaired.push(format!("{doc}: {}", p.lines().next().expect("non-empty")));
            }
            for span in p.split('`').skip(1).step_by(2) {
                spans += 1;
                wrapped += usize::from(span.contains('\n'));
            }
        }
        println!("docs: {doc}: {spans} code spans, {wrapped} of them wrap a line");
    }
    assert!(
        unpaired.is_empty(),
        "paragraphs with an unpaired backtick (first line shown):\n{}",
        unpaired.join("\n")
    );
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
        for span in &code_spans(&text) {
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

/// Adds the path of every `.rs` file under `dir` to `files`.
fn collect_rust_files(dir: &Path, files: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            collect_rust_files(&path, files);
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
}

/// Adds the text of every `.rs` file under `dir` to `sources`.
fn collect_sources(dir: &Path, sources: &mut Vec<String>) {
    let mut files = Vec::new();
    collect_rust_files(dir, &mut files);
    sources.extend(files.iter().map(|f| std::fs::read_to_string(f).expect("source file")));
}

/// Adds every identifier-like word (string contents included) of every
/// `.rs` file under `dir` to `idents`.
fn collect_identifiers(dir: &Path, idents: &mut HashSet<String>) {
    let mut sources = Vec::new();
    collect_sources(dir, &mut sources);
    for text in &sources {
        idents.extend(
            text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
                .filter(|w| !w.is_empty())
                .map(str::to_owned),
        );
    }
}

/// Every identifier that occurs in a `.rs` file under `crates/*/src`.
fn source_identifiers() -> HashSet<String> {
    let mut idents = HashSet::new();
    let crates = repo_root().join("crates");
    for entry in std::fs::read_dir(&crates).expect("crates/") {
        let src = entry.expect("directory entry").path().join("src");
        if src.is_dir() {
            collect_identifiers(&src, &mut idents);
        }
    }
    idents
}

/// `Type::name` or `Type::name()`: a capitalised identifier, `::`, and an
/// identifier. Anything else (paths, generics, arguments) is not checked.
fn type_member(span: &str) -> Option<(&str, &str)> {
    let (ty, name) = span.strip_suffix("()").unwrap_or(span).split_once("::")?;
    let ident = |s: &str| {
        !s.is_empty()
            && !s.starts_with(|c: char| c.is_ascii_digit())
            && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
    };
    (ty.starts_with(|c: char| c.is_ascii_uppercase()) && ident(ty) && ident(name))
        .then_some((ty, name))
}

#[test]
fn backticked_rust_paths_exist() {
    let idents = source_identifiers();
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for (ty, name) in code_spans(&text).iter().filter_map(|s| type_member(s)) {
            checked += 1;
            if !idents.contains(ty) || !idents.contains(name) {
                missing.push(format!("{doc}: `{ty}::{name}`"));
            }
        }
    }
    println!("docs: {checked} backticked Type::name spans checked");
    assert!(checked > 0, "the span scanner found no Type::name to check");
    assert!(
        missing.is_empty(),
        "documents name Rust items the sources no longer define:\n{}",
        missing.join("\n")
    );
}

/// `snake_case` or `snake_case()`: lowercase ASCII, digits and at least
/// one `_`, so that plain words in backticks are not taken for names.
fn snake_case(span: &str) -> Option<&str> {
    let name = span.strip_suffix("()").unwrap_or(span);
    (name.starts_with(|c: char| c.is_ascii_lowercase())
        && name.contains('_')
        && name.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'))
    .then_some(name)
}

#[test]
fn backticked_identifiers_exist() {
    // Functions, fields and tests live under the Rust trees; workload and
    // metric names are strings in `benchmark/src/`.
    let mut idents = HashSet::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        collect_identifiers(&repo_root().join(dir), &mut idents);
    }
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for name in code_spans(&text).iter().filter_map(|s| snake_case(s)) {
            checked += 1;
            if !idents.contains(name) {
                missing.push(format!("{doc}: `{name}`"));
            }
        }
    }
    println!("docs: {checked} backticked snake_case names checked");
    assert!(checked > 0, "the span scanner found no snake_case name to check");
    assert!(
        missing.is_empty(),
        "documents name identifiers no source contains:\n{}",
        missing.join("\n")
    );
}

/// `seg::seg[::seg…]` or the same with `()`: two or more lowercase
/// identifiers joined by `::`, outside `std::`. Returns the last segment.
fn module_path(span: &str) -> Option<&str> {
    let path = span.strip_suffix("()").unwrap_or(span);
    let segments: Vec<&str> = path.split("::").collect();
    let well_formed = segments.len() > 1
        && segments.iter().all(|s| {
            s.starts_with(|c: char| c.is_ascii_lowercase() || c == '_')
                && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        });
    (well_formed && segments[0] != "std").then(|| *segments.last().expect("two or more"))
}

#[test]
fn backticked_module_paths_exist() {
    // What a path's last segment can name: a `fn`, a `mod`, or a
    // `<segment>.rs` file of the Rust trees.
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        collect_rust_files(&repo_root().join(dir), &mut files);
    }
    let mut defined: HashSet<String> = HashSet::new();
    for file in &files {
        defined.extend(file.file_stem().and_then(|s| s.to_str()).map(str::to_owned));
        let text = std::fs::read_to_string(file).expect("source file");
        let words: Vec<&str> = text
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
            .filter(|w| !w.is_empty())
            .collect();
        for pair in words.windows(2) {
            if pair[0] == "fn" || pair[0] == "mod" {
                defined.insert(pair[1].to_owned());
            }
        }
    }
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for span in &code_spans(&text) {
            if let Some(last) = module_path(span) {
                checked += 1;
                if !defined.contains(last) {
                    missing.push(format!("{doc}: `{span}`"));
                }
            }
        }
    }
    println!("docs: {checked} backticked module paths checked");
    assert!(checked > 0, "the span scanner found no module path to check");
    assert!(
        missing.is_empty(),
        "documents name module paths whose last segment is no fn, mod or file:\n{}",
        missing.join("\n")
    );
}

/// The `"name"` values of `BENCHMARK.json`: its workloads and metrics.
fn benchmark_names() -> Vec<String> {
    read("BENCHMARK.json")
        .split("\"name\"")
        .skip(1)
        .filter_map(|rest| {
            let value = rest.trim_start_matches([' ', ':']).strip_prefix('"')?;
            value.split('"').next().map(str::to_owned)
        })
        .collect()
}

/// A dotted metric name: `^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`, not ending
/// in a file extension, whose first segment is in `namespaces`.
fn dotted_metric<'a>(span: &'a str, namespaces: &HashSet<&str>) -> Option<&'a str> {
    const EXTENSIONS: [&str; 9] = ["rs", "md", "csv", "json", "toml", "dot", "txt", "lock", "ckpt"];
    let segments: Vec<&str> = span.split('.').collect();
    let well_formed = segments.len() > 1
        && span.starts_with(|c: char| c.is_ascii_lowercase())
        && segments.iter().all(|s| {
            !s.is_empty()
                && s.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
        });
    (well_formed
        && !EXTENSIONS.contains(segments.last().expect("split yields one item"))
        && namespaces.contains(segments[0]))
    .then_some(span)
}

#[test]
fn backticked_metric_names_exist() {
    // A metric namespace is the first segment of a dotted name the
    // catalogue registers or the benchmark reports.
    let bench = benchmark_names();
    let names = rwc_obs::names::COUNTERS
        .iter()
        .chain(rwc_obs::names::GAUGES)
        .chain(rwc_obs::names::HISTOGRAMS)
        .copied()
        .chain(bench.iter().map(String::as_str));
    let namespaces: HashSet<&str> =
        names.filter_map(|name| name.split_once('.')).map(|(ns, _)| ns).collect();
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        collect_sources(&repo_root().join(dir), &mut sources);
    }
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for name in code_spans(&text).iter().filter_map(|s| dotted_metric(s, &namespaces)) {
            checked += 1;
            let literal = format!("\"{name}\"");
            if !sources.iter().any(|source| source.contains(&literal)) {
                missing.push(format!("{doc}: `{name}`"));
            }
        }
    }
    println!("docs: {checked} backticked metric names checked");
    assert!(checked > 0, "the span scanner found no metric name to check");
    assert!(
        missing.is_empty(),
        "documents name metrics no source spells out as a string:\n{}",
        missing.join("\n")
    );
}

/// Flags that cargo and libtest parse, not this repository's programs.
const CARGO_FLAGS: [&str; 6] =
    ["--locked", "--offline", "--release", "--nocapture", "--test-threads", "--manifest-path"];

/// The flag a span starts with: its first word, up to any `=`, when that
/// begins with `--`.
fn leading_flag(span: &str) -> Option<&str> {
    let word = span.split_whitespace().next()?;
    let flag = word.split('=').next().expect("split yields one item");
    (flag.len() > 2 && flag.starts_with("--")).then_some(flag)
}

#[test]
fn backticked_flags_exist() {
    let mut sources = Vec::new();
    for dir in ["crates", "src", "tests", "examples", "benchmark/src"] {
        collect_sources(&repo_root().join(dir), &mut sources);
    }
    let mut checked = 0;
    let mut missing = Vec::new();
    for doc in DOCS {
        let text = read(doc);
        for flag in code_spans(&text).iter().filter_map(|s| leading_flag(s)) {
            if CARGO_FLAGS.contains(&flag) {
                continue;
            }
            checked += 1;
            let literal = format!("\"{flag}\"");
            if !sources.iter().any(|source| source.contains(&literal)) {
                missing.push(format!("{doc}: `{flag}`"));
            }
        }
    }
    println!("docs: {checked} backticked flags checked");
    assert!(checked > 0, "the span scanner found no flag to check");
    assert!(
        missing.is_empty(),
        "documents name flags no source spells out as a string:\n{}",
        missing.join("\n")
    );
}

#[test]
fn results_table_lists_files_that_are_there() {
    let text = read("results/README.md");
    let results = repo_root().join("results");
    let mut listed = HashSet::new();
    for (cell, row) in first_column(&text, "| file |") {
        for name in cell.split('`').skip(1).step_by(2) {
            listed.insert(name);
            assert!(
                results.join(name).exists() || row.contains("not committed"),
                "results/README.md lists `{name}`, which is neither in results/ nor marked \
                 \"not committed\""
            );
        }
    }
    // And the other way: every file in results/ has a row.
    let mut files = 0;
    for entry in std::fs::read_dir(&results).expect("results/") {
        let name = entry.expect("directory entry").file_name();
        let name = name.to_str().expect("UTF-8 file name");
        if name != "README.md" {
            files += 1;
            assert!(listed.contains(name), "results/{name} has no row in results/README.md");
        }
    }
    println!("docs: {} results rows checked against {files} files", listed.len());
    assert!(!listed.is_empty(), "results/README.md has no file table");
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
