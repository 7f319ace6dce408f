//! Metric catalogue and the per-run report.
//!
//! The two tables below are the single source of the metric names: a run
//! prints exactly these, `BENCHMARK.json` lists exactly these (a unit test
//! compares the two), and a workload that does not exercise a layer reports
//! that layer's metrics as 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One catalogue entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// "lower" or "higher".
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by which
    /// the metric may get worse before a change counts as a regression.
    pub bound: f64,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

const fn gated(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound,
    }
}

/// What a user of the system sees. An *op* is the workload's unit of work:
/// a link analysed (`serve_fleet`), an ingest becoming visible over HTTP
/// (`serve_paced`), a TE round (`control_*`), a TE solve (`te_sweep`).
///
/// The bounds are what the shared 2-core builder can hold, not what one
/// would like: the same deterministic pass takes ±8 % from one run to the
/// next there, so the timing metrics spread by about a tenth over ten runs
/// and are gated at 0.25; the peak RSS repeats to a few percent.
pub const END_TO_END: &[MetricDef] = &[
    gated("setup_s", "s", "lower", 0.25),
    gated("ops_per_s", "1/s", "higher", 0.25),
    gated("op_p50_ms", "ms", "lower", 0.25),
    gated("peak_rss_mb", "MiB", "lower", 0.1),
];

/// Single-layer diagnostics recorded by the traced run (no bound).
pub const PER_LAYER: &[MetricDef] = &[
    // The tail of the op latency: too few samples beyond it on the serve
    // workloads, and too noisy on a shared box, to gate.
    def("op_p99_ms", "ms", "lower"),
    def("op_max_ms", "ms", "lower"),
    def("readings_per_s", "1/s", "higher"),
    // telemetry
    def("telemetry.generate_ns_per_reading", "ns", "lower"),
    def("telemetry.analyze_ns_per_reading", "ns", "lower"),
    def("telemetry.accumulate_us_per_link", "us", "lower"),
    def("telemetry.small_link_us", "us", "lower"),
    def("telemetry.readings", "count", "higher"),
    def("telemetry.episodes", "count", "lower"),
    // serve
    def("serve.overhead_share", "ratio", "lower"),
    def("serve.ingest_call_us_p50", "us", "lower"),
    def("serve.inproc_visible_us_p50", "us", "lower"),
    def("serve.http.healthz_rtt_ms_p50", "ms", "lower"),
    def("serve.http.ingest_rtt_ms_p50", "ms", "lower"),
    def("serve.http.capacity_rtt_ms_p50", "ms", "lower"),
    def("serve.http.metrics_rtt_ms_p50", "ms", "lower"),
    def("serve.polls_per_link", "ratio", "lower"),
    def("serve.queue.offer_pop_ns", "ns", "lower"),
    def("serve.queue_depth_max", "count", "lower"),
    def("serve.drain_ms", "ms", "lower"),
    def("serve.two_shard_speedup", "ratio", "higher"),
    def("serve.http_requests", "count", "lower"),
    def("serve.checkpoints_written", "count", "lower"),
    def("serve.rejected", "count", "lower"),
    def("serve.shed", "count", "lower"),
    def("serve.duplicates", "count", "lower"),
    // harness
    def("harness.checkpoint_write_ms_p50", "ms", "lower"),
    def("harness.checkpoint_write_ms_max", "ms", "lower"),
    def("harness.checkpoint_bytes_total", "bytes", "lower"),
    // core
    def("core.sweep_us_p50", "us", "lower"),
    def("core.decide_ns", "ns", "lower"),
    def("core.te_round_ms_p50", "ms", "lower"),
    def("core.augment_us_p50", "us", "lower"),
    def("core.augment_incremental_us_p50", "us", "lower"),
    def("core.translate_us_p50", "us", "lower"),
    def("core.round_other_share", "ratio", "lower"),
    def("core.upgrades_committed", "count", "higher"),
    def("core.changes_failed", "count", "lower"),
    def("core.changes_rolled_back", "count", "lower"),
    def("core.update_plans", "count", "lower"),
    // te
    def("te.static_memo_hit_rate", "ratio", "higher"),
    def("te.augment.in_place_patches", "count", "higher"),
    def("te.augment.suffix_rebuilds", "count", "lower"),
    def("te.augment.full_rebuilds", "count", "lower"),
    def("te.lower_us_p50", "us", "lower"),
    def("te.extract_us_p50", "us", "lower"),
    def("te.plan_updates_us_p50", "us", "lower"),
    def("te.timeouts", "count", "lower"),
    def("te.solve_ms_p50.max-throughput", "ms", "lower"),
    def("te.solve_ms_p50.min-mlu", "ms", "lower"),
    def("te.solve_ms_p50.max-concurrent-flow", "ms", "lower"),
    def("te.solve_ms_p50.unsplittable", "ms", "lower"),
    def("te.solve_ms_p50.capacity-reduction", "ms", "lower"),
    // lp
    def("lp.solve_cold_us_p50", "us", "lower"),
    def("lp.solve_warm_us_p50", "us", "lower"),
    def("lp.pivots", "count", "lower"),
    def("lp.pivots_per_solve", "ratio", "lower"),
    def("lp.refactorizations", "count", "lower"),
    def("lp.eta_updates", "count", "lower"),
    def("lp.pricing_scans", "count", "lower"),
    def("lp.cold_solves", "count", "lower"),
    def("lp.warm_hit_rate", "ratio", "higher"),
    def("lp.watchdog_aborts", "count", "lower"),
    def("lp.lu_nnz", "count", "lower"),
    def("lp.eta_chain_len_max", "count", "lower"),
    def("lp.rows", "count", "lower"),
    def("lp.cols", "count", "lower"),
    def("lp.nnz", "count", "lower"),
    // optics
    def("optics.bvt_commits", "count", "higher"),
    def("optics.bvt_aborts", "count", "lower"),
    // the benchmark itself
    def("obs.trace_overhead_share", "ratio", "lower"),
    def("trace.coverage_share", "ratio", "higher"),
    def("loadgen.late_p50_ms", "ms", "lower"),
    def("loadgen.late_max_ms", "ms", "lower"),
    def("loadgen.achieved_rate", "1/s", "higher"),
    def("sys.available_parallelism", "count", "higher"),
];

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted / failed (rejected, never visible, fallback
    /// round, solver error or timeout, failed output check).
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means the run is correct.
    pub failures: Vec<String>,
    /// `name -> (value, sample count)` for both catalogues.
    values: BTreeMap<&'static str, (f64, usize)>,
    /// Counts taken at the workload's fixed prefix: they repeat exactly
    /// for a seed whatever the machine's speed.
    pub counts: Vec<(&'static str, u64)>,
}

impl Report {
    /// Records a metric; the name must be in one of the catalogues.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|d| d.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, (value, samples));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| v.0)
    }

    /// Notes a failed output check (also counted as a failed op by the
    /// caller where it maps to one).
    pub fn fail(&mut self, what: impl Into<String>) {
        if self.failures.len() < 16 {
            self.failures.push(what.into());
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// Human-readable lines: every recorded metric with unit and sample
    /// count, the prefix counts and the op ledger. `repeat`/`all` parse
    /// these lines back, so the format is fixed.
    pub fn render_lines(&self, workload: &str) -> String {
        let mut out = String::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            if let Some((value, n)) = self.values.get(d.name) {
                writeln!(out, "metric {workload} {} {value} {} n={n}", d.name, d.unit).ok();
            }
        }
        for (name, value) in &self.counts {
            writeln!(out, "count {workload} {name} {value}").ok();
        }
        let share = self.failed as f64 / self.attempted.max(1) as f64;
        writeln!(
            out,
            "ops {workload} attempted={} failed={} failed_share={share}",
            self.attempted, self.failed
        )
        .ok();
        for f in &self.failures {
            writeln!(out, "check {workload} FAILED: {f}").ok();
        }
        out
    }

    /// The contract's last line: `correct`, `attempted`, `failed` and every
    /// metric of `catalogue` (0 where the workload never touched the layer).
    pub fn render_json(&self, catalogue: &[MetricDef]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, d) in catalogue.iter().enumerate() {
            let value = self.values.get(d.name).map_or(0.0, |v| v.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
            .ok();
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "lower" || d.better == "higher");
        }
        assert!(END_TO_END.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        assert!(PER_LAYER.iter().all(|d| d.bound == 0.0));
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    /// `BENCHMARK.json` must list exactly the catalogue, in order.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str, next: &str| -> String {
            let start = text.find(&format!("\"{key}\"")).expect("section present");
            let end = text[start..]
                .find(&format!("\"{next}\""))
                .map_or(text.len(), |e| start + e);
            text[start..end].to_string()
        };
        for d in END_TO_END {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name, d.unit, d.better, d.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = |body: &str| -> Vec<(String, String, String)> {
            let field = |obj: &str, key: &str| -> String {
                let at = obj.find(&format!("\"{key}\"")).expect("field present");
                let rest = &obj[at + key.len() + 2..];
                let open = rest.find('"').unwrap();
                let close = rest[open + 1..].find('"').unwrap();
                rest[open + 1..open + 1 + close].to_string()
            };
            body.split('{')
                .skip(1)
                .filter(|o| o.contains("\"unit\""))
                .map(|o| (field(o, "name"), field(o, "unit"), field(o, "better")))
                .collect()
        };
        let want = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.into()))
                .collect()
        };
        assert_eq!(
            listed(&section("end_to_end", "per_layer")),
            want(END_TO_END)
        );
        assert_eq!(listed(&section("per_layer", "\u{0}")), want(PER_LAYER));
    }

    #[test]
    fn json_line_carries_every_catalogue_metric() {
        let mut r = Report {
            attempted: 3,
            ..Default::default()
        };
        r.set("ops_per_s", 12.5, 3);
        let json = r.render_json(END_TO_END);
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0"));
        for d in END_TO_END {
            assert!(json.contains(&format!("\"{}\": {{\"value\": ", d.name)));
        }
        assert!(json.contains("\"ops_per_s\": {\"value\": 12.5, \"unit\": \"1/s\"}"));
    }
}
