//! In-memory span recorder for the traced run.
//!
//! Spans are taken from the benchmark's side of each layer boundary (the
//! program itself carries no spans yet): `{name, start_ns, end_ns, parent,
//! op_id}`, kept in a `Vec` and written to `benchmark/out/trace_<workload>.json`
//! after the timed region. A disabled tracer reads no clock, so the untraced
//! run pays one branch per call site.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Spans of one operation (link, round, solve) share this id.
    pub op_id: u64,
}

/// Span recorder; one per thread, merged with [`Tracer::absorb`].
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    last_closed: Option<usize>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`.
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Self {
            epoch,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            last_closed: None,
        }
    }

    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::new(Instant::now(), false)
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: &'static str, op_id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span and returns its duration in ns.
    pub fn end(&mut self) -> u64 {
        if !self.enabled {
            return 0;
        }
        let idx = self.open.pop().expect("end() without a matching begin()");
        let end_ns = self.now_ns();
        self.spans[idx].end_ns = end_ns;
        self.last_closed = Some(idx);
        end_ns - self.spans[idx].start_ns
    }

    /// Records an interval the program timed itself (`TeRound::solve_time`)
    /// as a child of the span closed last, from that span's start.
    pub fn nest_in_last(&mut self, name: &'static str, op_id: u64, duration: std::time::Duration) {
        let Some(parent) = self.last_closed.filter(|_| self.enabled) else {
            return;
        };
        let start_ns = self.spans[parent].start_ns;
        let end_ns = (start_ns + duration.as_nanos() as u64).min(self.spans[parent].end_ns);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent: Some(parent),
            op_id,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, op_id);
        let out = f();
        self.end();
        out
    }

    /// Appends another thread's spans (same epoch), re-basing parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span called `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Summed duration of the spans called `name`, per operation, in ns.
    pub fn per_op_ns(&self, name: &str) -> BTreeMap<u64, u64> {
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *out.entry(s.op_id).or_insert(0) += s.end_ns - s.start_ns;
        }
        out
    }

    /// Total duration per span name, in ns.
    pub fn totals_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut totals = BTreeMap::new();
        for s in &self.spans {
            *totals.entry(s.name).or_insert(0) += s.end_ns - s.start_ns;
        }
        totals
    }

    /// Self time per span name: each span's duration minus the part of it
    /// its direct children cover.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// Share of the span called `root` (first occurrence) that its direct
    /// children cover: how much of the traced wall time is attributed.
    pub fn coverage_of(&self, root: &str) -> f64 {
        let Some(idx) = self.spans.iter().position(|s| s.name == root) else {
            return 0.0;
        };
        let total = self.spans[idx].end_ns - self.spans[idx].start_ns;
        if total == 0 {
            return 0.0;
        }
        let children: u64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        children as f64 / total as f64
    }

    /// Writes the trace as one JSON document: the span list plus the
    /// per-name total and self times derived from it.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + 1024);
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"self_time_ns\":{{"
        )
        .ok();
        let totals = self.totals_ns();
        for (i, (name, self_ns)) in self.self_times_ns().iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            write!(
                out,
                "{sep}\"{name}\":{{\"self\":{self_ns},\"total\":{}}}",
                totals[name]
            )
            .ok();
        }
        out.push_str("},\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"op_id\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            )
            .ok();
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_coverage_counts_them() {
        let mut t = Tracer::new(Instant::now(), true);
        t.begin("root", 0);
        t.time("child", 1, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.time("child", 2, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        t.end();
        let totals = t.totals_ns();
        let selfs = t.self_times_ns();
        assert_eq!(selfs["child"], totals["child"], "leaves are all self time");
        assert_eq!(selfs["root"], totals["root"] - totals["child"]);
        assert!(t.coverage_of("root") > 0.5);
        assert_eq!(t.durations_us("child").len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        t.nest_in_last("inside", 0, std::time::Duration::from_millis(1));
        let inside = t.spans().last().unwrap();
        assert_eq!(
            (inside.parent, inside.start_ns),
            (Some(0), t.spans()[0].start_ns)
        );
        assert_eq!(inside.end_ns - inside.start_ns, 1_000_000);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.time("x", 0, || 7), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.time("a", 0, || ());
        let mut b = Tracer::new(epoch, true);
        b.begin("outer", 1);
        b.time("inner", 1, || ());
        b.end();
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
