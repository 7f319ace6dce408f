//! Experiment output plumbing.

use std::fmt::Write as _;
use std::path::Path;

/// How big to run the synthetic corpora.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Reduced fleet (fast; CI-friendly): 200 links over 120 days.
    Quick,
    /// Paper scale: 2,000 links over 2.5 years, 250 tickets over 7 months.
    Full,
    /// The paper fleet multiplied: `Scaled(n)` runs `n × 2,000` links at
    /// the full horizon (`repro --scale N`). Non-fleet experiments treat
    /// it as `Full` — the knob exists to stress the fleet pipeline, e.g.
    /// `--scale 10` for a 20,000-link sweep.
    Scaled(u32),
}

impl Scale {
    /// Fleet configuration at this scale.
    pub fn fleet(self) -> rwc_telemetry::FleetConfig {
        let mut cfg = rwc_telemetry::FleetConfig::paper();
        match self {
            Scale::Quick => {
                cfg.n_fibers = 5; // 200 links
                cfg.horizon = rwc_util::time::SimDuration::from_days(120);
            }
            Scale::Full => {}
            Scale::Scaled(n) => {
                assert!(n > 0, "--scale must be at least 1");
                cfg.n_fibers *= n as usize;
            }
        }
        cfg
    }

    /// Ticket-corpus configuration at this scale.
    pub fn tickets(self) -> rwc_failures::TicketConfig {
        let mut cfg = rwc_failures::TicketConfig::paper();
        if self == Scale::Quick {
            cfg.n_events = 250; // the paper's count is already cheap
        }
        cfg
    }

    /// Digest label: `quick`, `full`, or `fleet_x<N>`.
    pub fn label(self) -> String {
        match self {
            Scale::Quick => "quick".into(),
            Scale::Full => "full".into(),
            Scale::Scaled(n) => format!("fleet_x{n}"),
        }
    }
}

/// Output of one experiment: human-readable lines plus CSV artifacts.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Experiment id (e.g. "fig2a").
    pub id: String,
    /// One-line title.
    pub title: String,
    /// Printable findings.
    pub lines: Vec<String>,
    /// `(file name, contents)` CSV artifacts.
    pub csv: Vec<(String, String)>,
}

impl Report {
    /// Creates an empty report.
    pub fn new(id: &str, title: &str) -> Self {
        Self { id: id.into(), title: title.into(), ..Default::default() }
    }

    /// Appends a formatted line.
    pub fn line(&mut self, text: impl Into<String>) {
        self.lines.push(text.into());
    }

    /// Appends a CSV artifact.
    pub fn csv(&mut self, name: &str, content: String) {
        self.csv.push((name.into(), content));
    }

    /// Renders the report for the terminal.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "== {} — {} ==", self.id, self.title);
        for l in &self.lines {
            let _ = writeln!(out, "  {l}");
        }
        out
    }

    /// Writes CSV artifacts into `dir` (created if needed).
    pub fn write_csv(&self, dir: &Path) -> std::io::Result<Vec<String>> {
        std::fs::create_dir_all(dir)?;
        let mut written = Vec::new();
        for (name, content) in &self.csv {
            let path = dir.join(name);
            std::fs::write(&path, content)?;
            written.push(path.display().to_string());
        }
        Ok(written)
    }
}

/// Renders `(x, y)` series as a two-column CSV.
pub fn series_csv(header: &str, series: &[(f64, f64)]) -> String {
    let mut s = String::from(header);
    s.push('\n');
    for (x, y) in series {
        let _ = writeln!(s, "{x},{y}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_differ() {
        assert_eq!(Scale::Full.fleet().n_links(), 2000);
        assert_eq!(Scale::Quick.fleet().n_links(), 200);
        assert!(Scale::Quick.fleet().horizon < Scale::Full.fleet().horizon);
    }

    #[test]
    fn report_render() {
        let mut r = Report::new("figX", "demo");
        r.line("hello");
        let text = r.render();
        assert!(text.contains("figX"));
        assert!(text.contains("hello"));
    }

    #[test]
    fn csv_render() {
        let csv = series_csv("x,y", &[(1.0, 2.0), (3.0, 4.0)]);
        assert_eq!(csv, "x,y\n1,2\n3,4\n");
    }

    #[test]
    fn csv_write() {
        let dir = rwc_harness::ScratchDir::new("report_test").unwrap();
        let mut r = Report::new("t", "t");
        r.csv("a.csv", "x\n1\n".into());
        let written = r.write_csv(dir.path()).unwrap();
        assert_eq!(written.len(), 1);
        assert!(std::fs::read_to_string(&written[0]).unwrap().contains('1'));
    }
}
