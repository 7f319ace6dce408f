//! Human-readable console output.

use crate::event::Event;
use crate::observer::Observer;

/// The `repro` CLI's output channel: progress lines that `--quiet`
/// suppresses, result lines that always print, and (as an [`Observer`]
/// event sink) a pretty-printer for the salient events — quarantines,
/// aborted reconfigurations, cold LP fallbacks. Attach it as the forward
/// sink of a [`crate::MetricsObserver`] to echo those while collecting.
#[derive(Debug, Clone, Copy)]
pub struct ConsoleSink {
    quiet: bool,
}

impl ConsoleSink {
    /// A sink; `quiet` suppresses progress lines and event echoes.
    pub fn new(quiet: bool) -> Self {
        Self { quiet }
    }

    /// Whether progress output is suppressed.
    pub fn is_quiet(&self) -> bool {
        self.quiet
    }

    /// Prints a progress line (status, per-file notices) unless quiet.
    pub fn progress(&self, msg: &str) {
        if !self.quiet {
            println!("{msg}");
        }
    }

    /// Prints a result line (experiment findings, digests) — always.
    pub fn result(&self, msg: &str) {
        println!("{msg}");
    }

    /// Prints an error to stderr — always.
    pub fn error(&self, msg: &str) {
        eprintln!("{msg}");
    }
}

impl Observer for ConsoleSink {
    fn event(&self, event: &Event) {
        if self.quiet {
            return;
        }
        // Only the operator-salient transitions; per-solve and per-episode
        // events would flood a terminal at fleet scale.
        match event {
            Event::ReconfigAborted { link, to_gbps, rolled_back } => {
                println!(
                    "  [obs] reconfig aborted: link {link} -> {to_gbps} G (rolled back: {rolled_back})"
                );
            }
            Event::Quarantine { link, until_millis } => {
                println!("  [obs] link {link} quarantined until t={until_millis}ms");
            }
            Event::ColdFallback { pivots, reason } => {
                println!("  [obs] warm LP fell back cold ({pivots} pivots, {reason:?})");
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_flag_is_visible() {
        assert!(ConsoleSink::new(true).is_quiet());
        assert!(!ConsoleSink::new(false).is_quiet());
    }

    #[test]
    fn event_echo_does_not_panic() {
        let s = ConsoleSink::new(true);
        s.event(&Event::Quarantine { link: 1, until_millis: 2 });
        s.event(&Event::WarmSolve { pivots: 1 });
    }
}
