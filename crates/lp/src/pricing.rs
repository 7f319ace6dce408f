//! Candidate-list (partial) pricing for the revised simplex.
//!
//! Full Dantzig pricing scans every nonbasic column per pivot — O(nnz)
//! work that dwarfs the ftran/btran cost on large TE programs. Partial
//! pricing keeps a small *candidate list* of recently attractive columns:
//! each pivot re-prices only the list (the multipliers `y` change every
//! pivot, so cached reduced costs are stale by construction — but the
//! *set* of attractive columns drifts slowly), and only when the list
//! goes dry does a cyclic section scan over all columns refill it. The
//! scan cursor persists across refills so every column is examined
//! periodically — combined with the driver's Bland fallback this keeps
//! the termination guarantees of full pricing while touching a fraction
//! of the matrix per pivot.

/// Columns collected per refill before the section scan stops early.
const REFILL_TARGET: usize = 64;
/// Columns examined per section; a refill always finishes its section so
/// the cursor advances in fixed strides.
const SECTION: usize = 256;

/// Reusable candidate-list state. The driver owns eligibility (bounds,
/// enterability, reduced-cost sign) and passes it in as a closure that
/// returns the violation magnitude of an eligible column.
#[derive(Debug, Clone, Default)]
pub(crate) struct CandidateList {
    candidates: Vec<usize>,
    /// The next column a refill examines; below the column count, which
    /// stays fixed between `invalidate` calls.
    cursor: usize,
    /// Cyclic refill scans performed (drained into `SolverStats`).
    pub scans: u64,
}

impl CandidateList {
    /// Drops the retained candidates (phase switch, refactorisation with
    /// changed costs, warm-start reload — anything that invalidates the
    /// attractiveness the list encodes).
    pub fn invalidate(&mut self) {
        self.candidates.clear();
        self.cursor = 0;
    }

    /// Picks the entering column: the retained list first, cyclic section
    /// scans when it runs dry. Returns `None` only after a full wrap
    /// found no eligible column — which certifies optimality under the
    /// caller's eligibility predicate.
    pub fn select(
        &mut self,
        n_cols: usize,
        mut eligible: impl FnMut(usize) -> Option<f64>,
    ) -> Option<usize> {
        // Re-price the retained candidates against the current
        // multipliers; drop the ones that went sour.
        let mut best: Option<(f64, usize)> = None;
        self.candidates.retain(|&j| match eligible(j) {
            Some(v) => {
                if best.is_none_or(|(bv, _)| v > bv) {
                    best = Some((v, j));
                }
                true
            }
            None => false,
        });
        if let Some((_, j)) = best {
            return Some(j);
        }
        // Refill: cyclic section scan from the persistent cursor.
        self.scans += 1;
        let mut examined = 0;
        while examined < n_cols {
            let section_end = (examined + SECTION).min(n_cols);
            while examined < section_end {
                let j = self.cursor;
                self.cursor += 1;
                if self.cursor == n_cols {
                    self.cursor = 0;
                }
                examined += 1;
                if let Some(v) = eligible(j) {
                    self.candidates.push(j);
                    if best.is_none_or(|(bv, _)| v > bv) {
                        best = Some((v, j));
                    }
                }
            }
            if self.candidates.len() >= REFILL_TARGET {
                break;
            }
        }
        best.map(|(_, j)| j)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_max_violation_within_refill() {
        let mut cl = CandidateList::default();
        let viol = [0.0, 3.0, 1.0, 7.0, 0.0];
        let pick = cl.select(5, |j| (viol[j] > 0.0).then_some(viol[j]));
        assert_eq!(pick, Some(3));
        assert_eq!(cl.scans, 1);
    }

    #[test]
    fn retained_candidates_avoid_rescan() {
        let mut cl = CandidateList::default();
        let viol = [0.0, 3.0, 1.0, 7.0, 0.0];
        cl.select(5, |j| (viol[j] > 0.0).then_some(viol[j]));
        // Second select with the same eligibility: served from the list.
        let pick = cl.select(5, |j| (viol[j] > 0.0).then_some(viol[j]));
        assert_eq!(pick, Some(3));
        assert_eq!(cl.scans, 1, "no rescan while the list is warm");
    }

    #[test]
    fn dry_list_triggers_rescan_and_certifies_optimality() {
        let mut cl = CandidateList::default();
        let viol = [0.0, 3.0];
        cl.select(2, |j| (viol[j] > 0.0).then_some(viol[j]));
        assert_eq!(cl.select(2, |_| None), None);
        assert_eq!(cl.scans, 2);
    }

    #[test]
    fn cursor_cycles_through_large_column_sets() {
        let mut cl = CandidateList::default();
        let n = 10 * SECTION;
        // Only one eligible column, far from the start: cyclic scan must
        // keep going past the refill target (nothing collected) until it
        // finds it.
        let target = 7 * SECTION + 13;
        let pick = cl.select(n, |j| (j == target).then_some(1.0));
        assert_eq!(pick, Some(target));
    }
}
