//! The LP model: a CSC matrix over bounded variables.
//!
//! The revised simplex in [`crate::revised`] consumes a [`SparseLp`]: a
//! compressed-sparse-column constraint matrix over *bounded* variables
//! (`0 ≤ x_j ≤ u_j`, with `u_j = ∞` allowed), built column by column with
//! [`SparseLpBuilder`]. It is the only model type. A constraint on one
//! variable is written as that variable's bound, not as a row: the TE
//! lowering gives a one-commodity flow column its edge's capacity as
//! `upper`, which keeps one row *and* one slack column per capacity out
//! of the basis the LU factorisation has to carry. Nothing rewrites rows
//! into bounds afterwards; there is no presolve.
//!
//! The per-column *pattern hashes* ([`SparseLp::column_pattern_hashes`])
//! are the mapped warm start's key: a saved basis is reusable when the
//! structural sparsity pattern of the common column prefix is unchanged,
//! which is what lets dirty-link augmentation (fake-edge columns appended
//! at the end) keep the factorisation instead of falling back cold.

/// Constraint relation of a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    /// `≤`
    Le,
    /// `=`
    Eq,
    /// `≥`
    Ge,
}

/// A compressed-sparse-column matrix.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CscMatrix {
    /// Number of rows.
    pub n_rows: usize,
    /// Number of columns.
    pub n_cols: usize,
    /// Column start offsets into `row_idx`/`values`; length `n_cols + 1`.
    pub col_ptr: Vec<usize>,
    /// Row index of each stored entry, ascending within a column.
    pub row_idx: Vec<usize>,
    /// Value of each stored entry.
    pub values: Vec<f64>,
}

impl CscMatrix {
    /// An empty matrix with `n_rows` rows and no columns yet.
    pub fn new(n_rows: usize) -> Self {
        Self { n_rows, n_cols: 0, col_ptr: vec![0], row_idx: Vec::new(), values: Vec::new() }
    }

    /// Appends one column given `(row, value)` entries. Entries must have
    /// ascending row indices; zero values may be included and are kept
    /// (the pattern, not the value, is the warm-start contract).
    pub fn push_col(&mut self, entries: &[(usize, f64)]) {
        let mut last: Option<usize> = None;
        for &(r, v) in entries {
            assert!(r < self.n_rows, "row {r} out of range ({} rows)", self.n_rows);
            assert!(last.is_none_or(|p| p < r), "rows must be strictly ascending");
            last = Some(r);
            self.row_idx.push(r);
            self.values.push(v);
        }
        self.n_cols += 1;
        self.col_ptr.push(self.row_idx.len());
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.row_idx.len()
    }

    /// The `(rows, values)` slices of column `j`.
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_idx[s..e], &self.values[s..e])
    }

    /// Hash of column `j`'s row-index pattern (values excluded:
    /// coefficient drift must not invalidate a warm start): one
    /// rotate-xor-multiply step per row index, seeded with the count.
    pub(crate) fn col_pattern_hash(&self, j: usize) -> u64 {
        let (rows, _) = self.col(j);
        rows.iter().fold(rows.len() as u64, |h, &r| {
            (h.rotate_left(5) ^ r as u64).wrapping_mul(0x517c_c1b7_2722_0a95)
        })
    }
}

/// A bounded-variable LP in computational form:
/// `max c·x  s.t.  A x {≤,=,≥} b,  0 ≤ x ≤ u` (`u_j = ∞` allowed).
#[derive(Debug, Clone, PartialEq)]
pub struct SparseLp {
    /// Objective coefficients, length `a.n_cols`.
    pub objective: Vec<f64>,
    /// Constraint matrix, `m × n`.
    pub a: CscMatrix,
    /// Relation per row.
    pub rel: Vec<Relation>,
    /// Right-hand side per row.
    pub rhs: Vec<f64>,
    /// Upper bound per variable (`f64::INFINITY` for unbounded).
    pub upper: Vec<f64>,
}

impl SparseLp {
    /// Number of decision variables.
    pub fn n_vars(&self) -> usize {
        self.a.n_cols
    }

    /// Number of constraint rows.
    pub fn n_rows(&self) -> usize {
        self.a.n_rows
    }

    /// Validates dimensional consistency, finiteness and bound signs.
    pub fn validate(&self) -> Result<(), String> {
        if self.a.n_cols == 0 {
            return Err("LP with no variables".into());
        }
        if self.objective.len() != self.a.n_cols {
            return Err("objective length != column count".into());
        }
        if self.rel.len() != self.a.n_rows || self.rhs.len() != self.a.n_rows {
            return Err("row metadata length != row count".into());
        }
        if self.upper.len() != self.a.n_cols {
            return Err("bound length != column count".into());
        }
        if self.objective.iter().any(|c| !c.is_finite()) {
            return Err("non-finite objective coefficient".into());
        }
        if self.a.values.iter().any(|v| !v.is_finite()) {
            return Err("non-finite matrix entry".into());
        }
        if self.rhs.iter().any(|b| !b.is_finite()) {
            return Err("non-finite rhs".into());
        }
        if self.upper.iter().any(|&u| u.is_nan() || u < 0.0) {
            return Err("upper bound negative or NaN".into());
        }
        Ok(())
    }

    /// Per-column pattern hashes — the structural-sparsity warm-start key.
    pub fn column_pattern_hashes(&self) -> Vec<u64> {
        (0..self.a.n_cols).map(|j| self.a.col_pattern_hash(j)).collect()
    }
}

/// Incremental [`SparseLp`] construction: rows are declared up front,
/// columns appended with their objective coefficient, upper bound and
/// entries. The TE lowering builds its LP edge-major with it.
#[derive(Debug, Clone)]
pub struct SparseLpBuilder {
    m: usize,
    objective: Vec<f64>,
    upper: Vec<f64>,
    a: CscMatrix,
    rel: Vec<Relation>,
    rhs: Vec<f64>,
}

impl SparseLpBuilder {
    /// A builder for a program with exactly `n_rows` constraint rows; row
    /// relations/rhs are declared up front via [`Self::set_row`], columns
    /// appended via [`Self::push_col`].
    pub fn new(n_rows: usize) -> Self {
        Self {
            m: n_rows,
            objective: Vec::new(),
            upper: Vec::new(),
            a: CscMatrix::new(n_rows),
            rel: vec![Relation::Le; n_rows],
            rhs: vec![0.0; n_rows],
        }
    }

    /// Declares row `r`'s relation and rhs.
    pub fn set_row(&mut self, r: usize, rel: Relation, rhs: f64) {
        self.rel[r] = rel;
        self.rhs[r] = rhs;
    }

    /// Appends a column with the given objective coefficient, upper bound
    /// and `(row, value)` entries (ascending rows); returns its index.
    pub fn push_col(&mut self, objective: f64, upper: f64, entries: &[(usize, f64)]) -> usize {
        self.objective.push(objective);
        self.upper.push(upper);
        self.a.push_col(entries);
        self.a.n_cols - 1
    }

    /// Finalises the program.
    pub fn build(self) -> SparseLp {
        debug_assert_eq!(self.a.n_rows, self.m);
        let lp = SparseLp {
            objective: self.objective,
            a: self.a,
            rel: self.rel,
            rhs: self.rhs,
            upper: self.upper,
        };
        debug_assert!(lp.validate().is_ok(), "builder produced an invalid LP");
        lp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_hash_ignores_values_tracks_rows() {
        let mut a = CscMatrix::new(4);
        a.push_col(&[(0, 1.0), (2, -1.0)]);
        a.push_col(&[(0, 7.0), (2, 3.5)]);
        a.push_col(&[(0, 1.0), (3, -1.0)]);
        assert_eq!(a.col_pattern_hash(0), a.col_pattern_hash(1));
        assert_ne!(a.col_pattern_hash(0), a.col_pattern_hash(2));
    }

    #[test]
    fn builder_roundtrip() {
        let mut b = SparseLpBuilder::new(2);
        b.set_row(0, Relation::Eq, 0.0);
        b.set_row(1, Relation::Le, 5.0);
        let c0 = b.push_col(1.0, 10.0, &[(0, 1.0), (1, 1.0)]);
        let c1 = b.push_col(-0.5, f64::INFINITY, &[(0, -1.0)]);
        assert_eq!((c0, c1), (0, 1));
        let lp = b.build();
        lp.validate().unwrap();
        assert_eq!(lp.n_vars(), 2);
        assert_eq!(lp.a.nnz(), 3);
    }

    #[test]
    #[should_panic]
    fn unsorted_rows_rejected() {
        let mut a = CscMatrix::new(3);
        a.push_col(&[(2, 1.0), (0, 1.0)]);
    }
}
