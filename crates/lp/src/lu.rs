//! Sparse LU factorisation of the simplex basis, with product-form eta
//! updates between refactorisations.
//!
//! The factorisation is left-looking Gilbert–Peierls: each basis column is
//! solved against the partially built `L` (the nonzero pattern found by a
//! depth-first reach over `L`'s graph, so work is proportional to entries
//! touched, not to `m`), then a pivot row is chosen by *threshold*
//! pivoting with a Markowitz-style tie-break — among candidate rows whose
//! magnitude is within [`PIVOT_THRESHOLD`] of the column maximum, prefer
//! the row that appears in the fewest basis columns, trading a bounded
//! amount of numerical slack for less fill-in. Columns are eliminated in
//! ascending-nnz order (static approximate minimum degree) for the same
//! reason.
//!
//! Between refactorisations, basis changes are absorbed as *product-form
//! eta* updates ([`Eta`]): replacing the column in basis slot `p` by a
//! column with ftran image `d` multiplies `B` by an elementary matrix
//! `E = I + (d - e_p)·e_pᵀ`, so `B⁻¹` picks up one sparse rank-one
//! correction per pivot instead of a full refactorisation. `ftran`
//! applies etas oldest→newest after the LU solve; `btran` applies them
//! newest→oldest before it. The eta file is capped by the driver (see
//! `revised.rs` — [`crate::revised`]) which refactorises when the chain
//! gets long enough that accumulated fill or drift would cost more than
//! a fresh factorisation.
//!
//! `ftran` is hypersparse: an entering column's image is a few percent
//! nonzero on the TE programs, so the triangular solves visit only the
//! steps the right-hand side reaches. A bit set over the steps is the
//! frontier, seeded from the rhs's nonzero rows. The L solve walks it
//! ascending and marks the step of every row it updates; L's column `k`
//! holds rows eliminated after step `k`, so a mark lands ahead of the
//! cursor and the walk re-reads the current word after each step. The U
//! solve walks it descending; U's column `k` holds earlier steps, so its
//! marks land below the cursor. No depth-first search and no sort. Each
//! reached step does the dense solve's arithmetic in the dense order,
//! and a slot no step reaches gets the signed zero the dense solve
//! leaves there, `0.0 / u_diag[k]` (a zero template built by
//! `factorize`), so the image equals the dense one bit for bit, signs of
//! zeros included. `btran` stays dense.

/// Threshold-pivoting slack: candidate pivot rows must be within this
/// factor of the column's max magnitude. 1.0 would be strict partial
/// pivoting (numerically safest, most fill); industrial codes run 0.1 or
/// less — 0.25 is conservative for the mildly scaled TE bases here.
const PIVOT_THRESHOLD: f64 = 0.25;
/// Below this magnitude a pivot column is declared singular.
const SINGULAR_TOL: f64 = 1e-10;
/// Entries smaller than this are dropped from L/U and eta columns; keeps
/// cancellation dust from inflating the factors.
const DROP_TOL: f64 = 1e-13;

/// One product-form eta: `B_new = B_old · E` with `E`'s column `slot`
/// equal to `d` (the ftran image of the entering column).
#[derive(Debug, Clone)]
pub(crate) struct Eta {
    /// Basis slot the entering column replaced.
    pub slot: usize,
    /// Off-pivot entries of `d`, in slot space.
    pub d: Vec<(usize, f64)>,
    /// The pivot entry `d[slot]` (magnitude ≥ the driver's pivot tol).
    pub dp: f64,
}

impl Eta {
    /// Applies `E⁻¹` in place (ftran direction), slot space, marking in
    /// `nz` every slot it updates. `x[slot]` ends nonzero only if it
    /// started so, and then it is marked already.
    pub fn ftran(&self, x: &mut [f64], nz: &mut [u64]) {
        let xp = x[self.slot] / self.dp;
        if xp != 0.0 {
            for &(i, di) in &self.d {
                x[i] -= di * xp;
                set_bit(nz, i);
            }
        }
        x[self.slot] = xp;
    }

    /// Applies `E⁻ᵀ` in place (btran direction), slot space.
    pub fn btran(&self, y: &mut [f64]) {
        let mut acc = y[self.slot];
        for &(i, di) in &self.d {
            acc -= di * y[i];
        }
        y[self.slot] = acc / self.dp;
    }
}

/// Sparse LU factors of the basis matrix `B` (columns indexed by basis
/// *slot*, rows by original row index).
///
/// `L` is unit lower triangular in elimination order: column `k` stores
/// the multipliers at the original rows eliminated after step `k`. `U` is
/// upper triangular in step space: column `k` stores entries at earlier
/// steps plus the diagonal. `pivot_row` / `col_order` are the row/column
/// permutations.
#[derive(Debug, Clone, Default)]
pub(crate) struct LuFactors {
    m: usize,
    l_colptr: Vec<usize>,
    l_row: Vec<usize>,
    l_val: Vec<f64>,
    u_colptr: Vec<usize>,
    u_step: Vec<usize>,
    u_val: Vec<f64>,
    u_diag: Vec<f64>,
    /// step → original row chosen as pivot.
    pivot_row: Vec<usize>,
    /// original row → step (usize::MAX until assigned).
    row_step: Vec<usize>,
    /// step → basis slot eliminated at that step.
    col_order: Vec<usize>,
    /// The signed zero a dense ftran leaves in each slot its rhs does not
    /// reach: `0.0 / u_diag[k]` at slot `col_order[k]`.
    zero_slots: Vec<f64>,
    // --- ftran scratch, zero between calls ------------------------------
    /// The image in step space.
    ftran_steps: Vec<f64>,
    /// The frontier: one bit per step the solve reaches.
    frontier: Vec<u64>,
    // --- factorisation scratch (kept to amortise allocation) ----------
    work: Vec<f64>,
    mark: Vec<u32>,
    mark_gen: u32,
    dfs_stack: Vec<(usize, usize)>,
    topo: Vec<usize>,
    row_count: Vec<usize>,
}

impl LuFactors {
    /// Stored entries in `L` + `U` (diagonal included).
    pub fn nnz(&self) -> usize {
        self.l_row.len() + self.u_step.len() + self.m
    }

    /// Factorises the `m × m` basis given in CSC form (`cols` indexed by
    /// slot). Returns `Err(())` when the basis is numerically singular.
    pub fn factorize(
        &mut self,
        m: usize,
        colptr: &[usize],
        rows: &[usize],
        vals: &[f64],
    ) -> Result<(), ()> {
        self.m = m;
        self.l_colptr.clear();
        self.l_row.clear();
        self.l_val.clear();
        self.u_colptr.clear();
        self.u_step.clear();
        self.u_val.clear();
        self.u_diag.clear();
        self.l_colptr.push(0);
        self.u_colptr.push(0);
        self.pivot_row.clear();
        self.row_step.clear();
        self.row_step.resize(m, usize::MAX);
        self.col_order.clear();
        self.work.clear();
        self.work.resize(m, 0.0);
        self.mark.clear();
        self.mark.resize(m, 0);
        self.mark_gen = 0;

        // Static approximate Markowitz: eliminate thin columns first, and
        // prefer pivot rows that appear in few columns of B.
        self.row_count.clear();
        self.row_count.resize(m, 0);
        for &r in rows {
            self.row_count[r] += 1;
        }
        let mut order: Vec<usize> = (0..m).collect();
        order.sort_by_key(|&s| colptr[s + 1] - colptr[s]);

        for (step, &slot) in order.iter().enumerate() {
            let (cs, ce) = (colptr[slot], colptr[slot + 1]);
            // Symbolic: reach of the column's pattern over L's graph, in
            // topological order (ancestors first).
            self.mark_gen += 1;
            self.topo.clear();
            for &r in &rows[cs..ce] {
                if self.mark[r] != self.mark_gen {
                    self.dfs(r);
                }
            }
            // Numeric: scatter, then eliminate along the reach.
            for (&r, &v) in rows[cs..ce].iter().zip(&vals[cs..ce]) {
                self.work[r] = v;
            }
            // `topo` is reverse post-order — iterate as pushed (we push
            // finished nodes onto the *end*, so reverse iteration gives
            // ancestors-first order).
            for ti in (0..self.topo.len()).rev() {
                let r = self.topo[ti];
                let s = self.row_step[r];
                if s == usize::MAX {
                    continue;
                }
                let xr = self.work[r];
                if xr != 0.0 {
                    for li in self.l_colptr[s]..self.l_colptr[s + 1] {
                        self.work[self.l_row[li]] -= self.l_val[li] * xr;
                    }
                }
            }
            // Pivot: threshold partial pivoting over the unassigned rows
            // of the pattern, Markowitz tie-break on static row count.
            let mut max_mag = 0.0f64;
            for ti in 0..self.topo.len() {
                let r = self.topo[ti];
                if self.row_step[r] == usize::MAX {
                    max_mag = max_mag.max(self.work[r].abs());
                }
            }
            if max_mag < SINGULAR_TOL {
                self.clear_work();
                return Err(());
            }
            let mut pivot: Option<(usize, usize)> = None; // (row, row_count)
            for ti in 0..self.topo.len() {
                let r = self.topo[ti];
                if self.row_step[r] != usize::MAX {
                    continue;
                }
                let mag = self.work[r].abs();
                if mag >= PIVOT_THRESHOLD * max_mag {
                    let rc = self.row_count[r];
                    if pivot.is_none_or(|(_, brc)| rc < brc) {
                        pivot = Some((r, rc));
                    }
                }
            }
            let (prow, _) = pivot.expect("threshold set is non-empty when max >= tol");
            let pval = self.work[prow];

            // Emit U column (assigned steps) and L column (multipliers).
            for ti in 0..self.topo.len() {
                let r = self.topo[ti];
                let s = self.row_step[r];
                if s != usize::MAX {
                    let v = self.work[r];
                    if v.abs() > DROP_TOL {
                        self.u_step.push(s);
                        self.u_val.push(v);
                    }
                }
            }
            self.u_colptr.push(self.u_step.len());
            self.u_diag.push(pval);
            for ti in 0..self.topo.len() {
                let r = self.topo[ti];
                if r == prow || self.row_step[r] != usize::MAX {
                    continue;
                }
                let mult = self.work[r] / pval;
                if mult.abs() > DROP_TOL {
                    self.l_row.push(r);
                    self.l_val.push(mult);
                }
            }
            self.l_colptr.push(self.l_row.len());
            self.pivot_row.push(prow);
            self.row_step[prow] = step;
            self.col_order.push(slot);
            self.clear_work();
        }
        self.zero_slots.clear();
        self.zero_slots.resize(m, 0.0);
        for (k, &slot) in self.col_order.iter().enumerate() {
            self.zero_slots[slot] = 0.0 / self.u_diag[k];
        }
        self.ftran_steps.clear();
        self.ftran_steps.resize(m, 0.0);
        self.frontier.clear();
        self.frontier.resize(m.div_ceil(64), 0);
        Ok(())
    }

    fn clear_work(&mut self) {
        for ti in 0..self.topo.len() {
            self.work[self.topo[ti]] = 0.0;
        }
    }

    /// Iterative DFS over L's graph from row `start`; appends finished
    /// rows to `self.topo` (post-order) and marks visited rows.
    fn dfs(&mut self, start: usize) {
        self.mark[start] = self.mark_gen;
        self.dfs_stack.clear();
        self.dfs_stack.push((start, 0));
        while let Some(&(r, mut child)) = self.dfs_stack.last() {
            let s = self.row_step[r];
            let (cs, ce) = if s == usize::MAX {
                (0, 0)
            } else {
                (self.l_colptr[s], self.l_colptr[s + 1])
            };
            let mut advanced = false;
            while cs + child < ce {
                let next = self.l_row[cs + child];
                child += 1;
                if self.mark[next] != self.mark_gen {
                    self.mark[next] = self.mark_gen;
                    self.dfs_stack.last_mut().expect("stack non-empty").1 = child;
                    self.dfs_stack.push((next, 0));
                    advanced = true;
                    break;
                }
            }
            if !advanced {
                self.topo.push(r);
                self.dfs_stack.pop();
            }
        }
    }

    /// Solves `B x = b` over the steps `b` reaches. Input: `b` in
    /// `rhs_rows` (row space), `+0.0` on every row outside `rhs_nz`; all
    /// of it is `+0.0` again on return. Output: `out_slots` in slot space,
    /// fully overwritten, and `out_nz` cleared, then marked at every slot
    /// where `out_slots` may be nonzero. The same bits as the dense
    /// triangular solves.
    pub fn ftran(
        &mut self,
        rhs_rows: &mut [f64],
        rhs_nz: impl IntoIterator<Item = usize>,
        out_slots: &mut [f64],
        out_nz: &mut [u64],
    ) {
        let frontier = &mut self.frontier;
        let steps = &mut self.ftran_steps;
        // Seeds: every entry that is not `+0.0`. A `-0.0` counts, its sign
        // can reach the image.
        for r in rhs_nz {
            if rhs_rows[r].to_bits() != 0 {
                set_bit(frontier, self.row_step[r]);
            }
        }
        // L solve, ascending, in row space. Step `k`'s row is final when
        // the cursor reaches it: gather it into step space there, before
        // any U update lands on it, and clear it.
        for w in 0..frontier.len() {
            let mut bits = frontier[w];
            while bits != 0 {
                let b = bits.trailing_zeros();
                let k = w * 64 + b as usize;
                let yk = std::mem::take(&mut rhs_rows[self.pivot_row[k]]);
                steps[k] = yk;
                if yk != 0.0 {
                    for li in self.l_colptr[k]..self.l_colptr[k + 1] {
                        let r = self.l_row[li];
                        rhs_rows[r] -= self.l_val[li] * yk;
                        set_bit(frontier, self.row_step[r]);
                    }
                }
                // Marks land after step `k`, this word included.
                bits = frontier[w] & (!1u64 << b);
            }
        }
        // U back-substitution, descending, in step space.
        for w in (0..frontier.len()).rev() {
            let mut bits = frontier[w];
            while bits != 0 {
                let b = 63 - bits.leading_zeros();
                let k = w * 64 + b as usize;
                let xk = steps[k] / self.u_diag[k];
                steps[k] = xk;
                if xk != 0.0 {
                    for ui in self.u_colptr[k]..self.u_colptr[k + 1] {
                        let s = self.u_step[ui];
                        steps[s] -= self.u_val[ui] * xk;
                        set_bit(frontier, s);
                    }
                }
                // Marks land before step `k`, this word included.
                bits = frontier[w] & ((1u64 << b) - 1);
            }
        }
        // Scatter the reached steps to slots; the rest keep their zero.
        out_slots.copy_from_slice(&self.zero_slots);
        out_nz.fill(0);
        for (w, word) in frontier.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let k = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let slot = self.col_order[k];
                out_slots[slot] = std::mem::take(&mut steps[k]);
                set_bit(out_nz, slot);
            }
        }
    }

    /// Solves `Bᵀ y = c`. Input: `c_slots` dense in slot space. Output:
    /// `out_rows` dense in row space (fully overwritten). `step_buf` is
    /// caller-provided scratch of length ≥ m.
    pub fn btran(&self, c_slots: &[f64], out_rows: &mut [f64], step_buf: &mut [f64]) {
        let m = self.m;
        // Uᵀ forward solve, in step space (entries of column k are at
        // steps < k, already solved — in-place is safe).
        for k in 0..m {
            let mut acc = c_slots[self.col_order[k]];
            for ui in self.u_colptr[k]..self.u_colptr[k + 1] {
                acc -= self.u_val[ui] * step_buf[self.u_step[ui]];
            }
            step_buf[k] = acc / self.u_diag[k];
        }
        // Lᵀ backward solve: rows referenced by column k have steps > k,
        // already written.
        for k in (0..m).rev() {
            let mut acc = step_buf[k];
            for li in self.l_colptr[k]..self.l_colptr[k + 1] {
                acc -= self.l_val[li] * out_rows[self.l_row[li]];
            }
            out_rows[self.pivot_row[k]] = acc;
        }
    }
}

/// Sets bit `i` of a bit set held as `u64` words.
fn set_bit(bits: &mut [u64], i: usize) {
    bits[i >> 6] |= 1 << (i & 63);
}

/// The test build's oracle for [`LuFactors::ftran`]: both triangular
/// solves over every step.
#[cfg(test)]
impl LuFactors {
    /// Solves `B x = b` densely. `rhs_rows` is consumed as scratch,
    /// `out_slots` fully overwritten.
    pub fn ftran_dense(&self, rhs_rows: &mut [f64], out_slots: &mut [f64]) {
        let m = self.m;
        for k in 0..m {
            let yk = rhs_rows[self.pivot_row[k]];
            if yk != 0.0 {
                for li in self.l_colptr[k]..self.l_colptr[k + 1] {
                    rhs_rows[self.l_row[li]] -= self.l_val[li] * yk;
                }
            }
        }
        let mut steps: Vec<f64> = self.pivot_row.iter().map(|&r| rhs_rows[r]).collect();
        for k in (0..m).rev() {
            let xk = steps[k] / self.u_diag[k];
            steps[k] = xk;
            if xk != 0.0 {
                for ui in self.u_colptr[k]..self.u_colptr[k + 1] {
                    steps[self.u_step[ui]] -= self.u_val[ui] * xk;
                }
            }
        }
        for k in 0..m {
            out_slots[self.col_order[k]] = steps[k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds CSC from dense column-major data.
    fn csc(m: usize, cols: &[&[f64]]) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let mut colptr = vec![0];
        let (mut rows, mut vals) = (Vec::new(), Vec::new());
        for col in cols {
            assert_eq!(col.len(), m);
            for (r, &v) in col.iter().enumerate() {
                if v != 0.0 {
                    rows.push(r);
                    vals.push(v);
                }
            }
            colptr.push(rows.len());
        }
        (colptr, rows, vals)
    }

    fn solve_roundtrip(m: usize, cols: &[&[f64]], b: &[f64]) -> Vec<f64> {
        let (cp, r, v) = csc(m, cols);
        let mut lu = LuFactors::default();
        lu.factorize(m, &cp, &r, &v).expect("nonsingular");
        let mut rhs = b.to_vec();
        let mut out = vec![0.0; m];
        let mut nz = vec![0; m.div_ceil(64)];
        lu.ftran(&mut rhs, 0..m, &mut out, &mut nz);
        out
    }

    #[test]
    fn identity_roundtrip() {
        let x = solve_roundtrip(
            3,
            &[&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0], &[0.0, 0.0, 1.0]],
            &[3.0, -1.0, 2.0],
        );
        assert_eq!(x, vec![3.0, -1.0, 2.0]);
    }

    #[test]
    fn ftran_solves_general_3x3() {
        // B = [[2,1,0],[0,3,1],[1,0,1]] (columns), x = B^-1 [5,7,3].
        let cols: &[&[f64]] = &[&[2.0, 0.0, 1.0], &[1.0, 3.0, 0.0], &[0.0, 1.0, 1.0]];
        let x = solve_roundtrip(3, cols, &[5.0, 7.0, 3.0]);
        // Verify B x = b.
        let b_check: Vec<f64> = (0..3)
            .map(|r| (0..3).map(|c| cols[c][r] * x[c]).sum())
            .collect();
        for (got, want) in b_check.iter().zip(&[5.0, 7.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{b_check:?}");
        }
    }

    #[test]
    fn btran_solves_transpose() {
        let cols: &[&[f64]] = &[&[2.0, 0.0, 1.0], &[1.0, 3.0, 0.0], &[0.0, 1.0, 1.0]];
        let (cp, r, v) = csc(3, cols);
        let mut lu = LuFactors::default();
        lu.factorize(3, &cp, &r, &v).unwrap();
        let c = [4.0, -2.0, 1.0]; // slot space
        let mut y = vec![0.0; 3];
        let mut scratch = vec![0.0; 3];
        lu.btran(&c, &mut y, &mut scratch);
        // Check Bᵀ y = c: for each slot j, column_j · y = c[j].
        for j in 0..3 {
            let dot: f64 = (0..3).map(|row| cols[j][row] * y[row]).sum();
            assert!((dot - c[j]).abs() < 1e-12, "col {j}: {dot} vs {}", c[j]);
        }
    }

    #[test]
    fn singular_matrix_detected() {
        let cols: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 4.0]];
        let (cp, r, v) = csc(2, cols);
        let mut lu = LuFactors::default();
        assert!(lu.factorize(2, &cp, &r, &v).is_err());
    }

    #[test]
    fn zero_column_detected() {
        let cols: &[&[f64]] = &[&[1.0, 0.0], &[0.0, 0.0]];
        let (cp, r, v) = csc(2, cols);
        let mut lu = LuFactors::default();
        assert!(lu.factorize(2, &cp, &r, &v).is_err());
    }

    #[test]
    fn eta_ftran_btran_agree_with_explicit_update() {
        // B = I (2x2); replace slot 0 with column a = [3, 1]^T.
        // d = B^-1 a = [3, 1]. New B = [[3,0],[1,1]].
        let eta = Eta { slot: 0, d: vec![(1, 1.0)], dp: 3.0 };
        // ftran: solve B_new x = [6, 5] → x = [2, 3].
        let mut x = vec![6.0, 5.0];
        eta.ftran(&mut x, &mut [0b1]);
        assert!((x[0] - 2.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12, "{x:?}");
        // btran: solve B_newᵀ y = [7, 2] → y = [(7 - 2)/3, 2] = [5/3, 2].
        let mut y = vec![7.0, 2.0];
        eta.btran(&mut y);
        assert!((y[0] - 5.0 / 3.0).abs() < 1e-12 && (y[1] - 2.0).abs() < 1e-12, "{y:?}");
    }

    #[test]
    fn larger_random_ish_roundtrip() {
        // Deterministic pseudo-random sparse nonsingular matrix (diagonal
        // dominance guarantees nonsingularity).
        let m = 40;
        let mut cols: Vec<Vec<f64>> = vec![vec![0.0; m]; m];
        let mut state = 0x12345678u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            ((state >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        };
        for (j, col) in cols.iter_mut().enumerate() {
            col[j] = 8.0 + next().abs();
            for _ in 0..3 {
                let r = ((next().abs() * m as f64) as usize).min(m - 1);
                if r != j {
                    col[r] = next();
                }
            }
        }
        let col_refs: Vec<&[f64]> = cols.iter().map(|c| c.as_slice()).collect();
        let b: Vec<f64> = (0..m).map(|i| next() * 10.0 + i as f64).collect();
        let x = solve_roundtrip(m, &col_refs, &b);
        for r in 0..m {
            let got: f64 = (0..m).map(|c| cols[c][r] * x[c]).sum();
            assert!((got - b[r]).abs() < 1e-8, "row {r}: {got} vs {}", b[r]);
        }
    }

    #[test]
    fn an_unreached_slot_keeps_the_dense_solves_signed_zero() {
        // B = diag(-2, 3), b = (0, 6): slot 0 is never reached, and the
        // dense solve leaves `0.0 / -2.0 = -0.0` there.
        let x = solve_roundtrip(2, &[&[-2.0, 0.0], &[0.0, 3.0]], &[0.0, 6.0]);
        assert_eq!(x[0].to_bits(), (-0.0f64).to_bits());
        assert_eq!(x[1], 2.0);
        // A `-0.0` in the rhs is a seed: `-0.0 / -2.0 = +0.0`.
        let x = solve_roundtrip(2, &[&[-2.0, 0.0], &[0.0, 3.0]], &[-0.0, 6.0]);
        assert_eq!(x[0].to_bits(), 0);
    }

    /// A random sparse basis of order `m` in CSC form: column `j` has
    /// its diagonal at row `perm[j]`, of magnitude 4–5 and negative with
    /// probability `neg`, and up to three off-diagonal entries in
    /// `[-1, 1]`, so it is column diagonally dominant, hence nonsingular.
    fn random_basis(m: usize, neg: f64, next: &mut impl FnMut() -> f64) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
        let mut perm: Vec<usize> = (0..m).collect();
        for i in (1..m).rev() {
            perm.swap(i, (next() * (i + 1) as f64) as usize);
        }
        let mut colptr = vec![0];
        let (mut rows, mut vals) = (Vec::new(), Vec::new());
        for &diag_row in &perm {
            let start = rows.len();
            let sign = if next() < neg { -1.0 } else { 1.0 };
            rows.push(diag_row);
            vals.push(sign * (4.0 + next()));
            for _ in 0..(next() * 4.0) as usize {
                let r = (next() * m as f64) as usize;
                if !rows[start..].contains(&r) {
                    rows.push(r);
                    vals.push(2.0 * next() - 1.0);
                }
            }
            colptr.push(rows.len());
        }
        (colptr, rows, vals)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The frontier ftran against the dense solves on random sparse
        /// bases: the image bit for bit (signed zeros included), every
        /// nonzero slot marked, and the rhs and the solver's scratch left
        /// at `+0.0` (one factorisation serves every rhs of a case). The
        /// rhs hold one to four entries, some `-0.0`, some an explicit
        /// `+0.0`, listed as the nonzero rows; the last is seeded from
        /// every row, as `compute_xb` does.
        #[test]
        fn frontier_ftran_matches_the_dense_solves_bit_for_bit(
            m in 1usize..200,
            neg in 0.0f64..1.0,
            seed in 0u64..u64::MAX,
        ) {
            let mut state = seed;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let (cp, r, v) = random_basis(m, neg, &mut next);
            let mut lu = LuFactors::default();
            lu.factorize(m, &cp, &r, &v).expect("diagonally dominant");
            let mut rhs = vec![0.0; m];
            let mut out = vec![f64::NAN; m];
            let mut nz = vec![u64::MAX; m.div_ceil(64)];
            for case in 0..12 {
                let mut rows = Vec::new();
                for _ in 0..1 + (next() * 4.0) as usize {
                    let row = (next() * m as f64) as usize;
                    let pick = next();
                    rhs[row] = if pick < 0.2 { -0.0 } else if pick < 0.3 { 0.0 } else { 4.0 * next() - 2.0 };
                    rows.push(row);
                }
                let mut dense_rhs = rhs.clone();
                let mut want = vec![0.0; m];
                lu.ftran_dense(&mut dense_rhs, &mut want);
                if case == 11 {
                    lu.ftran(&mut rhs, 0..m, &mut out, &mut nz);
                } else {
                    lu.ftran(&mut rhs, rows.iter().copied(), &mut out, &mut nz);
                }
                for s in 0..m {
                    proptest::prop_assert_eq!(out[s].to_bits(), want[s].to_bits(), "slot {} of {}", s, m);
                    proptest::prop_assert!(out[s] == 0.0 || nz[s >> 6] >> (s & 63) & 1 == 1, "slot {} unmarked", s);
                }
                proptest::prop_assert!(rhs.iter().all(|x| x.to_bits() == 0), "rhs left dirty");
                proptest::prop_assert!(lu.ftran_steps.iter().all(|x| x.to_bits() == 0), "steps left dirty");
                proptest::prop_assert!(lu.frontier.iter().all(|&w| w == 0), "frontier left dirty");
            }
        }
    }
}
