//! Sparse matrix storage: COO assembly, CSC compute format.

use crate::NumError;

/// Coordinate-format (COO) builder for sparse matrices.
///
/// MNA stamps append `(row, col, value)` triplets without worrying about
/// duplicates; [`TripletMatrix::to_csc`] sums them. This mirrors how
/// SPICE builds its matrix once per topology and then refreshes values.
#[derive(Debug, Clone, Default)]
pub struct TripletMatrix {
    n: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl TripletMatrix {
    /// Creates an empty `n × n` builder.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// The matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored (pre-deduplication) entries.
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Appends `value` at `(row, col)`; duplicates are summed on
    /// compression.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n && col < self.n,
            "index ({row},{col}) out of bounds"
        );
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
    }

    /// Removes all entries, keeping allocations.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }

    /// Compresses into CSC form, summing duplicate coordinates.
    pub fn to_csc(&self) -> CscMatrix {
        let n = self.n;
        // Count entries per column (duplicates included for now).
        let mut count = vec![0usize; n];
        for &c in &self.cols {
            count[c] += 1;
        }
        let mut col_ptr = vec![0usize; n + 1];
        for j in 0..n {
            col_ptr[j + 1] = col_ptr[j] + count[j];
        }
        let nnz = col_ptr[n];
        let mut row_idx = vec![0usize; nnz];
        let mut values = vec![0.0; nnz];
        let mut next = col_ptr.clone();
        for k in 0..self.vals.len() {
            let c = self.cols[k];
            let dst = next[c];
            row_idx[dst] = self.rows[k];
            values[dst] = self.vals[k];
            next[c] += 1;
        }
        let mut csc = CscMatrix {
            n,
            col_ptr,
            row_idx,
            values,
        };
        csc.sort_and_sum_duplicates();
        csc
    }

    /// Symbolic compression: builds the deduplicated CSC *structure* of
    /// this stamp sequence (values zeroed) plus a stamp-pointer map
    /// `map[k]` = value-slot of the `k`-th `add` call.
    ///
    /// A solver that stamps the same topology every iteration records
    /// the stamp sequence once, keeps `(pattern, map)`, and from then on
    /// assembles by scatter: `values[map[cursor]] += value` — no sort,
    /// no dedup, no allocation. Because both the scatter and
    /// [`TripletMatrix::to_csc`] accumulate each slot's contributions in
    /// insertion order, the resulting values are identical.
    pub fn compile(&self) -> (CscMatrix, Vec<usize>) {
        let n = self.n;
        // Per-column row sets, deduplicated and sorted.
        let mut cols_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (&r, &c) in self.rows.iter().zip(&self.cols) {
            cols_rows[c].push(r);
        }
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx: Vec<usize> = Vec::new();
        for (j, rs) in cols_rows.iter_mut().enumerate() {
            rs.sort_unstable();
            rs.dedup();
            row_idx.extend_from_slice(rs);
            col_ptr[j + 1] = row_idx.len();
        }
        let map = self
            .rows
            .iter()
            .zip(&self.cols)
            .map(|(&r, &c)| {
                let off = cols_rows[c]
                    .binary_search(&r)
                    .expect("row present by construction");
                col_ptr[c] + off
            })
            .collect();
        let nnz = row_idx.len();
        (
            CscMatrix {
                n,
                col_ptr,
                row_idx,
                values: vec![0.0; nnz],
            },
            map,
        )
    }

    /// [`TripletMatrix::compile`] under a symmetric permutation: entry
    /// `(r, c)` of the stamp sequence lands at `(new_of[r], new_of[c])`
    /// of the compiled pattern, i.e. the pattern is `P·A·Pᵀ` with
    /// `new_of[old] = new`. The returned stamp-pointer map targets the
    /// *permuted* slots, so scatter assembly builds the permuted matrix
    /// directly — the permutation costs nothing per iteration.
    ///
    /// With the identity permutation this is exactly
    /// [`TripletMatrix::compile`], structure and map both.
    ///
    /// # Panics
    ///
    /// Panics if `new_of` is not a permutation of `0..dim()`.
    fn compile_permuted(&self, new_of: &[usize]) -> (CscMatrix, Vec<usize>) {
        let n = self.n;
        assert_eq!(new_of.len(), n, "permutation length must match dim");
        // Validate (also catches out-of-range) before trusting indices.
        let _ = crate::order::invert_permutation(new_of);
        let mut cols_rows: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (&r, &c) in self.rows.iter().zip(&self.cols) {
            cols_rows[new_of[c]].push(new_of[r]);
        }
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx: Vec<usize> = Vec::new();
        for (j, rs) in cols_rows.iter_mut().enumerate() {
            rs.sort_unstable();
            rs.dedup();
            row_idx.extend_from_slice(rs);
            col_ptr[j + 1] = row_idx.len();
        }
        let map = self
            .rows
            .iter()
            .zip(&self.cols)
            .map(|(&r, &c)| {
                let (pr, pc) = (new_of[r], new_of[c]);
                let off = cols_rows[pc]
                    .binary_search(&pr)
                    .expect("row present by construction");
                col_ptr[pc] + off
            })
            .collect();
        let nnz = row_idx.len();
        (
            CscMatrix {
                n,
                col_ptr,
                row_idx,
                values: vec![0.0; nnz],
            },
            map,
        )
    }

    /// Compiles under a fill-reducing minimum-degree ordering computed
    /// on this stamp sequence's own pattern: returns the permuted
    /// pattern `P·A·Pᵀ`, the stamp-pointer map into its slots, and the
    /// elimination order `perm` (`perm[new] = old`), so a solver can
    /// permute right-hand sides in and solutions out.
    pub fn compile_ordered(&self) -> (CscMatrix, Vec<usize>, Vec<usize>) {
        let (natural, _) = self.compile();
        let perm = crate::order::min_degree(&natural);
        let new_of = crate::order::invert_permutation(&perm);
        let (pattern, map) = self.compile_permuted(&new_of);
        (pattern, map, perm)
    }
}

/// Compressed sparse column matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CscMatrix {
    n: usize,
    col_ptr: Vec<usize>,
    row_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CscMatrix {
    /// The matrix dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Number of stored nonzeros (after duplicate summing).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Column pointer array (`n + 1` entries).
    pub fn col_ptr(&self) -> &[usize] {
        &self.col_ptr
    }

    /// Row index array, column-sorted.
    pub fn row_indices(&self) -> &[usize] {
        &self.row_idx
    }

    /// Stored values, parallel to [`CscMatrix::row_indices`].
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the stored values; the structure (column
    /// pointers, row indices) stays frozen. This is the write half of
    /// the scatter-assembly contract set up by
    /// [`TripletMatrix::compile`].
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// Zeroes every stored value, keeping the structure — the start of
    /// one scatter-assembly pass.
    pub fn reset_values(&mut self) {
        self.values.fill(0.0);
    }

    /// Returns the stored value at `(row, col)` or zero.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let lo = self.col_ptr[col];
        let hi = self.col_ptr[col + 1];
        match self.row_idx[lo..hi].binary_search(&row) {
            Ok(k) => self.values[lo + k],
            Err(_) => 0.0,
        }
    }

    /// Computes `y = A·x`.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::DimensionMismatch`] if `x.len() != dim()`.
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>, NumError> {
        if x.len() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                found: x.len(),
            });
        }
        let mut y = vec![0.0; self.n];
        for (j, &xj) in x.iter().enumerate() {
            if xj == 0.0 {
                continue;
            }
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                y[self.row_idx[k]] += self.values[k] * xj;
            }
        }
        Ok(y)
    }

    /// In-column sort and duplicate merge; used once after assembly.
    fn sort_and_sum_duplicates(&mut self) {
        let n = self.n;
        let mut scratch: Vec<(usize, f64)> = Vec::new();
        let mut new_col_ptr = vec![0usize; n + 1];
        let mut new_rows: Vec<usize> = Vec::with_capacity(self.row_idx.len());
        let mut new_vals: Vec<f64> = Vec::with_capacity(self.values.len());
        for j in 0..n {
            scratch.clear();
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                scratch.push((self.row_idx[k], self.values[k]));
            }
            scratch.sort_by_key(|&(r, _)| r);
            let mut i = 0;
            while i < scratch.len() {
                let (r, mut v) = scratch[i];
                let mut k = i + 1;
                while k < scratch.len() && scratch[k].0 == r {
                    v += scratch[k].1;
                    k += 1;
                }
                new_rows.push(r);
                new_vals.push(v);
                i = k;
            }
            new_col_ptr[j + 1] = new_rows.len();
        }
        self.col_ptr = new_col_ptr;
        self.row_idx = new_rows;
        self.values = new_vals;
    }

    /// Returns the symmetrically permuted matrix `P·A·Pᵀ`: entry
    /// `(r, c)` moves to `(new_of[r], new_of[c])`. Values travel with
    /// their entries; the result's columns are row-sorted like every
    /// matrix this crate builds.
    ///
    /// # Panics
    ///
    /// Panics if `new_of` is not a permutation of `0..dim()`.
    pub fn permute_symmetric(&self, new_of: &[usize]) -> CscMatrix {
        let n = self.n;
        assert_eq!(new_of.len(), n, "permutation length must match dim");
        let _ = crate::order::invert_permutation(new_of);
        let mut cols: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for c in 0..n {
            for k in self.col_ptr[c]..self.col_ptr[c + 1] {
                cols[new_of[c]].push((new_of[self.row_idx[k]], self.values[k]));
            }
        }
        let mut col_ptr = vec![0usize; n + 1];
        let mut row_idx = Vec::with_capacity(self.row_idx.len());
        let mut values = Vec::with_capacity(self.values.len());
        for (j, col) in cols.iter_mut().enumerate() {
            col.sort_by_key(|&(r, _)| r);
            for &(r, v) in col.iter() {
                row_idx.push(r);
                values.push(v);
            }
            col_ptr[j + 1] = row_idx.len();
        }
        CscMatrix {
            n,
            col_ptr,
            row_idx,
            values,
        }
    }

    /// Expands to a dense matrix; intended for tests and debugging.
    pub fn to_dense(&self) -> crate::DenseMatrix {
        let mut d = crate::DenseMatrix::zeros(self.n);
        for j in 0..self.n {
            for k in self.col_ptr[j]..self.col_ptr[j + 1] {
                d.set(self.row_idx[k], j, self.values[k]);
            }
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TripletMatrix {
        let mut t = TripletMatrix::new(3);
        t.add(0, 0, 4.0);
        t.add(1, 1, 5.0);
        t.add(2, 2, 6.0);
        t.add(0, 1, 1.0);
        t.add(1, 0, 2.0);
        t
    }

    #[test]
    fn triplet_to_csc_preserves_entries() {
        let csc = sample().to_csc();
        assert_eq!(csc.get(0, 0), 4.0);
        assert_eq!(csc.get(1, 1), 5.0);
        assert_eq!(csc.get(2, 2), 6.0);
        assert_eq!(csc.get(0, 1), 1.0);
        assert_eq!(csc.get(1, 0), 2.0);
        assert_eq!(csc.get(2, 0), 0.0);
        assert_eq!(csc.nnz(), 5);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut t = TripletMatrix::new(2);
        t.add(0, 0, 1.0);
        t.add(0, 0, 2.5);
        t.add(1, 0, -1.0);
        let csc = t.to_csc();
        assert_eq!(csc.get(0, 0), 3.5);
        assert_eq!(csc.get(1, 0), -1.0);
        assert_eq!(csc.nnz(), 2);
    }

    #[test]
    fn rows_within_columns_are_sorted() {
        let mut t = TripletMatrix::new(3);
        t.add(2, 0, 3.0);
        t.add(0, 0, 1.0);
        t.add(1, 0, 2.0);
        let csc = t.to_csc();
        assert_eq!(csc.row_indices(), &[0, 1, 2]);
        assert_eq!(csc.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn matvec_matches_dense() {
        let csc = sample().to_csc();
        let dense = csc.to_dense();
        let x = [1.0, -2.0, 0.5];
        let ys = csc.mul_vec(&x).unwrap();
        let yd = dense.mul_vec(&x).unwrap();
        for (a, b) in ys.iter().zip(yd.iter()) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn matvec_rejects_wrong_length() {
        let csc = sample().to_csc();
        assert!(matches!(
            csc.mul_vec(&[1.0]),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn clear_resets_builder() {
        let mut t = sample();
        assert_eq!(t.nnz(), 5);
        t.clear();
        assert_eq!(t.nnz(), 0);
        assert_eq!(t.dim(), 3);
        let csc = t.to_csc();
        assert_eq!(csc.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_add_panics() {
        let mut t = TripletMatrix::new(2);
        t.add(2, 0, 1.0);
    }

    #[test]
    fn compile_structure_matches_to_csc_and_scatter_reproduces_values() {
        let mut t = TripletMatrix::new(3);
        // Out-of-order rows and duplicates, like MNA stamps.
        t.add(2, 0, 3.0);
        t.add(0, 0, 1.0);
        t.add(0, 0, 0.5);
        t.add(1, 2, -2.0);
        t.add(0, 1, 4.0);
        t.add(2, 0, -1.0);
        let reference = t.to_csc();
        let (mut pattern, map) = t.compile();
        assert_eq!(pattern.col_ptr(), reference.col_ptr());
        assert_eq!(pattern.row_indices(), reference.row_indices());
        assert_eq!(map.len(), t.nnz());
        assert!(pattern.values().iter().all(|&v| v == 0.0));
        // Replay the stamp sequence through the stamp-pointer map.
        pattern.reset_values();
        let vals = [3.0, 1.0, 0.5, -2.0, 4.0, -1.0];
        for (slot, v) in map.iter().zip(vals) {
            pattern.values_mut()[*slot] += v;
        }
        assert_eq!(pattern.values(), reference.values());
        // A second scatter pass after reset gives the same result.
        pattern.reset_values();
        for (slot, v) in map.iter().zip(vals) {
            pattern.values_mut()[*slot] += v;
        }
        assert_eq!(pattern.values(), reference.values());
    }

    #[test]
    fn compile_of_empty_builder_is_empty() {
        let (pattern, map) = TripletMatrix::new(4).compile();
        assert_eq!(pattern.nnz(), 0);
        assert!(map.is_empty());
        assert_eq!(pattern.col_ptr(), &[0, 0, 0, 0, 0]);
    }

    #[test]
    fn compile_permuted_with_identity_matches_compile_exactly() {
        let t = sample();
        let (pat, map) = t.compile();
        let (ppat, pmap) = t.compile_permuted(&[0, 1, 2]);
        assert_eq!(pat, ppat);
        assert_eq!(map, pmap);
    }

    #[test]
    fn compile_permuted_scatter_builds_the_permuted_matrix() {
        let mut t = TripletMatrix::new(3);
        // Duplicates on purpose: accumulation must survive permutation.
        t.add(2, 0, 3.0);
        t.add(0, 0, 1.0);
        t.add(0, 0, 0.5);
        t.add(1, 2, -2.0);
        t.add(0, 1, 4.0);
        t.add(2, 0, -1.0);
        let new_of = [2usize, 0, 1]; // old 0 -> new 2, 1 -> 0, 2 -> 1
        let (mut pattern, map) = t.compile_permuted(&new_of);
        pattern.reset_values();
        for (&slot, v) in map.iter().zip([3.0, 1.0, 0.5, -2.0, 4.0, -1.0]) {
            pattern.values_mut()[slot] += v;
        }
        let reference = t.to_csc().permute_symmetric(&new_of);
        assert_eq!(pattern, reference);
        // Spot-check one moved duplicate-accumulated entry.
        assert_eq!(pattern.get(2, 2), 1.5); // old (0,0)
        assert_eq!(pattern.get(1, 2), 2.0); // old (2,0): 3.0 - 1.0
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn compile_permuted_rejects_non_permutation() {
        let _ = sample().compile_permuted(&[0, 0, 1]);
    }

    #[test]
    fn permute_symmetric_round_trips_through_inverse() {
        let csc = sample().to_csc();
        let new_of = [1usize, 2, 0];
        let back = crate::order::invert_permutation(&new_of);
        let there = csc.permute_symmetric(&new_of);
        assert_eq!(there.permute_symmetric(&back), csc);
        // Diagonal entries stay on the diagonal.
        for (i, &p) in new_of.iter().enumerate() {
            assert_eq!(there.get(p, p), csc.get(i, i));
        }
    }

    #[test]
    fn singleton_matrix_compiles_and_solves() {
        let mut t = TripletMatrix::new(1);
        t.add(0, 0, 2.0);
        let (mut pattern, map) = t.compile();
        pattern.reset_values();
        pattern.values_mut()[map[0]] += 2.0;
        let lu = crate::SparseLu::factorize(&pattern).unwrap();
        assert_eq!(lu.solve(&[6.0]).unwrap(), vec![3.0]);
        // The ordered compile of a singleton is the identity case.
        let (opat, omap, operm) = t.compile_ordered();
        assert_eq!(opat.col_ptr(), pattern.col_ptr());
        assert_eq!(omap, map);
        assert_eq!(operm, vec![0]);
    }
}
