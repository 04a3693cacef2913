//! Dense square matrices with partially pivoted LU factorization.
//!
//! Row-major storage. MNA assembly touches entries with `add`, which is
//! the hot path during Newton iterations, so it stays branch-free beyond
//! the bounds check.

use crate::NumError;

/// A dense square matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Builds a matrix from rows; panics if the rows are not square.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is ragged or not `n × n`.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let n = rows.len();
        let mut m = Self::zeros(n);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            for (j, &v) in row.iter().enumerate() {
                m.set(i, j, v);
            }
        }
        m
    }

    /// The dimension of the matrix.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> f64 {
        assert!(
            row < self.n && col < self.n,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.n + col]
    }

    /// Sets the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n && col < self.n,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.n + col] = value;
    }

    /// Adds `value` into the entry at `(row, col)` — the MNA stamp
    /// primitive.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of bounds.
    #[inline]
    pub fn add(&mut self, row: usize, col: usize, value: f64) {
        assert!(
            row < self.n && col < self.n,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.n + col] += value;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(0.0);
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
        let y = self
            .data
            .chunks_exact(self.n)
            .map(|row| row.iter().zip(x).map(|(a, b)| a * b).sum())
            .collect();
        Ok(y)
    }

    /// Factorizes `A = P·L·U` with partial pivoting, consuming nothing —
    /// the factorization owns a copy so the assembled matrix can be
    /// reused for residual checks.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] when no acceptable pivot exists in
    /// some column.
    pub fn factorize(&self) -> Result<DenseLu, NumError> {
        let n = self.n;
        let mut lu = self.data.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        for k in 0..n {
            // Partial pivoting: largest magnitude in column k at/below row k.
            let mut pivot_row = k;
            let mut pivot_mag = lu[k * n + k].abs();
            for (i, row) in lu.chunks_exact(n).enumerate().skip(k + 1) {
                let mag = row[k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag < f64::MIN_POSITIVE * 4.0 {
                return Err(NumError::Singular(k));
            }
            if pivot_row != k {
                let (upper, lower) = lu.split_at_mut(pivot_row * n);
                upper[k * n..(k + 1) * n].swap_with_slice(&mut lower[..n]);
                perm.swap(k, pivot_row);
            }
            // Eliminate below the pivot, one row slice at a time.
            let (done, below) = lu.split_at_mut((k + 1) * n);
            let pivot_slice = &done[k * n..];
            let pivot = pivot_slice[k];
            let pivot_tail = &pivot_slice[k + 1..];
            for row in below.chunks_exact_mut(n) {
                let factor = row[k] / pivot;
                row[k] = factor;
                if factor != 0.0 {
                    for (r, &u) in row[k + 1..].iter_mut().zip(pivot_tail) {
                        *r -= factor * u;
                    }
                }
            }
        }
        Ok(DenseLu { n, lu, perm })
    }

    /// Convenience: factorize and solve `A·x = b` in one call.
    ///
    /// # Errors
    ///
    /// Returns [`NumError::Singular`] for singular matrices and
    /// [`NumError::DimensionMismatch`] for a wrong-length `b`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, NumError> {
        if b.len() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                found: b.len(),
            });
        }
        Ok(self.factorize()?.solve(b))
    }
}

/// The result of [`DenseMatrix::factorize`]: `P·A = L·U` packed in a
/// single array, reusable for multiple right-hand sides.
#[derive(Debug, Clone)]
pub struct DenseLu {
    n: usize,
    lu: Vec<f64>,
    perm: Vec<usize>,
}

impl DenseLu {
    /// The factorized dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Panics
    ///
    /// Panics if `b.len()` differs from the factorized dimension.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        assert_eq!(b.len(), self.n, "rhs length mismatch");
        let n = self.n;
        // Apply permutation, then forward substitution (L has unit diagonal).
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        if n == 0 {
            return x;
        }
        for (i, row) in self.lu.chunks_exact(n).enumerate().skip(1) {
            let (solved, rest) = x.split_at_mut(i);
            let mut sum = rest[0];
            for (l, xj) in row[..i].iter().zip(solved.iter()) {
                sum -= l * xj;
            }
            rest[0] = sum;
        }
        // Backward substitution with U.
        for (i, row) in self.lu.chunks_exact(n).enumerate().rev() {
            let (head, solved) = x.split_at_mut(i + 1);
            let mut sum = head[i];
            for (u, xj) in row[i + 1..].iter().zip(solved.iter()) {
                sum -= u * xj;
            }
            head[i] = sum / row[i];
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_solves_to_rhs() {
        let a = DenseMatrix::identity(4);
        let x = a.solve(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(x, vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn solves_small_system() {
        let a = DenseMatrix::from_rows(&[
            vec![2.0, 1.0, -1.0],
            vec![-3.0, -1.0, 2.0],
            vec![-2.0, 1.0, 2.0],
        ]);
        let x = a.solve(&[8.0, -11.0, -3.0]).unwrap();
        assert!((x[0] - 2.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
        assert!((x[2] + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        // a11 = 0 forces a row swap.
        let a = DenseMatrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert_eq!(x, vec![7.0, 3.0]);
    }

    #[test]
    fn singular_matrix_reports_column() {
        let a = DenseMatrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(a.factorize().unwrap_err(), NumError::Singular(1));
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let a = DenseMatrix::zeros(3);
        assert!(matches!(
            a.mul_vec(&[1.0]),
            Err(NumError::DimensionMismatch {
                expected: 3,
                found: 1
            })
        ));
    }

    #[test]
    fn residual_is_small_for_ill_scaled_system() {
        // Conductance-like scaling spread: 1e-12 .. 1e3, as in real MNA.
        let a = DenseMatrix::from_rows(&[
            vec![1e3, -1e3, 0.0],
            vec![-1e3, 1e3 + 1e-12, -1e-12],
            vec![0.0, -1e-12, 2e-12],
        ]);
        let b = [1.0, 0.0, 1e-9];
        let x = a.solve(&b).unwrap();
        let r = a.mul_vec(&x).unwrap();
        // Backward-stable LU bounds the residual by eps·|A|·|x| per row,
        // which is the right yardstick when entries cancel across 15
        // orders of magnitude.
        for i in 0..3 {
            let row_scale: f64 = (0..3)
                .map(|j| (a.get(i, j) * x[j]).abs())
                .sum::<f64>()
                .max(b[i].abs());
            assert!(
                (r[i] - b[i]).abs() <= 1e-12 * row_scale,
                "row {i}: residual {} vs scale {row_scale}",
                (r[i] - b[i]).abs()
            );
        }
    }

    #[test]
    fn clear_keeps_dimension() {
        let mut a = DenseMatrix::identity(3);
        a.clear();
        assert_eq!(a.dim(), 3);
        assert_eq!(a.get(0, 0), 0.0);
    }

    #[test]
    fn add_accumulates_stamps() {
        let mut a = DenseMatrix::zeros(2);
        a.add(0, 0, 1.5);
        a.add(0, 0, 2.5);
        assert_eq!(a.get(0, 0), 4.0);
    }
}
