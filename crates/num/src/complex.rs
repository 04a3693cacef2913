//! Minimal complex arithmetic and complex dense LU for AC analysis.
//!
//! AC small-signal analysis solves `(G + jωC)·x = b` at each frequency;
//! this module provides the complex scalar type and a partially pivoted
//! complex LU mirroring the real [`crate::DenseMatrix`] machinery. Kept
//! in-house (rather than pulling a complex-number crate) because the
//! engine needs exactly these operations and nothing else.

use core::ops::{Add, AddAssign, Div, Mul, Neg, Sub};

use crate::NumError;

/// A complex number.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

impl Complex {
    /// Zero.
    pub const ZERO: Self = Self { re: 0.0, im: 0.0 };
    /// One.
    pub const ONE: Self = Self { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const J: Self = Self { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular parts.
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// A purely real value.
    pub const fn from_real(re: f64) -> Self {
        Self { re, im: 0.0 }
    }

    /// Magnitude `|z|`.
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Phase in radians, in `(-π, π]`.
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// `true` when both parts are finite.
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Self) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Neg for Complex {
    type Output = Self;
    fn neg(self) -> Self {
        Self {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl Mul for Complex {
    type Output = Self;
    fn mul(self, rhs: Self) -> Self {
        Self {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Mul<f64> for Complex {
    type Output = Self;
    fn mul(self, rhs: f64) -> Self {
        Self {
            re: self.re * rhs,
            im: self.im * rhs,
        }
    }
}

impl Div for Complex {
    type Output = Self;
    fn div(self, rhs: Self) -> Self {
        // Smith's algorithm for numerically safe complex division.
        if rhs.re.abs() >= rhs.im.abs() {
            let r = rhs.im / rhs.re;
            let d = rhs.re + rhs.im * r;
            Self {
                re: (self.re + self.im * r) / d,
                im: (self.im - self.re * r) / d,
            }
        } else {
            let r = rhs.re / rhs.im;
            let d = rhs.re * r + rhs.im;
            Self {
                re: (self.re * r + self.im) / d,
                im: (self.im * r - self.re) / d,
            }
        }
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Self::from_real(re)
    }
}

/// A dense square complex matrix with partially pivoted LU — the AC
/// analysis counterpart of [`crate::DenseMatrix`].
#[derive(Debug, Clone, PartialEq)]
pub struct ComplexMatrix {
    n: usize,
    data: Vec<Complex>,
}

impl ComplexMatrix {
    /// Creates an `n × n` zero matrix.
    pub fn zeros(n: usize) -> Self {
        Self {
            n,
            data: vec![Complex::ZERO; n * n],
        }
    }

    /// The dimension.
    pub fn dim(&self) -> usize {
        self.n
    }

    /// Returns the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn get(&self, row: usize, col: usize) -> Complex {
        assert!(
            row < self.n && col < self.n,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.n + col]
    }

    /// Adds `value` into the entry at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn add(&mut self, row: usize, col: usize, value: Complex) {
        assert!(
            row < self.n && col < self.n,
            "index ({row},{col}) out of bounds"
        );
        self.data[row * self.n + col] += value;
    }

    /// Resets every entry to zero, keeping the allocation.
    pub fn clear(&mut self) {
        self.data.fill(Complex::ZERO);
    }

    /// Solves `A·x = b` by in-place LU with partial pivoting (by
    /// magnitude).
    ///
    /// # Errors
    ///
    /// [`NumError::Singular`] when no usable pivot exists;
    /// [`NumError::DimensionMismatch`] for a wrong-length `b`.
    #[allow(clippy::needless_range_loop)] // elimination reads clearest with indices
    pub fn solve(&self, b: &[Complex]) -> Result<Vec<Complex>, NumError> {
        if b.len() != self.n {
            return Err(NumError::DimensionMismatch {
                expected: self.n,
                found: b.len(),
            });
        }
        let n = self.n;
        let mut lu = self.data.clone();
        let mut x = b.to_vec();
        for k in 0..n {
            let mut pivot_row = k;
            let mut pivot_mag = lu[k * n + k].abs();
            for i in (k + 1)..n {
                let mag = lu[i * n + k].abs();
                if mag > pivot_mag {
                    pivot_mag = mag;
                    pivot_row = i;
                }
            }
            if pivot_mag < f64::MIN_POSITIVE * 4.0 {
                return Err(NumError::Singular(k));
            }
            if pivot_row != k {
                for j in 0..n {
                    lu.swap(k * n + j, pivot_row * n + j);
                }
                x.swap(k, pivot_row);
            }
            let pivot = lu[k * n + k];
            for i in (k + 1)..n {
                let factor = lu[i * n + k] / pivot;
                lu[i * n + k] = factor;
                if factor != Complex::ZERO {
                    for j in (k + 1)..n {
                        let sub = factor * lu[k * n + j];
                        lu[i * n + j] = lu[i * n + j] - sub;
                    }
                    let sub = factor * x[k];
                    x[i] = x[i] - sub;
                }
            }
        }
        for i in (0..n).rev() {
            let mut sum = x[i];
            for j in (i + 1)..n {
                sum = sum - lu[i * n + j] * x[j];
            }
            x[i] = sum / lu[i * n + i];
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex, b: Complex) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn scalar_arithmetic() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert!(close(a + b, Complex::new(4.0, 1.0)));
        assert!(close(a - b, Complex::new(-2.0, 3.0)));
        assert!(close(a * b, Complex::new(5.0, 5.0)));
        assert!(close((a * b) / b, a));
        assert!(close(-a, Complex::new(-1.0, -2.0)));
        assert!(close(a * 2.0, Complex::new(2.0, 4.0)));
        assert!(close(Complex::J * Complex::J, Complex::new(-1.0, 0.0)));
        assert!((Complex::new(3.0, 4.0).abs() - 5.0).abs() < 1e-15);
        assert!((Complex::new(0.0, 1.0).arg() - core::f64::consts::FRAC_PI_2).abs() < 1e-15);
        assert_eq!(Complex::from(2.5), Complex::new(2.5, 0.0));
        assert!(Complex::ONE.is_finite());
        assert!(!Complex::new(f64::NAN, 0.0).is_finite());
    }

    #[test]
    fn division_is_numerically_safe_at_extremes() {
        // Naive division overflows here; Smith's algorithm must not.
        let a = Complex::new(1e300, 1e300);
        let b = Complex::new(1e300, 1e-300);
        let q = a / b;
        assert!(q.is_finite());
        assert!(close(q * b * 1e-300, a * 1e-300));
    }

    #[test]
    fn identity_solve() {
        let mut m = ComplexMatrix::zeros(3);
        for i in 0..3 {
            m.add(i, i, Complex::ONE);
        }
        let b = vec![
            Complex::new(1.0, 1.0),
            Complex::new(2.0, 0.0),
            Complex::new(0.0, -3.0),
        ];
        let x = m.solve(&b).unwrap();
        for (xi, bi) in x.iter().zip(&b) {
            assert!(close(*xi, *bi));
        }
    }

    #[test]
    fn solves_a_known_complex_system() {
        // RC divider at ω where |Zc| = R: A = [[1/R + jωC]] with unit
        // current → v = 1 / (1/R + jωC) = R(1 - j)/2 for ωRC = 1.
        let r = 1000.0;
        let omega_c = 1.0 / r; // ωC chosen so ωRC = 1
        let mut m = ComplexMatrix::zeros(1);
        m.add(0, 0, Complex::new(1.0 / r, omega_c));
        let x = m.solve(&[Complex::ONE]).unwrap();
        assert!(close(x[0], Complex::new(r / 2.0, -r / 2.0)));
    }

    #[test]
    fn pivoting_and_singularity() {
        // Zero diagonal needs a swap.
        let mut m = ComplexMatrix::zeros(2);
        m.add(0, 1, Complex::ONE);
        m.add(1, 0, Complex::new(0.0, 1.0)); // j
        let x = m
            .solve(&[Complex::from_real(2.0), Complex::from_real(3.0)])
            .unwrap();
        // Row 1: j·x0 = 3 → x0 = −3j; row 0: x1 = 2.
        assert!(close(x[0], Complex::new(0.0, -3.0)));
        assert!(close(x[1], Complex::from_real(2.0)));

        let singular = ComplexMatrix::zeros(2);
        assert!(matches!(
            singular.solve(&[Complex::ZERO; 2]),
            Err(NumError::Singular(_))
        ));
        let m = ComplexMatrix::zeros(2);
        assert!(matches!(
            m.solve(&[Complex::ZERO]),
            Err(NumError::DimensionMismatch { .. })
        ));
    }

    #[test]
    #[allow(clippy::needless_range_loop)] // residual check reads clearest with indices
    fn random_complex_systems_have_small_residuals() {
        use crate::rng::{Rng, Xoshiro256pp};
        let mut rng = Xoshiro256pp::seed_from_u64(5);
        for _ in 0..20 {
            let n = 2 + rng.gen_index(8);
            let mut m = ComplexMatrix::zeros(n);
            for i in 0..n {
                for j in 0..n {
                    m.add(
                        i,
                        j,
                        Complex::new(rng.gen_range(-1.0, 1.0), rng.gen_range(-1.0, 1.0)),
                    );
                }
                // Diagonal dominance for guaranteed solvability.
                m.add(i, i, Complex::from_real(n as f64 + 2.0));
            }
            let b: Vec<Complex> = (0..n)
                .map(|_| Complex::new(rng.gen_range(-5.0, 5.0), rng.gen_range(-5.0, 5.0)))
                .collect();
            let x = m.solve(&b).unwrap();
            // Residual check.
            for i in 0..n {
                let mut acc = Complex::ZERO;
                for j in 0..n {
                    acc += m.get(i, j) * x[j];
                }
                assert!(
                    (acc - b[i]).abs() < 1e-9,
                    "row {i} residual {}",
                    (acc - b[i]).abs()
                );
            }
        }
    }

    #[test]
    fn clear_and_accessors() {
        let mut m = ComplexMatrix::zeros(2);
        m.add(0, 0, Complex::ONE);
        assert_eq!(m.get(0, 0), Complex::ONE);
        assert_eq!(m.dim(), 2);
        m.clear();
        assert_eq!(m.get(0, 0), Complex::ZERO);
    }
}
