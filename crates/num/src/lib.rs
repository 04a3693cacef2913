//! Dense and sparse linear algebra for circuit simulation.
//!
//! Modified nodal analysis produces small, moderately sparse, highly
//! ill-scaled systems (conductances from 1e-12 S gmin up to 1e3 S companion
//! conductances). This crate provides exactly the two factorizations a
//! SPICE-class engine needs:
//!
//! * [`DenseMatrix`] with partially pivoted LU — the default for the
//!   < 100-node circuits this workspace characterizes, where dense wins on
//!   constant factors;
//! * [`CscMatrix`] with a left-looking Gilbert–Peierls sparse LU
//!   ([`SparseLu`]) for larger decks parsed from SPICE files.
//!
//! Both are validated against each other by property tests.
//!
//! # Example
//!
//! ```
//! use vls_num::DenseMatrix;
//!
//! # fn main() -> Result<(), vls_num::NumError> {
//! let mut a = DenseMatrix::zeros(2);
//! a.set(0, 0, 2.0);
//! a.set(0, 1, 1.0);
//! a.set(1, 0, 1.0);
//! a.set(1, 1, 3.0);
//! let x = a.factorize()?.solve(&[5.0, 10.0]);
//! assert!((x[0] - 1.0).abs() < 1e-12 && (x[1] - 3.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod complex;
mod dense;
pub mod order;
pub mod rng;
mod sparse;
mod splu;
mod stats;
mod vecops;

pub use complex::{Complex, ComplexMatrix};
pub use dense::{DenseLu, DenseMatrix};
pub use order::{invert_permutation, is_identity, min_degree};
pub use sparse::{CscMatrix, TripletMatrix};
pub use splu::SparseLu;
pub use stats::SolverStats;
pub use vecops::{norm_inf, norm_two, weighted_converged};

/// Errors produced by the factorizations in this crate.
#[derive(Debug, Clone, PartialEq)]
pub enum NumError {
    /// The matrix is numerically singular; the payload is the pivot
    /// column at which elimination broke down.
    Singular(usize),
    /// Operand dimensions do not agree.
    DimensionMismatch {
        /// What the operation expected.
        expected: usize,
        /// What it received.
        found: usize,
    },
}

impl core::fmt::Display for NumError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            NumError::Singular(k) => {
                write!(f, "matrix is numerically singular at pivot column {k}")
            }
            NumError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
        }
    }
}

impl std::error::Error for NumError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_descriptive() {
        assert_eq!(
            NumError::Singular(3).to_string(),
            "matrix is numerically singular at pivot column 3"
        );
        assert_eq!(
            NumError::DimensionMismatch {
                expected: 4,
                found: 2
            }
            .to_string(),
            "dimension mismatch: expected 4, found 2"
        );
    }
}
