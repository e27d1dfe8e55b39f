//! Numeric kernel for qTask: complex amplitudes and small unitaries.
//!
//! The simulator stores quantum states as vectors of [`Complex64`]
//! amplitudes and describes gates with 2×2 ([`Mat2`]) and 4×4 ([`Mat4`])
//! unitary matrices. [`dense`] provides naive full-size matrices built by
//! Kronecker products — exponential in qubit count, intended for the test
//! oracle and for validating the on-the-fly row derivation of the core
//! engine (paper §III-C). [`slices`] provides the batched (autovectorized)
//! whole-run primitives behind the engine's and the baselines' kernels.

#![forbid(unsafe_code)]

pub mod complex;
pub mod dense;
pub mod mat;
pub mod slices;
pub mod vecops;

pub use complex::{c64, Complex64};
pub use dense::DenseMatrix;
pub use mat::{Mat2, Mat4};
