//! Gate classification: the superposition / non-superposition split.
//!
//! Paper §III-C: "Gate operations, such as CNOT, diagonal matrices, and
//! permutations do not create superposition and can directly alter the
//! state vector using linear swapping and scaling. […] gate operations
//! that result in superposition, such as non-diagonal matrices and
//! rotators, will fall back to the use of state transformation matrix."

use qtask_num::{Complex64, Mat2};

/// Numerical tolerance for recognizing zero matrix entries. Rotation
/// parameters are exact machine floats, so `sin(π/2 · k)` lands within a
/// few ulps of 0/±1; 1e-12 gives comfortable slack without misclassifying
/// genuinely small rotations.
pub const CLASSIFY_TOL: f64 = 1e-12;

/// How a (possibly controlled) single-target gate acts on an amplitude
/// pair `(a_i, a_j)` with `j = i | 1<<target`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GateClass {
    /// No effect at all (e.g. `RZ(0)`, `id`).
    Identity,
    /// `a_i *= d0; a_j *= d1` — diagonal matrix, pure scaling.
    Diagonal {
        /// Scale for the target-bit-0 amplitude.
        d0: Complex64,
        /// Scale for the target-bit-1 amplitude.
        d1: Complex64,
    },
    /// `a_i' = a01 · a_j; a_j' = a10 · a_i` — anti-diagonal matrix,
    /// swap with scaling (X, Y, CNOT, `RX(π)`…).
    AntiDiagonal {
        /// Top-right matrix entry.
        a01: Complex64,
        /// Bottom-left matrix entry.
        a10: Complex64,
    },
    /// Full 2×2 matrix — creates superposition; applied to amplitude pairs.
    Dense(Mat2),
    /// SWAP-family permutation on two targets.
    SwapPerm,
}

impl GateClass {
    /// Classifies a concrete 2×2 matrix.
    pub fn of_matrix(m: &Mat2) -> GateClass {
        let tol = CLASSIFY_TOL;
        if m.is_diagonal(tol) {
            let (d0, d1) = (m.at(0, 0), m.at(1, 1));
            if d0.is_one(tol) && d1.is_one(tol) {
                GateClass::Identity
            } else {
                GateClass::Diagonal { d0, d1 }
            }
        } else if m.is_antidiagonal(tol) {
            GateClass::AntiDiagonal {
                a01: m.at(0, 1),
                a10: m.at(1, 0),
            }
        } else {
            GateClass::Dense(*m)
        }
    }

    /// True for the classes applied by pair swapping/scaling.
    pub fn is_linear_update(&self) -> bool {
        !matches!(self, GateClass::Dense(_))
    }

    /// For diagonal gates: true if the bit-0 amplitudes are untouched
    /// (`d0 == 1`), so only half the states need visiting (Z, S, T, CZ…).
    pub fn diagonal_touches_only_ones(&self) -> bool {
        match self {
            GateClass::Diagonal { d0, .. } => d0.is_one(CLASSIFY_TOL),
            _ => false,
        }
    }

    /// For diagonal gates: true if the bit-1 amplitudes are untouched.
    pub fn diagonal_touches_only_zeros(&self) -> bool {
        match self {
            GateClass::Diagonal { d1, .. } => d1.is_one(CLASSIFY_TOL),
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices;
    use qtask_num::c64;
    use std::f64::consts::PI;

    #[test]
    fn classify_standard_gates() {
        assert_eq!(GateClass::of_matrix(&Mat2::IDENTITY), GateClass::Identity);
        match GateClass::of_matrix(&matrices::z()) {
            GateClass::Diagonal { d0, d1 } => {
                assert!(d0.is_one(1e-12));
                assert!(d1.approx_eq(c64(-1.0, 0.0), 1e-12));
            }
            other => panic!("Z classified as {other:?}"),
        }
        match GateClass::of_matrix(&matrices::x()) {
            GateClass::AntiDiagonal { a01, a10 } => {
                assert!(a01.is_one(1e-12) && a10.is_one(1e-12));
            }
            other => panic!("X classified as {other:?}"),
        }
        assert!(matches!(
            GateClass::of_matrix(&matrices::h()),
            GateClass::Dense(_)
        ));
    }

    #[test]
    fn rotation_edge_angles() {
        assert_eq!(
            GateClass::of_matrix(&matrices::rx(0.0)),
            GateClass::Identity
        );
        assert!(matches!(
            GateClass::of_matrix(&matrices::rx(PI)),
            GateClass::AntiDiagonal { .. }
        ));
        assert!(matches!(
            GateClass::of_matrix(&matrices::rx(2.0 * PI)),
            GateClass::Diagonal { .. } // RX(2π) = −I: diagonal, not identity
        ));
        assert!(matches!(
            GateClass::of_matrix(&matrices::rx(PI / 2.0)),
            GateClass::Dense(_)
        ));
        // RZ is diagonal for every angle.
        for theta in [0.1, 1.0, PI, 2.5 * PI] {
            assert!(GateClass::of_matrix(&matrices::rz(theta)).is_linear_update());
        }
    }

    #[test]
    fn one_sided_diagonal_detection() {
        let s = GateClass::of_matrix(&matrices::s());
        assert!(s.diagonal_touches_only_ones());
        assert!(!s.diagonal_touches_only_zeros());
        let rz = GateClass::of_matrix(&matrices::rz(0.5));
        assert!(!rz.diagonal_touches_only_ones());
        assert!(!rz.diagonal_touches_only_zeros());
        // diag(e^{iλ}, 1): only-zeros case.
        let m = Mat2::new(
            Complex64::exp_i(0.5),
            Complex64::ZERO,
            Complex64::ZERO,
            Complex64::ONE,
        );
        assert!(GateClass::of_matrix(&m).diagonal_touches_only_zeros());
    }
}
