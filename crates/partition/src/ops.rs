//! Lowering gates to concrete state-vector operations.

use crate::pattern::ItemPattern;
use qtask_gates::{GateClass, GateKind};
use qtask_num::{Complex64, Mat2};

/// A state-vector operation on single amplitudes or amplitude pairs:
/// scaling and swapping (the non-superposition gates), or a 2×2 matrix
/// over each pair (a superposition gate).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LinearOp {
    /// Scale amplitudes: indices with `controls` set are multiplied by
    /// `d0`/`d1` according to their `target` bit. When one factor is 1 the
    /// pattern skips that half entirely (Z, S, T, CZ touch only the
    /// target=1 half).
    Diag {
        /// Control bit mask (must all be 1).
        controls: u64,
        /// Target qubit.
        target: u8,
        /// Scale when the target bit is 0.
        d0: Complex64,
        /// Scale when the target bit is 1.
        d1: Complex64,
    },
    /// Swap-and-scale pairs `(i, i|1<<target)` where `controls` are set:
    /// `a_i' = a01 · a_j`, `a_j' = a10 · a_i` (X, Y, CNOT, CCX, RX(π)…).
    AntiDiag {
        /// Control bit mask.
        controls: u64,
        /// Target qubit.
        target: u8,
        /// Top-right matrix entry.
        a01: Complex64,
        /// Bottom-left matrix entry.
        a10: Complex64,
    },
    /// Exchange amplitudes of pairs differing in exactly bits `a`/`b`
    /// (SWAP, Fredkin with controls).
    Swap {
        /// Control bit mask.
        controls: u64,
        /// Lower target qubit index.
        t_lo: u8,
        /// Higher target qubit index.
        t_hi: u8,
    },
    /// Apply `mat` to pairs `(i, i|1<<target)` where `controls` are set
    /// (H, RY, U3, CH…): a superposition gate, on AntiDiag's pairs.
    Dense {
        /// Control bit mask.
        controls: u64,
        /// Target qubit.
        target: u8,
        /// The 2×2 matrix applied to each pair.
        mat: Mat2,
    },
}

impl LinearOp {
    /// The touched-item pattern for an `n_qubits` state vector.
    pub fn pattern(&self, n_qubits: u8) -> ItemPattern {
        let universe = if n_qubits == 64 {
            u64::MAX
        } else {
            (1u64 << n_qubits) - 1
        };
        match *self {
            LinearOp::Diag {
                controls,
                target,
                d0,
                d1,
            } => {
                let tol = qtask_gates::class::CLASSIFY_TOL;
                let tbit = 1u64 << target;
                if d0.is_one(tol) {
                    // Only the target=1 half is touched.
                    ItemPattern {
                        base: controls | tbit,
                        free_mask: universe & !controls & !tbit,
                        partner_clear: 0,
                        partner_set: 0,
                    }
                } else if d1.is_one(tol) {
                    ItemPattern {
                        base: controls,
                        free_mask: universe & !controls & !tbit,
                        partner_clear: 0,
                        partner_set: 0,
                    }
                } else {
                    // Both halves touched: enumerate every controls-set index.
                    ItemPattern {
                        base: controls,
                        free_mask: universe & !controls,
                        partner_clear: 0,
                        partner_set: 0,
                    }
                }
            }
            LinearOp::AntiDiag {
                controls, target, ..
            }
            | LinearOp::Dense {
                controls, target, ..
            } => {
                let tbit = 1u64 << target;
                ItemPattern {
                    base: controls,
                    free_mask: universe & !controls & !tbit,
                    partner_clear: 0,
                    partner_set: tbit,
                }
            }
            LinearOp::Swap {
                controls,
                t_lo,
                t_hi,
            } => {
                let (lo_bit, hi_bit) = (1u64 << t_lo, 1u64 << t_hi);
                ItemPattern {
                    base: controls | lo_bit,
                    free_mask: universe & !controls & !lo_bit & !hi_bit,
                    partner_clear: lo_bit,
                    partner_set: hi_bit,
                }
            }
        }
    }

    /// Applies one item (by its low index) in place on a flat state.
    #[inline]
    pub fn apply_item(&self, state: &mut [Complex64], low: usize, high: usize) {
        match *self {
            LinearOp::Diag { target, d0, d1, .. } => {
                let d = if low & (1usize << target) != 0 {
                    d1
                } else {
                    d0
                };
                state[low] *= d;
            }
            LinearOp::AntiDiag { a01, a10, .. } => {
                let (ai, aj) = (state[low], state[high]);
                state[low] = a01 * aj;
                state[high] = a10 * ai;
            }
            LinearOp::Swap { .. } => {
                state.swap(low, high);
            }
            LinearOp::Dense { mat, .. } => {
                (state[low], state[high]) = mat.apply(state[low], state[high]);
            }
        }
    }
}

/// Result of lowering a gate instance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LoweredGate {
    /// No state change (identity, `RZ(0)`, …): no row is created.
    Identity,
    /// Any other gate: one op over amplitudes or amplitude pairs.
    Linear(LinearOp),
}

/// Lowers a gate kind with concrete operands. `controls_mask` is the OR of
/// control qubit bits; `targets` is 1 qubit (or 2 for the swap family).
pub fn lower_gate(kind: GateKind, controls_mask: u64, targets: &[u8]) -> LoweredGate {
    match kind.classify() {
        GateClass::Identity => LoweredGate::Identity,
        GateClass::Diagonal { d0, d1 } => LoweredGate::Linear(LinearOp::Diag {
            controls: controls_mask,
            target: targets[0],
            d0,
            d1,
        }),
        GateClass::AntiDiagonal { a01, a10 } => LoweredGate::Linear(LinearOp::AntiDiag {
            controls: controls_mask,
            target: targets[0],
            a01,
            a10,
        }),
        GateClass::SwapPerm => {
            let (a, b) = (targets[0], targets[1]);
            LoweredGate::Linear(LinearOp::Swap {
                controls: controls_mask,
                t_lo: a.min(b),
                t_hi: a.max(b),
            })
        }
        GateClass::Dense(mat) => LoweredGate::Linear(LinearOp::Dense {
            controls: controls_mask,
            target: targets[0],
            mat,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn cnot_lowers_to_antidiag() {
        match lower_gate(GateKind::Cx, 1 << 4, &[3]) {
            LoweredGate::Linear(LinearOp::AntiDiag {
                controls,
                target,
                a01,
                a10,
            }) => {
                assert_eq!(controls, 0b10000);
                assert_eq!(target, 3);
                assert!(a01.is_one(1e-12) && a10.is_one(1e-12));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn z_family_lowers_to_diag() {
        match lower_gate(GateKind::S, 0, &[2]) {
            LoweredGate::Linear(LinearOp::Diag { d0, d1, target, .. }) => {
                assert_eq!(target, 2);
                assert!(d0.is_one(1e-12));
                assert!(d1.approx_eq(Complex64::I, 1e-12));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn rx_angle_dependent() {
        assert!(matches!(
            lower_gate(GateKind::Rx(0.0), 0, &[0]),
            LoweredGate::Identity
        ));
        assert!(matches!(
            lower_gate(GateKind::Rx(PI), 0, &[0]),
            LoweredGate::Linear(LinearOp::AntiDiag { .. })
        ));
        assert!(matches!(
            lower_gate(GateKind::Rx(PI / 3.0), 0, &[0]),
            LoweredGate::Linear(LinearOp::Dense { .. })
        ));
    }

    #[test]
    fn swap_normalizes_targets() {
        match lower_gate(GateKind::Swap, 0, &[5, 2]) {
            LoweredGate::Linear(LinearOp::Swap { t_lo, t_hi, .. }) => {
                assert_eq!((t_lo, t_hi), (2, 5));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn diag_patterns_skip_halves() {
        // Z touches only target=1 half.
        let op = LinearOp::Diag {
            controls: 0,
            target: 1,
            d0: Complex64::ONE,
            d1: -Complex64::ONE,
        };
        let p = op.pattern(3);
        let lows: Vec<u64> = p.iter_lows(0..p.num_items()).collect();
        assert_eq!(lows, vec![2, 3, 6, 7]);
        // RZ touches everything.
        let op = LinearOp::Diag {
            controls: 0,
            target: 1,
            d0: Complex64::exp_i(-0.3),
            d1: Complex64::exp_i(0.3),
        };
        let p = op.pattern(3);
        assert_eq!(p.num_items(), 8);
    }

    #[test]
    fn ccx_pattern() {
        // CCX controls {0,1}, target 2, on 3 qubits: single pair (3, 7).
        let op = LinearOp::AntiDiag {
            controls: 0b011,
            target: 2,
            a01: Complex64::ONE,
            a10: Complex64::ONE,
        };
        let p = op.pattern(3);
        assert_eq!(p.num_items(), 1);
        assert_eq!(p.nth_low(0), 3);
        assert_eq!(p.partner(3), 7);
    }
}
