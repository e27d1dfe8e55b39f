//! Flat state-vector kernels.
//!
//! These apply lowered ops to a plain `&mut [Complex64]`. The qTask engine
//! uses block-structured variants; the baseline simulators and the test
//! oracle use these directly, so the same lowering logic is exercised by
//! every simulator in the workspace.

use crate::ops::{lower_gate, LinearOp, LoweredGate};
use qtask_gates::GateKind;
use qtask_num::{slices, Complex64, Mat2};

/// Applies a linear op to the whole state, serially, via the batched
/// run-decomposed kernels.
pub fn apply_linear(op: &LinearOp, n_qubits: u8, state: &mut [Complex64]) {
    debug_assert_eq!(state.len(), 1usize << n_qubits);
    let pattern = op.pattern(n_qubits);
    apply_linear_runs(op, n_qubits, state, 0..pattern.num_items());
}

/// Scales a contiguous run whose first element has global state index
/// `start`: elements whose `target` bit is 0 scale by `d0`, the rest by
/// `d1`. The run decomposes into aligned stretches of `2^target` elements
/// sharing one factor, each scaled as a slice.
pub fn scale_diag_run(
    run: &mut [Complex64],
    start: usize,
    target: u8,
    d0: Complex64,
    d1: Complex64,
) {
    let period = 1usize << target;
    let mut i = 0;
    while i < run.len() {
        let idx = start + i;
        let d = if idx & period != 0 { d1 } else { d0 };
        let stretch = (period - (idx & (period - 1))).min(run.len() - i);
        slices::scale_slice(&mut run[i..i + stretch], d);
        i += stretch;
    }
}

/// Applies a linear op's rank range through the batched path: the range
/// decomposes into contiguous low-index runs ([`ItemPattern::iter_runs`])
/// applied as whole-slice scales, swaps or butterflies. Falls back to the scalar
/// item loop when runs degenerate to single items. Result is amplitude-
/// identical to [`apply_linear_ranks`] (same operations, same order).
///
/// [`ItemPattern::iter_runs`]: crate::pattern::ItemPattern::iter_runs
pub fn apply_linear_runs(
    op: &LinearOp,
    n_qubits: u8,
    state: &mut [Complex64],
    ranks: std::ops::Range<u64>,
) {
    let pattern = op.pattern(n_qubits);
    if pattern.run_len_log2() == 0 {
        return apply_linear_ranks(op, n_qubits, state, ranks);
    }
    for run in pattern.iter_runs(ranks) {
        let (low, len) = (run.low_start as usize, run.len as usize);
        match *op {
            LinearOp::Diag { target, d0, d1, .. } => {
                scale_diag_run(&mut state[low..low + len], low, target, d0, d1);
            }
            LinearOp::AntiDiag { a01, a10, .. } => {
                let high = pattern.partner(run.low_start) as usize;
                debug_assert!(low + len <= high);
                let (a, b) = state.split_at_mut(high);
                slices::butterfly_slices(&mut a[low..low + len], &mut b[..len], a01, a10);
            }
            LinearOp::Swap { .. } => {
                let high = pattern.partner(run.low_start) as usize;
                debug_assert!(low + len <= high);
                let (a, b) = state.split_at_mut(high);
                a[low..low + len].swap_with_slice(&mut b[..len]);
            }
            LinearOp::Dense { mat, .. } => {
                let high = pattern.partner(run.low_start) as usize;
                debug_assert!(low + len <= high);
                let (a, b) = state.split_at_mut(high);
                slices::mat2_butterfly_slices(
                    &mut a[low..low + len],
                    &mut b[..len],
                    mat.at(0, 0),
                    mat.at(0, 1),
                    mat.at(1, 0),
                    mat.at(1, 1),
                );
            }
        }
    }
}

/// Applies a linear op to the items in `ranks` only. Disjoint rank ranges
/// touch disjoint amplitudes, which is what makes chunked parallel
/// application safe.
pub fn apply_linear_ranks(
    op: &LinearOp,
    n_qubits: u8,
    state: &mut [Complex64],
    ranks: std::ops::Range<u64>,
) {
    let pattern = op.pattern(n_qubits);
    for low in pattern.iter_lows(ranks) {
        let high = pattern.partner(low);
        op.apply_item(state, low as usize, high as usize);
    }
}

/// The pair pattern of a dense single-target gate (its butterfly sites).
pub fn dense_pattern(controls: u64, target: u8, n_qubits: u8) -> crate::pattern::ItemPattern {
    let universe = (1u64 << n_qubits) - 1;
    let tbit = 1u64 << target;
    crate::pattern::ItemPattern {
        base: controls,
        free_mask: universe & !controls & !tbit,
        partner_clear: 0,
        partner_set: tbit,
    }
}

/// Applies a dense gate's pair ranks through the batched path: whole-run
/// 2×2 butterflies over the two slices of each run. Amplitude-identical
/// to [`apply_dense_ranks`].
pub fn apply_dense_runs(
    controls: u64,
    target: u8,
    mat: &Mat2,
    n_qubits: u8,
    state: &mut [Complex64],
    ranks: std::ops::Range<u64>,
) {
    debug_assert_eq!(state.len(), 1usize << n_qubits);
    let op = LinearOp::Dense {
        controls,
        target,
        mat: *mat,
    };
    apply_linear_runs(&op, n_qubits, state, ranks);
}

/// Applies a dense gate to the pair ranks in `ranks` only; disjoint rank
/// ranges touch disjoint amplitude pairs (parallel-safe chunking).
pub fn apply_dense_ranks(
    controls: u64,
    target: u8,
    mat: &Mat2,
    n_qubits: u8,
    state: &mut [Complex64],
    ranks: std::ops::Range<u64>,
) {
    debug_assert_eq!(state.len(), 1usize << n_qubits);
    let op = LinearOp::Dense {
        controls,
        target,
        mat: *mat,
    };
    apply_linear_ranks(&op, n_qubits, state, ranks);
}

/// Applies one gate (any supported kind) to a flat state vector —
/// lowering, classification and dispatch included.
pub fn apply_gate(kind: GateKind, controls_mask: u64, targets: &[u8], state: &mut [Complex64]) {
    let n_qubits = state.len().trailing_zeros() as u8;
    match lower_gate(kind, controls_mask, targets) {
        LoweredGate::Identity => {}
        LoweredGate::Linear(op) => apply_linear(&op, n_qubits, state),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qtask_num::dense::DenseMatrix;
    use qtask_num::vecops;
    use std::f64::consts::PI;

    fn random_state(n: u8, seed: u64) -> Vec<Complex64> {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut v: Vec<Complex64> = (0..1usize << n)
            .map(|_| Complex64 {
                re: rng.random::<f64>() - 0.5,
                im: rng.random::<f64>() - 0.5,
            })
            .collect();
        let norm = vecops::norm_sqr(&v).sqrt();
        for z in &mut v {
            *z = z.scale(1.0 / norm);
        }
        v
    }

    /// Every gate kernel must agree with the dense-matrix oracle.
    #[test]
    fn kernels_match_dense_oracle() {
        let n = 5u8;
        let cases: Vec<(GateKind, Vec<u8>)> = vec![
            (GateKind::X, vec![2]),
            (GateKind::Y, vec![0]),
            (GateKind::Z, vec![4]),
            (GateKind::H, vec![3]),
            (GateKind::S, vec![1]),
            (GateKind::T, vec![2]),
            (GateKind::Rx(0.7), vec![1]),
            (GateKind::Rx(PI), vec![1]),
            (GateKind::Ry(1.3), vec![4]),
            (GateKind::Rz(0.9), vec![0]),
            (GateKind::P(0.4), vec![3]),
            (GateKind::U3(0.3, 0.8, 1.1), vec![2]),
            (GateKind::Cx, vec![4, 3]),
            (GateKind::Cx, vec![0, 4]),
            (GateKind::Cz, vec![1, 3]),
            (GateKind::Ch, vec![2, 0]),
            (GateKind::Cp(0.6), vec![3, 1]),
            (GateKind::Crz(1.2), vec![0, 2]),
            (GateKind::Ccx, vec![0, 1, 4]),
            (GateKind::Ccz, vec![3, 4, 0]),
            (GateKind::Swap, vec![1, 4]),
            (GateKind::Cswap, vec![2, 0, 3]),
        ];
        for (seed, (kind, qubits)) in cases.into_iter().enumerate() {
            let controls = &qubits[..kind.num_controls()];
            let targets = &qubits[kind.num_controls()..];
            let cmask: u64 = controls.iter().map(|&c| 1u64 << c).sum();
            let mut state = random_state(n, seed as u64);
            let reference = if kind.is_swap_family() {
                DenseMatrix::lift_swap(
                    targets[0] as usize,
                    targets[1] as usize,
                    &controls.iter().map(|&c| c as usize).collect::<Vec<_>>(),
                    n as usize,
                )
            } else {
                DenseMatrix::lift_controlled_1q(
                    &kind.base_matrix().unwrap(),
                    &controls.iter().map(|&c| c as usize).collect::<Vec<_>>(),
                    targets[0] as usize,
                    n as usize,
                )
            };
            let want = reference.matvec(&state);
            apply_gate(kind, cmask, targets, &mut state);
            assert!(
                vecops::approx_eq(&state, &want, 1e-10),
                "{kind:?} on {qubits:?}: max diff {}",
                vecops::max_abs_diff(&state, &want)
            );
        }
    }

    /// The batched run kernels must agree with the scalar item loop on
    /// every op shape, including degenerate-run (target/control at bit 0)
    /// and clipped-subrange cases.
    #[test]
    fn batched_runs_match_scalar_ranks() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        for case in 0..300u64 {
            let n = rng.random_range(2..=9u8);
            let target = rng.random_range(0..n);
            let mut controls = 0u64;
            for q in 0..n {
                if q != target && rng.random_bool(0.25) {
                    controls |= 1 << q;
                }
            }
            let mut scalar = random_state(n, 7000 + case);
            let mut batched = scalar.clone();
            let op = match rng.random_range(0..4) {
                0 => LinearOp::Diag {
                    controls,
                    target,
                    d0: Complex64::exp_i(-0.3),
                    d1: Complex64::exp_i(0.7),
                },
                1 => LinearOp::AntiDiag {
                    controls,
                    target,
                    a01: Complex64::exp_i(0.2),
                    a10: Complex64::exp_i(-1.1),
                },
                2 => LinearOp::Dense {
                    controls,
                    target,
                    mat: GateKind::U3(0.4, 1.1, -0.6).base_matrix().unwrap(),
                },
                _ => {
                    let candidates: Vec<u8> = (0..n)
                        .filter(|q| *q != target && controls & (1 << q) == 0)
                        .collect();
                    let Some(&other) = (!candidates.is_empty())
                        .then(|| &candidates[rng.random_range(0..candidates.len())])
                    else {
                        continue;
                    };
                    LinearOp::Swap {
                        controls,
                        t_lo: target.min(other),
                        t_hi: target.max(other),
                    }
                }
            };
            let total = op.pattern(n).num_items();
            let a = rng.random_range(0..=total);
            let b = rng.random_range(0..=total);
            let ranks = a.min(b)..a.max(b);
            apply_linear_ranks(&op, n, &mut scalar, ranks.clone());
            apply_linear_runs(&op, n, &mut batched, ranks);
            assert!(
                vecops::approx_eq(&scalar, &batched, 1e-14),
                "case {case}: max diff {}",
                vecops::max_abs_diff(&scalar, &batched)
            );
        }
    }

    #[test]
    fn chunked_application_equals_serial() {
        let n = 6u8;
        let op = LinearOp::AntiDiag {
            controls: 1 << 5,
            target: 2,
            a01: Complex64::ONE,
            a10: Complex64::ONE,
        };
        let mut serial = random_state(n, 99);
        let mut chunked = serial.clone();
        apply_linear(&op, n, &mut serial);
        let total = op.pattern(n).num_items();
        let mut start = 0;
        while start < total {
            let end = (start + 3).min(total);
            apply_linear_ranks(&op, n, &mut chunked, start..end);
            start = end;
        }
        assert!(vecops::approx_eq(&serial, &chunked, 1e-14));
    }

    #[test]
    fn norm_preserved_by_every_sample_kind() {
        for (i, kind) in GateKind::samples().into_iter().enumerate() {
            let n = 4u8;
            let mut state = random_state(n, 1000 + i as u64);
            let arity = kind.arity();
            let qubits: Vec<u8> = (0..arity as u8).collect();
            let cmask: u64 = qubits[..kind.num_controls()]
                .iter()
                .map(|&c| 1u64 << c)
                .sum();
            apply_gate(kind, cmask, &qubits[kind.num_controls()..], &mut state);
            let norm = vecops::norm_sqr(&state);
            assert!((norm - 1.0).abs() < 1e-10, "{kind:?} broke norm: {norm}");
        }
    }

    #[test]
    fn ghz_pipeline() {
        // H(0); CX(0,1); CX(1,2) on |000> -> GHZ.
        let mut state = vecops::ket_zero(3);
        apply_gate(GateKind::H, 0, &[0], &mut state);
        apply_gate(GateKind::Cx, 1 << 0, &[1], &mut state);
        apply_gate(GateKind::Cx, 1 << 1, &[2], &mut state);
        let inv = 1.0 / 2.0f64.sqrt();
        assert!((state[0].re - inv).abs() < 1e-12);
        assert!((state[7].re - inv).abs() < 1e-12);
        assert!(state.iter().skip(1).take(6).all(|z| z.is_zero(1e-12)));
    }
}
