//! `QiskitLike`: a generic-dispatch full re-simulation baseline.
//!
//! Reproduces the behaviour Table III attributes to Qiskit relative to
//! Qulacs: correct results with a consistently larger constant factor.
//! Two honestly-derived sources of overhead: every gate goes through the
//! *generic* dense 2×2 path (no diagonal/anti-diagonal specialization —
//! a Z gate costs as much as an H), and application is functional — each
//! gate reads an input buffer and writes a separate output buffer, the
//! style of a matrix-pipeline backend. Each task updates its own `&mut`
//! pieces of the output buffer, one item at a time.

use crate::common::{apply_pairs, circuit_and_state, top_qubit, Fan, Piece, Simulator};
use qtask_circuit::{Circuit, CircuitError, Gate, GateId, NetId};
use qtask_gates::GateKind;
use qtask_num::{vecops, Complex64, Mat2};
use qtask_partition::kernels::{apply_dense_ranks, dense_pattern};
use qtask_taskflow::Executor;
use std::sync::Arc;

/// A Qiskit-style baseline: generic matrix dispatch, functional buffer
/// copies, full re-simulation per update.
pub struct QiskitLike {
    circuit: Circuit,
    state: Vec<Complex64>,
    fan: Fan,
}

impl QiskitLike {
    /// Creates a baseline with its own executor.
    pub fn new(num_qubits: u8, num_threads: usize) -> QiskitLike {
        QiskitLike::with_executor(num_qubits, Arc::new(Executor::new(num_threads)))
    }

    /// Creates a baseline sharing an executor.
    pub fn with_executor(num_qubits: u8, executor: Arc<Executor>) -> QiskitLike {
        QiskitLike {
            circuit: Circuit::new(num_qubits),
            state: vecops::ket_zero(num_qubits as usize),
            fan: Fan::new(executor, "qiskit-gate"),
        }
    }

    /// Read access to the wrapped circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    /// Applies one gate functionally: `out = U · in`.
    fn apply_functional(&mut self, gate: &Gate) {
        if gate.kind().is_swap_family() {
            // Decompose SWAP(a,b) = CX(a,b) CX(b,a) CX(a,b), Fredkin via
            // Toffoli sandwich — the generic path has no permutation
            // fast-path, mirroring a matrix-pipeline backend.
            let t = gate.targets();
            let (a, b) = (t[0], t[1]);
            for (c, tgt) in [(a, b), (b, a), (a, b)] {
                let (controls, target, mat) = gate_to_dense(&Gate::new(GateKind::Cx, &[c, tgt]));
                self.dense(controls | gate.control_mask(), target, &mat);
            }
            return;
        }
        let (controls, target, mat) = gate_to_dense(gate);
        self.dense(controls, target, &mat);
    }

    /// `state = U · state` through a fresh output buffer. `out` starts
    /// as a copy of the input and each pair is visited once, so updating
    /// it in place computes the functional product.
    fn dense(&mut self, controls: u64, target: u8, mat: &Mat2) {
        let n = self.num_qubits();
        let pattern = dense_pattern(controls, target, n);
        let mut out = self.state.clone();
        let top = top_qubit(controls, &[target]);
        self.fan.run(&mut out, &pattern, top, &|piece| match piece {
            Piece::Sub(block) => {
                let n = block.len().trailing_zeros() as u8;
                let items = dense_pattern(controls, target, n).num_items();
                apply_dense_ranks(controls, target, mat, n, block, 0..items);
            }
            Piece::Part(part) => part.for_each_run(&pattern, |_, lo, hi| apply_pairs(mat, lo, hi)),
        });
        self.state = out;
    }
}

/// Lowers any non-swap gate to (controls, target, dense 2×2) — the
/// deliberately generic dispatch.
fn gate_to_dense(gate: &Gate) -> (u64, u8, Mat2) {
    (
        gate.control_mask(),
        gate.targets()[0],
        gate.kind().base_matrix().expect("non-swap gate"),
    )
}

impl Simulator for QiskitLike {
    fn name(&self) -> &str {
        "qiskit-like"
    }

    fn update_state(&mut self) {
        self.state = vecops::ket_zero(self.num_qubits() as usize);
        let gates: Vec<Gate> = self.circuit.ordered_gates().map(|(_, g)| *g).collect();
        for gate in &gates {
            if gate.kind() == GateKind::Id {
                continue;
            }
            self.apply_functional(gate);
        }
    }

    circuit_and_state!();
}
