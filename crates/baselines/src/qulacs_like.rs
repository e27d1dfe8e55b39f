//! `QulacsLike`: a fast full re-simulation baseline.
//!
//! Models what the paper's Qulacs comparison relies on: an optimized flat
//! state vector with specialized kernels per gate class, multi-threaded
//! with a synchronization barrier *between* gates (§IV-D contrasts
//! qTask's whole-graph scheduling with Qulacs "synchronizing work between
//! levels"). Every `update_state` re-simulates from |0…0⟩: no
//! incrementality, exactly like the real tool. Each task runs the serial
//! kernels on its own sub-state, or a high gate's runs on its own `&mut`
//! pairs, through the same batched [`qtask_num::slices`] primitives the
//! qTask engine uses (so the comparison stays fair), and the state stays
//! `==` the serial oracle's.

use crate::common::{apply_pairs, circuit_and_state, top_qubit, Fan, Piece, Simulator};
use qtask_circuit::{Circuit, CircuitError, GateId, NetId};
use qtask_gates::GateKind;
use qtask_num::{slices, vecops, Complex64};
use qtask_partition::kernels;
use qtask_partition::{lower_gate, LinearOp, LoweredGate};
use qtask_taskflow::Executor;
use std::sync::Arc;

/// A Qulacs-style baseline: specialized kernels, per-gate parallel-for
/// with inter-gate barriers, full re-simulation per update.
pub struct QulacsLike {
    circuit: Circuit,
    state: Vec<Complex64>,
    fan: Fan,
}

impl QulacsLike {
    /// Creates a baseline with its own executor.
    pub fn new(num_qubits: u8, num_threads: usize) -> QulacsLike {
        QulacsLike::with_executor(num_qubits, Arc::new(Executor::new(num_threads)))
    }

    /// Creates a baseline sharing an executor.
    pub fn with_executor(num_qubits: u8, executor: Arc<Executor>) -> QulacsLike {
        QulacsLike {
            circuit: Circuit::new(num_qubits),
            state: vecops::ket_zero(num_qubits as usize),
            fan: Fan::new(executor, "qulacs-gate"),
        }
    }

    /// Read access to the wrapped circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }

    fn apply_gate_parallel(&mut self, kind: GateKind, controls: u64, targets: &[u8]) {
        let n = self.num_qubits();
        let gate = lower_gate(kind, controls, targets);
        let pattern = match gate {
            LoweredGate::Identity => return,
            LoweredGate::Linear(op) => op.pattern(n),
        };
        let top = top_qubit(controls, targets);
        // The serial dense kernel goes item by item when runs are single
        // items; the pieces of a high gate do the same.
        let by_item = pattern.run_len_log2() == 0;
        let apply = |piece: Piece<'_>| match piece {
            Piece::Sub(block) => kernels::apply_gate(kind, controls, targets, block),
            Piece::Part(part) => part.for_each_run(&pattern, |at, lo, hi| match gate {
                LoweredGate::Linear(LinearOp::Diag { target, d0, d1, .. }) => {
                    kernels::scale_diag_run(lo, at, target, d0, d1)
                }
                LoweredGate::Linear(LinearOp::AntiDiag { a01, a10, .. }) => {
                    slices::butterfly_slices(lo, hi, a01, a10)
                }
                LoweredGate::Linear(LinearOp::Swap { .. }) => lo.swap_with_slice(hi),
                LoweredGate::Linear(LinearOp::Dense { mat, .. }) if by_item => {
                    apply_pairs(&mat, lo, hi)
                }
                LoweredGate::Linear(LinearOp::Dense { mat, .. }) => slices::mat2_butterfly_slices(
                    lo,
                    hi,
                    mat.at(0, 0),
                    mat.at(0, 1),
                    mat.at(1, 0),
                    mat.at(1, 1),
                ),
                LoweredGate::Identity => {}
            }),
        };
        self.fan.run(&mut self.state, &pattern, top, &apply);
    }
}

impl Simulator for QulacsLike {
    fn name(&self) -> &str {
        "qulacs-like"
    }

    fn update_state(&mut self) {
        self.state = vecops::ket_zero(self.num_qubits() as usize);
        let gates: Vec<(GateKind, u64, Vec<u8>)> = self
            .circuit
            .ordered_gates()
            .map(|(_, g)| (g.kind(), g.control_mask(), g.targets().to_vec()))
            .collect();
        for (kind, controls, targets) in gates {
            // Barrier between gates: `Fan::run` blocks until the gate's
            // parallel-for completes (the Qulacs synchronization model).
            self.apply_gate_parallel(kind, controls, &targets);
        }
    }

    circuit_and_state!();
}
