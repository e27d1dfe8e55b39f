//! A serial reference simulator — the workspace's ground-truth oracle.

use crate::common::{circuit_and_state, Simulator};
use qtask_circuit::{Circuit, CircuitError, GateId, NetId};
use qtask_gates::GateKind;
use qtask_num::{vecops, Complex64};
use qtask_partition::kernels;

/// Serial full re-simulation with the shared flat kernels. No
/// parallelism, no incrementality — just obviously correct.
pub struct NaiveSim {
    circuit: Circuit,
    state: Vec<Complex64>,
}

impl NaiveSim {
    /// Creates an oracle for `num_qubits` qubits.
    pub fn new(num_qubits: u8) -> NaiveSim {
        NaiveSim {
            circuit: Circuit::new(num_qubits),
            state: vecops::ket_zero(num_qubits as usize),
        }
    }

    /// Read access to the wrapped circuit.
    pub fn circuit(&self) -> &Circuit {
        &self.circuit
    }
}

impl Simulator for NaiveSim {
    fn name(&self) -> &str {
        "naive"
    }

    fn update_state(&mut self) {
        self.state = vecops::ket_zero(self.num_qubits() as usize);
        for (_, gate) in self.circuit.ordered_gates() {
            kernels::apply_gate(
                gate.kind(),
                gate.control_mask(),
                gate.targets(),
                &mut self.state,
            );
        }
    }

    circuit_and_state!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ghz_state() {
        let mut sim = NaiveSim::new(3);
        let n1 = sim.push_net();
        let n2 = sim.push_net();
        let n3 = sim.push_net();
        sim.insert_gate(GateKind::H, n1, &[0]).unwrap();
        sim.insert_gate(GateKind::Cx, n2, &[0, 1]).unwrap();
        sim.insert_gate(GateKind::Cx, n3, &[1, 2]).unwrap();
        sim.update_state();
        let inv = 1.0 / 2.0f64.sqrt();
        assert!((sim.amplitude(0).re - inv).abs() < 1e-12);
        assert!((sim.amplitude(7).re - inv).abs() < 1e-12);
    }

    #[test]
    fn update_resets_state() {
        let mut sim = NaiveSim::new(2);
        let n1 = sim.push_net();
        let g = sim.insert_gate(GateKind::X, n1, &[0]).unwrap();
        sim.update_state();
        assert!(sim.amplitude(1).is_one(1e-12));
        sim.remove_gate(g).unwrap();
        sim.update_state();
        assert!(sim.amplitude(0).is_one(1e-12));
    }
}
