//! Circuit statistics matching the columns of the paper's Table III.

use crate::circuit::Circuit;
use std::collections::BTreeMap;

/// Summary statistics of a circuit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CircuitStats {
    /// Qubit count.
    pub qubits: u8,
    /// Total standard-gate count.
    pub gates: usize,
    /// Number of CNOT (CX) gates — the entangling-gate column of Table III.
    pub cnots: usize,
    /// Number of nets (circuit depth).
    pub nets: usize,
    /// Number of gates that create superposition (2×2 pair rows).
    pub superposition_gates: usize,
    /// Gate histogram by QASM name.
    pub by_kind: BTreeMap<&'static str, usize>,
}

impl CircuitStats {
    /// Computes statistics for `circuit`.
    pub fn of(circuit: &Circuit) -> CircuitStats {
        let mut by_kind: BTreeMap<&'static str, usize> = BTreeMap::new();
        let mut cnots = 0;
        let mut superposition_gates = 0;
        for (_, g) in circuit.ordered_gates() {
            *by_kind.entry(g.kind().qasm_name()).or_insert(0) += 1;
            if g.kind() == qtask_gates::GateKind::Cx {
                cnots += 1;
            }
            if g.kind().is_superposition() {
                superposition_gates += 1;
            }
        }
        CircuitStats {
            qubits: circuit.num_qubits(),
            gates: circuit.num_gates(),
            cnots,
            nets: circuit.num_nets(),
            superposition_gates,
            by_kind,
        }
    }
}

impl std::fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} qubits, {} gates ({} CNOT, {} superposing), {} nets",
            self.qubits, self.gates, self.cnots, self.superposition_gates, self.nets
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::figure2_circuit;

    #[test]
    fn figure2_stats() {
        let (ckt, _, _) = figure2_circuit();
        let s = CircuitStats::of(&ckt);
        assert_eq!(s.qubits, 5);
        assert_eq!(s.gates, 9);
        assert_eq!(s.cnots, 4);
        assert_eq!(s.nets, 5);
        assert_eq!(s.superposition_gates, 5); // the five Hadamards
        assert_eq!(s.by_kind.get("h"), Some(&5));
        assert_eq!(s.by_kind.get("cx"), Some(&4));
    }
}
