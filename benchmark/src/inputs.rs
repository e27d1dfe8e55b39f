//! Inputs made from the seed, and the fingerprints that pin them.
//!
//! The circuit generators live in `crates/bench-circuits`, outside this
//! benchmark. A change there would silently move every number, so each
//! workload hashes the circuit it was handed and the schedule it drew,
//! and for the default seed compares both with the constants below.

use qtask_baselines::{QulacsLike, Simulator};
use qtask_circuit::{Circuit, GateId, NetId};
use qtask_core::{Ckt, EngineError, SimConfig};
use qtask_gates::GateKind;
use qtask_num::Complex64;

/// The seed the pinned fingerprints belong to, and the one used while
/// this benchmark was built.
pub const DEFAULT_SEED: u64 = 20230515;

pub type Gate = (GateKind, Vec<u8>);

/// The gates of each net, in circuit order.
pub fn levels_of(circuit: &Circuit) -> Vec<Vec<Gate>> {
    circuit
        .net_ids()
        .map(|net| {
            circuit
                .net_gates(net)
                .map(|(_, g)| (g.kind(), g.qubits().to_vec()))
                .collect()
        })
        .collect()
}

/// A circuit loaded into an engine level by level, with the ids an
/// edit needs to take a level out and put it back.
pub struct Loaded {
    levels: Vec<Vec<Gate>>,
    nets: Vec<NetId>,
    /// Gate ids of each level; empty while the level is out.
    gates: Vec<Vec<GateId>>,
}

impl Loaded {
    pub fn load(ckt: &mut Ckt, levels: Vec<Vec<Gate>>) -> Loaded {
        let nets: Vec<NetId> = levels.iter().map(|_| ckt.push_net()).collect();
        let mut loaded = Loaded {
            gates: vec![Vec::new(); levels.len()],
            levels,
            nets,
        };
        for lvl in 0..loaded.levels.len() {
            loaded.toggle(ckt, lvl).expect("generated circuit is valid");
        }
        loaded
    }

    /// Removes the gates of level `lvl` if they are in the circuit,
    /// re-inserts them if they are out (the paper's Fig. 16 edit).
    pub fn toggle(&mut self, ckt: &mut Ckt, lvl: usize) -> Result<(), EngineError> {
        if self.gates[lvl].is_empty() {
            for (kind, qubits) in &self.levels[lvl] {
                let id = ckt.insert_gate(*kind, self.nets[lvl], qubits)?;
                self.gates[lvl].push(id);
            }
        } else {
            for id in self.gates[lvl].drain(..) {
                ckt.remove_gate(id)?;
            }
        }
        Ok(())
    }
}

/// The state a plain full-vector simulator (the Qulacs-like baseline,
/// used here only as the oracle) reaches on `circuit`.
pub fn oracle_state(circuit: &Circuit) -> Vec<Complex64> {
    let mut sim = QulacsLike::new(circuit.num_qubits(), 1);
    for level in levels_of(circuit) {
        let net = sim.push_net();
        for (kind, qubits) in &level {
            sim.insert_gate(*kind, net, qubits)
                .expect("generated circuit is valid");
        }
    }
    sim.update_state();
    sim.state_vec()
}

/// The state a fresh engine reaches on `circuit`: what an edited engine
/// must agree with after any history of edits.
pub fn resimulated_state(circuit: &Circuit) -> Vec<Complex64> {
    let mut ckt = Ckt::from_circuit(circuit, SimConfig::with_threads(1));
    ckt.update_state().expect("fresh simulation");
    ckt.snapshot().state()
}

/// FNV-1a over a stream of 64-bit words, fed byte by byte.
#[derive(Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        // Length first, so ("ab","c") and ("a","bc") differ.
        self.word(bytes.len() as u64);
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn gate(&mut self, (kind, qubits): &Gate) {
        self.bytes(kind.qasm_name().as_bytes());
        for p in kind.params() {
            self.word(p.to_bits());
        }
        self.bytes(qubits);
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Gate count and hash of the `(kind, parameters, qubits)` list, net
/// boundaries included.
pub fn circuit_fingerprint(circuit: &Circuit) -> (usize, u64) {
    let mut h = Fnv::default();
    for level in levels_of(circuit) {
        h.word(level.len() as u64);
        for gate in &level {
            h.gate(gate);
        }
    }
    (circuit.num_gates(), h.finish())
}

/// What a workload was handed: the circuits' fingerprint and the hash
/// of the op schedule drawn from the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fingerprint {
    pub gates: usize,
    pub circuit: u64,
    pub schedule: u64,
}

/// Fingerprints at [`DEFAULT_SEED`] and full size. Regenerate with
/// `--workload NAME --seconds 1` and copy the printed `fingerprint` line
/// only when an input change is intended; every number measured before
/// is then void.
const PINNED: &[(&str, Fingerprint)] = &[
    (
        "full.qft",
        Fingerprint {
            gates: 540,
            circuit: 0xb334_7b50_e602_6b83,
            schedule: 0xcbf2_9ce4_8422_2325,
        },
    ),
    (
        "full.adder",
        Fingerprint {
            gates: 249,
            circuit: 0xb627_c837_2e7d_92ad,
            schedule: 0xcbf2_9ce4_8422_2325,
        },
    ),
    (
        "inc.mixed",
        Fingerprint {
            gates: 540,
            circuit: 0xb334_7b50_e602_6b83,
            schedule: 0x1976_9abe_ef86_32c1,
        },
    ),
    (
        "inc.tail",
        Fingerprint {
            gates: 2062,
            circuit: 0xe264_8b9b_d6a3_e4d8,
            schedule: 0x7f99_6d10_c2d9_b471,
        },
    ),
    (
        "read.beside_write",
        Fingerprint {
            gates: 469,
            circuit: 0x5e2a_e5b6_0a7e_9ee7,
            schedule: 0x42c9_34bd_36fb_722d,
        },
    ),
    (
        "service.mixed",
        Fingerprint {
            gates: 800,
            circuit: 0xe586_f47d_b2e4_0d96,
            schedule: 0x255a_3ea3_5599_367c,
        },
    ),
];

/// Prints the fingerprint; at the default seed and full size it must be
/// the pinned one.
pub fn check_fingerprint(
    workload: &str,
    seed: u64,
    smoke: bool,
    got: Fingerprint,
) -> Result<(), String> {
    println!(
        "# {workload} fingerprint gates={} circuit={:#018x} schedule={:#018x}",
        got.gates, got.circuit, got.schedule
    );
    if seed != DEFAULT_SEED || smoke {
        return Ok(());
    }
    match PINNED.iter().find(|(name, _)| *name == workload) {
        Some((_, want)) if *want == got => Ok(()),
        Some((_, want)) => Err(format!(
            "{workload}: inputs changed: pinned {want:?}, generated {got:?}"
        )),
        None => Err(format!("{workload}: no pinned fingerprint")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_the_published_vectors() {
        // FNV-1a 64 of "" and of "a" (byte-wise, no length prefix).
        assert_eq!(Fnv::default().finish(), 0xcbf2_9ce4_8422_2325);
        let mut h = Fnv::default();
        h.0 = (h.0 ^ u64::from(b'a')).wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn fingerprint_sees_kind_parameter_qubits_and_net_boundaries() {
        let fp = |build: &dyn Fn(&mut Circuit)| {
            let mut c = Circuit::new(3);
            build(&mut c);
            circuit_fingerprint(&c)
        };
        let base = fp(&|c| {
            let n = c.push_net();
            c.insert_gate(GateKind::Rz(0.5), n, &[0]).unwrap();
            c.insert_gate(GateKind::H, n, &[1]).unwrap();
        });
        let same = fp(&|c| {
            let n = c.push_net();
            c.insert_gate(GateKind::Rz(0.5), n, &[0]).unwrap();
            c.insert_gate(GateKind::H, n, &[1]).unwrap();
        });
        assert_eq!(base, same);
        let other_param = fp(&|c| {
            let n = c.push_net();
            c.insert_gate(GateKind::Rz(0.25), n, &[0]).unwrap();
            c.insert_gate(GateKind::H, n, &[1]).unwrap();
        });
        let other_qubit = fp(&|c| {
            let n = c.push_net();
            c.insert_gate(GateKind::Rz(0.5), n, &[0]).unwrap();
            c.insert_gate(GateKind::H, n, &[2]).unwrap();
        });
        let other_nets = fp(&|c| {
            let n = c.push_net();
            c.insert_gate(GateKind::Rz(0.5), n, &[0]).unwrap();
            let n = c.push_net();
            c.insert_gate(GateKind::H, n, &[1]).unwrap();
        });
        assert_eq!(base.0, 2);
        for other in [other_param, other_qubit, other_nets] {
            assert_eq!(other.0, 2);
            assert_ne!(other.1, base.1);
        }
    }
}
