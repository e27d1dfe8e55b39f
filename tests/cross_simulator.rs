//! Cross-crate integration: every simulator in the workspace must agree
//! on every catalog circuit, through QASM round trips, and across the
//! incremental modifier protocol.

use qtask::prelude::*;
use qtask_num::vecops;

/// Replays a circuit into any `Simulator` net by net.
fn load<S: Simulator>(sim: &mut S, circuit: &Circuit) {
    for (_, net) in circuit.nets() {
        let dst = sim.push_net();
        for gid in net.gates() {
            let g = circuit.gate(*gid).unwrap();
            sim.insert_gate(g.kind(), dst, g.qubits()).unwrap();
        }
    }
}

fn qtask_state(circuit: &Circuit, block_size: usize) -> Vec<Complex64> {
    let mut ckt = qtask::core::Ckt::from_circuit(
        circuit,
        qtask::core::SimConfig::with_block_size(block_size),
    );
    ckt.update_state().unwrap();
    ckt.latest_snapshot().unwrap().state()
}

#[test]
fn all_catalog_circuits_agree_across_simulators() {
    for entry in qtask::bench_circuits::catalog() {
        // Cap sizes for test time/memory; vqe at reduced depth.
        let n = entry.paper.qubits.min(10);
        let circuit = if entry.name == "vqe_uccsd" {
            qtask::bench_circuits::gens_app::vqe_uccsd_with(8, 40)
        } else {
            (entry.build)(n)
        };
        let mut naive = NaiveSim::new(circuit.num_qubits());
        load(&mut naive, &circuit);
        naive.update_state();
        let want = naive.state_vec();
        let got = qtask_state(&circuit, 64);
        assert!(
            vecops::approx_eq(&got, &want, 1e-8),
            "{}: qTask diverged from oracle by {}",
            entry.name,
            vecops::max_abs_diff(&got, &want)
        );
        let mut qulacs = QulacsLike::new(circuit.num_qubits(), 4);
        load(&mut qulacs, &circuit);
        qulacs.update_state();
        assert!(
            vecops::approx_eq(&qulacs.state_vec(), &want, 1e-8),
            "{}: qulacs-like diverged",
            entry.name
        );
        let mut qiskit = QiskitLike::new(circuit.num_qubits(), 4);
        load(&mut qiskit, &circuit);
        qiskit.update_state();
        assert!(
            vecops::approx_eq(&qiskit.state_vec(), &want, 1e-8),
            "{}: qiskit-like diverged",
            entry.name
        );
    }
}

#[test]
fn qasm_round_trip_preserves_semantics() {
    for name in ["qft", "adder", "bv", "ising", "qaoa"] {
        let circuit = qtask::bench_circuits::build(name, Some(6)).unwrap();
        let qasm = qtask::qasm::circuit_to_qasm(&circuit);
        let back = qtask::qasm::parse_to_circuit(&qasm).unwrap();
        let a = qtask_state(&circuit, 16);
        let b = qtask_state(&back, 16);
        assert!(
            vecops::approx_eq(&a, &b, 1e-9),
            "{name}: QASM round trip changed the state"
        );
    }
}

#[test]
fn incremental_protocol_agrees_with_full_rebuild() {
    // Level-by-level construction with updates after every net (the
    // Table III inc protocol) must end in the same state as building
    // everything and updating once.
    let circuit = qtask::bench_circuits::build("qft", Some(8)).unwrap();
    let mut level_by_level = Ckt::with_config(8, SimConfig::with_block_size(16));
    for (_, net) in circuit.nets() {
        let dst = level_by_level.push_net();
        for gid in net.gates() {
            let g = circuit.gate(*gid).unwrap();
            level_by_level
                .insert_gate(g.kind(), dst, g.qubits())
                .unwrap();
        }
        level_by_level.update_state().unwrap();
    }
    let all_at_once = qtask_state(&circuit, 16);
    assert!(vecops::approx_eq(
        &level_by_level.latest_snapshot().unwrap().state(),
        &all_at_once,
        1e-9
    ));
}

#[test]
fn removal_storm_converges_to_empty_circuit() {
    // Build qft(7), then remove nets one by one (back to front) with
    // updates: must end at |0...0>.
    let circuit = qtask::bench_circuits::build("qft", Some(7)).unwrap();
    let mut ckt = Ckt::from_circuit(&circuit, SimConfig::with_block_size(8));
    ckt.update_state().unwrap();
    let nets: Vec<_> = ckt.circuit().net_ids().collect();
    for net in nets.into_iter().rev() {
        ckt.remove_net(net).unwrap();
        ckt.update_state().unwrap();
    }
    assert!(ckt.latest_snapshot().unwrap().amplitude(0).is_one(1e-9));
    assert_eq!(ckt.num_rows(), 0);
    assert_eq!(ckt.num_partitions(), 0);
}

#[test]
fn thread_count_does_not_change_results() {
    let circuit = qtask::bench_circuits::build("sat", Some(9)).unwrap();
    let reference = {
        let mut ckt = Ckt::from_circuit(
            &circuit,
            SimConfig {
                block_size: 32,
                num_threads: 1,
                ..SimConfig::default()
            },
        );
        ckt.update_state().unwrap();
        ckt.latest_snapshot().unwrap().state()
    };
    for threads in [2, 4, 8] {
        let mut ckt = Ckt::from_circuit(
            &circuit,
            SimConfig {
                block_size: 32,
                num_threads: threads,
                ..SimConfig::default()
            },
        );
        ckt.update_state().unwrap();
        assert!(
            vecops::approx_eq(&ckt.latest_snapshot().unwrap().state(), &reference, 1e-9),
            "{threads} threads diverged"
        );
    }
}

#[test]
fn block_size_does_not_change_results() {
    let circuit = qtask::bench_circuits::build("ising", Some(8)).unwrap();
    let reference = qtask_state(&circuit, 1);
    for bs in [2usize, 4, 16, 64, 256, 4096] {
        let got = qtask_state(&circuit, bs);
        assert!(
            vecops::approx_eq(&got, &reference, 1e-9),
            "block size {bs} diverged"
        );
    }
}

#[test]
fn sampling_follows_probabilities() {
    use rand::prelude::*;
    // A biased two-qubit state: RY(1.0) on qubit 0.
    let mut ckt = Ckt::new(2);
    let net = ckt.push_net();
    ckt.insert_gate(GateKind::Ry(1.0), net, &[0]).unwrap();
    ckt.update_state().unwrap();
    let snap = ckt.latest_snapshot().unwrap();
    let p1 = snap.probability(1);
    let mut rng = StdRng::seed_from_u64(5);
    let shots = 20_000;
    let ones = (0..shots).filter(|_| snap.sample(&mut rng) == 1).count();
    let freq = ones as f64 / shots as f64;
    assert!(
        (freq - p1).abs() < 0.02,
        "sampled {freq:.3} vs expected {p1:.3}"
    );
}
