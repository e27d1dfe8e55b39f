//! The three baselines must agree with each other on random circuits,
//! across thread counts and the full modifier protocol.

use qtask_baselines::{NaiveSim, QiskitLike, QulacsLike, Simulator};
use qtask_gates::GateKind;
use qtask_num::vecops;
use qtask_taskflow::Executor;
use rand::prelude::*;
use std::sync::Arc;

fn random_gate(rng: &mut StdRng, n: u8) -> (GateKind, Vec<u8>) {
    let mut qubits: Vec<u8> = (0..n).collect();
    qubits.shuffle(rng);
    match rng.random_range(0..11) {
        0 => (GateKind::H, vec![qubits[0]]),
        1 => (GateKind::X, vec![qubits[0]]),
        2 => (GateKind::T, vec![qubits[0]]),
        3 => (GateKind::Rz(rng.random_range(-3.0..3.0)), vec![qubits[0]]),
        4 => (GateKind::Ry(rng.random_range(-3.0..3.0)), vec![qubits[0]]),
        5 => (GateKind::Cx, vec![qubits[0], qubits[1]]),
        6 => (GateKind::Cz, vec![qubits[0], qubits[1]]),
        7 => (GateKind::Swap, vec![qubits[0], qubits[1]]),
        8 if n >= 3 => (GateKind::Ccx, vec![qubits[0], qubits[1], qubits[2]]),
        9 if n >= 3 => (GateKind::Cswap, vec![qubits[0], qubits[1], qubits[2]]),
        _ => (GateKind::U3(0.3, 0.7, 1.1), vec![qubits[0]]),
    }
}

#[test]
fn all_baselines_agree_on_random_circuits() {
    let mut rng = StdRng::seed_from_u64(77);
    for trial in 0..10 {
        let n = rng.random_range(2..=7u8);
        let mut naive = NaiveSim::new(n);
        let mut qulacs = QulacsLike::new(n, 4);
        let mut qiskit = QiskitLike::new(n, 4);
        for _ in 0..rng.random_range(2..6) {
            let (n1, n2, n3) = (naive.push_net(), qulacs.push_net(), qiskit.push_net());
            // Fill the level with a few non-conflicting gates.
            for _ in 0..rng.random_range(1..4) {
                let (kind, qubits) = random_gate(&mut rng, n);
                if naive.insert_gate(kind, n1, &qubits).is_ok() {
                    qulacs.insert_gate(kind, n2, &qubits).unwrap();
                    qiskit.insert_gate(kind, n3, &qubits).unwrap();
                }
            }
        }
        naive.update_state();
        qulacs.update_state();
        qiskit.update_state();
        let want = naive.state_vec();
        assert!(
            vecops::approx_eq(&qulacs.state_vec(), &want, 1e-9),
            "trial {trial}: qulacs-like diverged, diff {}",
            vecops::max_abs_diff(&qulacs.state_vec(), &want)
        );
        assert!(
            vecops::approx_eq(&qiskit.state_vec(), &want, 1e-9),
            "trial {trial}: qiskit-like diverged, diff {}",
            vecops::max_abs_diff(&qiskit.state_vec(), &want)
        );
    }
}

/// `random_gate` with, half the time, one operand relabelled to the top
/// qubit and (for a second operand) another to the qubit below it, so
/// targets, controls and both swap targets land on the highest bits.
fn top_heavy_gate(rng: &mut StdRng, n: u8) -> (GateKind, Vec<u8>) {
    let (kind, mut qubits) = random_gate(rng, n);
    for (top, slot) in [(n - 1, 0), (n - 2, 1)] {
        if slot < qubits.len() && rng.random_bool(0.5) {
            let pos = rng.random_range(slot..qubits.len());
            let a = qubits[pos];
            for q in &mut qubits {
                if *q == a {
                    *q = top;
                } else if *q == top {
                    *q = a;
                }
            }
        }
    }
    (kind, qubits)
}

/// Builds one gate per net on `sim`.
fn build(sim: &mut dyn Simulator, gates: &[(GateKind, Vec<u8>)]) {
    for (kind, qubits) in gates {
        let net = sim.push_net();
        sim.insert_gate(*kind, net, qubits).unwrap();
    }
}

#[test]
fn parallel_chunking_kicks_in_on_larger_states() {
    // 14 qubits crosses the MIN_PAR_ITEMS threshold for the one-qubit
    // gates, exercising the parallel paths of both baselines.
    let n = 14u8;
    let mut naive = NaiveSim::new(n);
    let mut qulacs = QulacsLike::new(n, 4);
    let mut qiskit = QiskitLike::new(n, 4);
    for sim in [
        &mut naive as &mut dyn Simulator,
        &mut qulacs as &mut dyn Simulator,
        &mut qiskit as &mut dyn Simulator,
    ] {
        let l1 = sim.push_net();
        let l2 = sim.push_net();
        let l3 = sim.push_net();
        for q in 0..n {
            sim.insert_gate(GateKind::H, l1, &[q]).unwrap();
        }
        for q in 0..n - 1 {
            if q % 2 == 0 {
                sim.insert_gate(GateKind::Cx, l2, &[q, q + 1]).unwrap();
            }
        }
        sim.insert_gate(GateKind::Rz(0.4), l3, &[0]).unwrap();
        sim.insert_gate(GateKind::Ry(0.8), l3, &[n - 1]).unwrap();
        sim.update_state();
    }
    let want = naive.state_vec();
    assert!(vecops::approx_eq(&qulacs.state_vec(), &want, 1e-9));
    assert!(vecops::approx_eq(&qiskit.state_vec(), &want, 1e-9));

    // At 16 and 17 qubits every gate shape (two- and three-qubit ones
    // included) crosses the threshold, and the top-qubit gates take the
    // high-gate splits. Qulacs-like must be `==` the serial oracle, and
    // Qiskit-like `==` itself at every thread count.
    let executors: Vec<Arc<Executor>> = (1..=4).map(|t| Arc::new(Executor::new(t))).collect();
    let mut rng = StdRng::seed_from_u64(2024);
    for (trial, n) in [16u8, 17, 16].into_iter().enumerate() {
        // The fixed gates come last, on a state the random ones have
        // filled.
        let mut gates: Vec<_> = (0..60).map(|_| top_heavy_gate(&mut rng, n)).collect();
        gates.extend([
            (GateKind::H, vec![n - 1]),
            (GateKind::Cx, vec![n - 1, 0]),
            (GateKind::Cx, vec![0, n - 1]),
            (GateKind::Swap, vec![n - 2, n - 1]),
            (GateKind::Cswap, vec![0, n - 2, n - 1]),
            (GateKind::Ccx, vec![n - 1, n - 2, 1]),
            (GateKind::Cz, vec![n - 1, n - 2]),
            (GateKind::Rz(0.3), vec![n - 1]),
            (GateKind::T, vec![n - 1]),
            // Controlled dense gates whose runs are single items.
            (GateKind::Cu3(0.3, 0.7, 1.1), vec![0, n - 1]),
            (GateKind::Crx(0.9), vec![n - 1, 0]),
        ]);
        let mut naive = NaiveSim::new(n);
        build(&mut naive, &gates);
        naive.update_state();
        let want = naive.state_vec();
        let mut qiskit_first: Option<Vec<_>> = None;
        for ex in &executors {
            let threads = ex.num_threads();
            let before = ex.tasks_run();
            let mut qulacs = QulacsLike::with_executor(n, ex.clone());
            let mut qiskit = QiskitLike::with_executor(n, ex.clone());
            build(&mut qulacs, &gates);
            build(&mut qiskit, &gates);
            qulacs.update_state();
            qiskit.update_state();
            assert!(
                ex.tasks_run() > before,
                "trial {trial}, {threads} threads: no parallel task ran"
            );
            assert!(
                qulacs.state_vec() == want,
                "trial {trial}, {threads} threads: qulacs-like != naive, diff {}",
                vecops::max_abs_diff(&qulacs.state_vec(), &want)
            );
            let got = qiskit.state_vec();
            assert!(
                vecops::approx_eq(&got, &want, 1e-12),
                "trial {trial}, {threads} threads: qiskit-like diverged, diff {}",
                vecops::max_abs_diff(&got, &want)
            );
            match &qiskit_first {
                None => qiskit_first = Some(got),
                Some(first) => assert!(
                    &got == first,
                    "trial {trial}, {threads} threads: qiskit-like differs from 1 thread"
                ),
            }
        }
    }
}

#[test]
fn removal_protocol_matches() {
    let mut naive = NaiveSim::new(4);
    let mut qulacs = QulacsLike::new(4, 2);
    let nets_n: Vec<_> = (0..3).map(|_| naive.push_net()).collect();
    let nets_q: Vec<_> = (0..3).map(|_| qulacs.push_net()).collect();
    let mut gn = Vec::new();
    let mut gq = Vec::new();
    let gates = [
        (GateKind::H, vec![0u8]),
        (GateKind::Cx, vec![0, 1]),
        (GateKind::Ry(0.7), vec![2]),
    ];
    for (i, (k, q)) in gates.iter().enumerate() {
        gn.push(naive.insert_gate(*k, nets_n[i], q).unwrap());
        gq.push(qulacs.insert_gate(*k, nets_q[i], q).unwrap());
    }
    naive.remove_gate(gn[1]).unwrap();
    qulacs.remove_gate(gq[1]).unwrap();
    naive.update_state();
    qulacs.update_state();
    assert!(vecops::approx_eq(
        &qulacs.state_vec(),
        &naive.state_vec(),
        1e-10
    ));
    naive.remove_net(nets_n[0]).unwrap();
    qulacs.remove_net(nets_q[0]).unwrap();
    naive.update_state();
    qulacs.update_state();
    assert!(vecops::approx_eq(
        &qulacs.state_vec(),
        &naive.state_vec(),
        1e-10
    ));
}
