//! Randomized differential test of the engine's kernels.
//!
//! Drives random circuits — every `LinearOp` class plus dense gates —
//! through the engine on random block geometries, and checks the state
//! against the flat scalar kernels applied gate-at-a-time, both for
//! build-once circuits and across incremental toggles. Exact equality is
//! not guaranteed here: the engine may reorder commuting gates within a
//! net, and its block kernels pair amplitudes in slices where the flat
//! ones may go item by item, which can differ in the last ulp. The
//! bit-exact batched-vs-scalar check lives next to the kernels
//! (`exec.rs`).

use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use qtask_num::{vecops, Complex64};
use qtask_partition::kernels;
use rand::prelude::*;

/// A random gate whose qubits avoid `occupied` (net-conflict-free).
fn random_gate(rng: &mut StdRng, n: u8, occupied: &mut u64) -> Option<(GateKind, Vec<u8>)> {
    let kinds: [GateKind; 14] = [
        GateKind::X,
        GateKind::Y,
        GateKind::Z,
        GateKind::H,
        GateKind::S,
        GateKind::T,
        GateKind::Rz(0.9),
        GateKind::Ry(1.3),
        GateKind::U3(0.3, 0.8, 1.1),
        GateKind::Cx,
        GateKind::Cz,
        GateKind::Ch,
        GateKind::Swap,
        GateKind::Ccx,
    ];
    let kind = kinds[rng.random_range(0..kinds.len())];
    let free: Vec<u8> = (0..n).filter(|q| *occupied & (1 << q) == 0).collect();
    let arity = kind.arity();
    if free.len() < arity {
        return None;
    }
    // Pick `arity` distinct free qubits.
    let mut pool = free;
    let mut qubits = Vec::with_capacity(arity);
    for _ in 0..arity {
        let i = rng.random_range(0..pool.len());
        qubits.push(pool.swap_remove(i));
    }
    for &q in &qubits {
        *occupied |= 1 << q;
    }
    Some((kind, qubits))
}

/// Random circuit as a per-net gate list.
fn random_circuit(rng: &mut StdRng, n: u8) -> Vec<Vec<(GateKind, Vec<u8>)>> {
    let num_nets = rng.random_range(2..=5);
    (0..num_nets)
        .map(|_| {
            let mut occupied = 0u64;
            let tries = rng.random_range(1..=4);
            (0..tries)
                .filter_map(|_| random_gate(rng, n, &mut occupied))
                .collect()
        })
        .collect()
}

fn run_engine(nets: &[Vec<(GateKind, Vec<u8>)>], n: u8, block_size: usize) -> Vec<Complex64> {
    let mut cfg = SimConfig::with_block_size(block_size);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(n, cfg);
    for net_gates in nets {
        let net = ckt.push_net();
        for (kind, qubits) in net_gates {
            ckt.insert_gate(*kind, net, qubits).unwrap();
        }
    }
    ckt.update_state().unwrap();
    ckt.latest_snapshot().unwrap().state()
}

/// Flat-kernel oracle: apply the nets gate-at-a-time with the shared flat
/// kernels. Within a net all gates act on disjoint qubits and commute, so
/// insertion order is as good as the engine's row order (up to last-ulp
/// reassociation, covered by the tolerance).
fn oracle_state(nets: &[Vec<(GateKind, Vec<u8>)>], n: u8) -> Vec<Complex64> {
    let mut state = vecops::ket_zero(n as usize);
    for net_gates in nets {
        for (kind, qubits) in net_gates {
            let controls = &qubits[..kind.num_controls()];
            let targets = &qubits[kind.num_controls()..];
            let cmask: u64 = controls.iter().map(|&c| 1u64 << c).sum();
            kernels::apply_gate(*kind, cmask, targets, &mut state);
        }
    }
    state
}

#[test]
fn random_circuits_agree_across_kernel_policies() {
    let mut rng = StdRng::seed_from_u64(20260729);
    for case in 0..60u64 {
        let n = rng.random_range(3..=8u8);
        let block_size = 1usize << rng.random_range(0..=5u32);
        let nets = random_circuit(&mut rng, n);
        let got = run_engine(&nets, n, block_size);
        let want = oracle_state(&nets, n);
        assert!(
            vecops::approx_eq(&got, &want, 1e-12),
            "case {case}: engine vs flat oracle, max diff {} (n={n}, B={block_size})",
            vecops::max_abs_diff(&got, &want)
        );
        // Physicality: unitary circuits preserve the norm.
        assert!((vecops::norm_sqr(&got) - 1.0).abs() < 1e-10);
    }
}

#[test]
fn incremental_toggles_agree_across_kernel_policies() {
    // The kernels must stay right across incremental restructuring, not
    // just on build-once circuits: toggle gates in and out between
    // updates and compare each round with the oracle of the circuit as
    // it then stands.
    let mut rng = StdRng::seed_from_u64(777);
    for _ in 0..10 {
        let n = rng.random_range(4..=7u8);
        let block_size = 1usize << rng.random_range(1..=4u32);
        let mut nets = random_circuit(&mut rng, n);
        let mut cfg = SimConfig::with_block_size(block_size);
        cfg.num_threads = 1;
        let mut ckt = Ckt::with_config(n, cfg);
        let ids: Vec<_> = nets
            .iter()
            .map(|net_gates| {
                let net = ckt.push_net();
                for (kind, qubits) in net_gates {
                    ckt.insert_gate(*kind, net, qubits).unwrap();
                }
                net
            })
            .collect();
        ckt.update_state().unwrap();
        for round in 0..4 {
            let target = rng.random_range(0..n);
            let kind = if round % 2 == 0 {
                GateKind::H
            } else {
                GateKind::S
            };
            let pick = rng.random_range(0..nets.len());
            if let Ok(gid) = ckt.insert_gate(kind, ids[pick], &[target]) {
                nets[pick].push((kind, vec![target]));
                ckt.update_state().unwrap();
                assert_matches_oracle(&ckt, &nets, n, &format!("round {round}, inserted"));
                ckt.remove_gate(gid).unwrap();
                nets[pick].pop();
            }
            ckt.update_state().unwrap();
            assert_matches_oracle(&ckt, &nets, n, &format!("round {round}, removed"));
        }
    }
}

fn assert_matches_oracle(ckt: &Ckt, nets: &[Vec<(GateKind, Vec<u8>)>], n: u8, what: &str) {
    let (got, want) = (
        ckt.latest_snapshot().unwrap().state(),
        oracle_state(nets, n),
    );
    assert!(
        vecops::approx_eq(&got, &want, 1e-12),
        "{what}: engine vs flat oracle, max diff {}",
        vecops::max_abs_diff(&got, &want)
    );
}
