//! Property-based tests for the paper's core invariants, driven by a
//! seeded RNG (the environment has no registry access for `proptest`, so
//! the case generator is hand-rolled; failures print the seed to replay).
//!
//! 1. **Incrementality is invisible**: any interleaving of modifiers and
//!    incremental updates ends in exactly the state a from-scratch full
//!    simulation of the final circuit produces.
//! 2. **Unitarity**: the engine preserves the state norm.
//! 3. **Partition soundness**: derived partitions tile the touched items
//!    and stay block-disjoint for arbitrary ops and geometries.

use qtask::prelude::*;
use qtask_num::vecops;
use qtask_partition::{derive_partitions, BlockGeometry, LinearOp};
use rand::prelude::*;

/// A modifier script step.
#[derive(Clone, Debug)]
enum Step {
    Insert {
        kind_sel: u8,
        qubits: Vec<u8>,
        angle: f64,
        net_sel: u8,
    },
    Remove {
        gate_sel: u8,
    },
    Update,
}

fn random_step(rng: &mut StdRng, n: u8) -> Step {
    match rng.random_range(0..7u32) {
        0..=3 => Step::Insert {
            kind_sel: rng.random_range(0..12u8),
            qubits: (0..3).map(|_| rng.random_range(0..n)).collect(),
            angle: rng.random_range(-3.0..3.0f64),
            net_sel: rng.random::<u8>(),
        },
        4..=5 => Step::Remove {
            gate_sel: rng.random::<u8>(),
        },
        _ => Step::Update,
    }
}

fn pick_kind(sel: u8, angle: f64, qubits: &[u8]) -> Option<(GateKind, Vec<u8>)> {
    let q0 = *qubits.first()?;
    let q1 = qubits.get(1).copied().filter(|q| *q != q0);
    let q2 = qubits
        .get(2)
        .copied()
        .filter(|q| Some(*q) != q1 && *q != q0);
    Some(match sel {
        0 => (GateKind::H, vec![q0]),
        1 => (GateKind::X, vec![q0]),
        2 => (GateKind::T, vec![q0]),
        3 => (GateKind::Rz(angle), vec![q0]),
        4 => (GateKind::Ry(angle), vec![q0]),
        5 => (GateKind::Rx(angle), vec![q0]),
        6 => (GateKind::Cx, vec![q0, q1?]),
        7 => (GateKind::Cz, vec![q0, q1?]),
        8 => (GateKind::Cp(angle), vec![q0, q1?]),
        9 => (GateKind::Swap, vec![q0, q1?]),
        10 => (GateKind::Ccx, vec![q0, q1?, q2?]),
        _ => (GateKind::S, vec![q0]),
    })
}

#[test]
fn incremental_equals_full_rebuild() {
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(0x9121 ^ case);
        let n = rng.random_range(2..6u8);
        let block_size = 1usize << rng.random_range(0..6u32);
        let num_steps = rng.random_range(1..40usize);
        let mut cfg = SimConfig::with_block_size(block_size);
        cfg.num_threads = 2;
        let mut ckt = Ckt::with_config(n, cfg);
        let mut nets = vec![ckt.push_net(), ckt.push_net(), ckt.push_net()];
        let mut live: Vec<GateId> = Vec::new();
        for _ in 0..num_steps {
            match random_step(&mut rng, 5) {
                Step::Insert {
                    kind_sel,
                    qubits,
                    angle,
                    net_sel,
                } => {
                    let qubits: Vec<u8> = qubits.into_iter().map(|q| q % n).collect();
                    if let Some((kind, operands)) = pick_kind(kind_sel, angle, &qubits) {
                        if nets.len() < 8 && (net_sel as usize).is_multiple_of(5) {
                            nets.push(ckt.push_net());
                        }
                        let net = nets[net_sel as usize % nets.len()];
                        if let Ok(gid) = ckt.insert_gate(kind, net, &operands) {
                            live.push(gid);
                        }
                    }
                }
                Step::Remove { gate_sel } => {
                    if !live.is_empty() {
                        let gid = live.swap_remove(gate_sel as usize % live.len());
                        ckt.remove_gate(gid).unwrap();
                    }
                }
                Step::Update => {
                    ckt.update_state().unwrap();
                }
            }
            ckt.validate_graph()
                .unwrap_or_else(|e| panic!("case {case}: {e}"));
            ckt.validate_owner_index()
                .unwrap_or_else(|e| panic!("case {case}: owner index: {e}"));
        }
        ckt.update_state().unwrap();
        // Oracle: from-scratch replay of the final circuit.
        let mut want = vecops::ket_zero(n as usize);
        for (_, g) in ckt.circuit().ordered_gates() {
            qtask_partition::kernels::apply_gate(
                g.kind(),
                g.control_mask(),
                g.targets(),
                &mut want,
            );
        }
        let snap = ckt.latest_snapshot().unwrap();
        let got = snap.state();
        assert!(
            vecops::approx_eq(&got, &want, 1e-8),
            "case {case} diverged by {}",
            vecops::max_abs_diff(&got, &want)
        );
        let norm = snap.norm_sqr();
        assert!(
            (norm - 1.0).abs() < 1e-8,
            "case {case}: norm {norm} drifted"
        );
    }
}

#[test]
fn partitions_tile_items_and_stay_disjoint() {
    for case in 0..64u64 {
        let mut rng = StdRng::seed_from_u64(0xB10C ^ case);
        let n = rng.random_range(1..11u8);
        let target = rng.random_range(0..11u8) % n;
        let control = rng.random_range(0..11u8) % n;
        let geom = BlockGeometry::new(n, 1usize << rng.random_range(0..8u32));
        let controls = if control != target {
            1u64 << control
        } else {
            0
        };
        let op = if rng.random::<bool>() {
            LinearOp::Diag {
                controls,
                target,
                d0: Complex64::ONE,
                d1: c64(0.0, 1.0),
            }
        } else {
            LinearOp::AntiDiag {
                controls,
                target,
                a01: Complex64::ONE,
                a10: Complex64::ONE,
            }
        };
        let pattern = op.pattern(n);
        let parts = derive_partitions(&pattern, &geom);
        // Tiling.
        let mut next = 0u64;
        for p in &parts {
            assert_eq!(p.item_start, next, "case {case}");
            next = p.item_end;
        }
        assert_eq!(next, pattern.num_items(), "case {case}");
        // Disjoint, ordered blocks; touched indices inside.
        for w in parts.windows(2) {
            assert!(w[0].block_hi < w[1].block_lo, "case {case}");
        }
        for p in &parts {
            for low in pattern.iter_lows(p.item_start..p.item_end) {
                let hi = pattern.partner(low);
                for idx in [low, hi] {
                    let b = geom.block_of(idx as usize) as u32;
                    assert!(p.block_lo <= b && b <= p.block_hi, "case {case}");
                }
            }
        }
    }
}

#[test]
fn random_circuits_preserve_norm() {
    for case in 0..24u64 {
        let mut rng = StdRng::seed_from_u64(0x4097 ^ case);
        let n = rng.random_range(2..7u8);
        let gates = rng.random_range(1..60usize);
        let circuit = qtask::bench_circuits::random::random_circuit(&mut rng, n, gates);
        let mut ckt = Ckt::from_circuit(&circuit, SimConfig::with_block_size(16));
        ckt.update_state().unwrap();
        let norm = ckt.latest_snapshot().unwrap().norm_sqr();
        assert!((norm - 1.0).abs() < 1e-8, "case {case}: norm {norm}");
    }
}
