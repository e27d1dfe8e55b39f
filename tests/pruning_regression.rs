//! Regression tests for the two partition-graph maintenance bugs found by
//! randomized differential testing (documented in DESIGN.md §"deviations"
//! and `qtask_core::pgraph`):
//!
//! 1. The paper's Figure 7 removal reconnect (`preds(R) × succs(R)` with
//!    block overlap) misses true writers once edges have been pruned; the
//!    engine now re-derives each orphaned successor's predecessors by a
//!    fresh backward coverage scan.
//! 2. The paper's Figure 9 transitive-edge pruning is unsound under later
//!    removals (a pruned edge's waypoint path can die with a removed row
//!    while the endpoint is not a direct successor of anything removed);
//!    the engine keeps direct cover edges.
//!
//! Both distilled counterexamples must stay green, and the operational
//! invariant — every nearest writer reaches its readers — must hold
//! through arbitrary modifier storms.

use qtask::prelude::*;
use qtask_num::vecops;
use qtask_partition::kernels;

fn oracle_state(ckt: &Ckt) -> Vec<Complex64> {
    let mut state = vecops::ket_zero(ckt.num_qubits() as usize);
    for (_, gate) in ckt.circuit().ordered_gates() {
        kernels::apply_gate(gate.kind(), gate.control_mask(), gate.targets(), &mut state);
    }
    state
}

fn check(ckt: &Ckt, what: &str) {
    ckt.validate_graph().unwrap();
    ckt.validate_reachability().unwrap();
    assert!(
        vecops::approx_eq(
            &ckt.latest_snapshot().unwrap().state(),
            &oracle_state(ckt),
            1e-9
        ),
        "{what} diverged from oracle"
    );
}

/// Distilled counterexample 1 (4 qubits, block size 8): remove the P-gate
/// level, update, remove the CX+RZ level, update. With the paper's
/// pairwise reconnect, the RZ-row partition covering block 0 was never
/// re-dirtied.
#[test]
fn removal_reconnect_counterexample() {
    let mut cfg = SimConfig::with_block_size(8);
    cfg.num_threads = 1;
    let mut ckt = Ckt::with_config(4, cfg);
    let n0 = ckt.push_net();
    let n1 = ckt.push_net();
    let n2 = ckt.push_net();
    let cx = ckt.insert_gate(GateKind::Cx, n0, &[0, 3]).unwrap();
    let rz2 = ckt.insert_gate(GateKind::Rz(0.3), n0, &[2]).unwrap();
    let p2 = ckt.insert_gate(GateKind::P(0.7), n1, &[2]).unwrap();
    let p3 = ckt.insert_gate(GateKind::P(0.7), n1, &[3]).unwrap();
    ckt.insert_gate(GateKind::Rz(0.3), n2, &[1]).unwrap();
    ckt.update_state().unwrap();
    check(&ckt, "initial");
    ckt.remove_gate(p2).unwrap();
    ckt.remove_gate(p3).unwrap();
    ckt.update_state().unwrap();
    check(&ckt, "after removing P level");
    ckt.remove_gate(cx).unwrap();
    ckt.remove_gate(rz2).unwrap();
    ckt.update_state().unwrap();
    check(&ckt, "after removing CX+RZ level");
}

/// Distilled counterexample 2 (5 qubits, block size 8): the toggle
/// sequence whose waypoint-path death broke reachability under the
/// paper's transitive pruning.
#[test]
fn transitive_pruning_counterexample() {
    let levels: Vec<Vec<(GateKind, Vec<u8>)>> = vec![
        vec![(GateKind::Ry(0.9), vec![1])],
        vec![(GateKind::Cx, vec![3, 1]), (GateKind::H, vec![2])],
        vec![
            (GateKind::Ry(0.9), vec![3]),
            (GateKind::H, vec![2]),
            (GateKind::X, vec![1]),
        ],
        vec![(GateKind::Cx, vec![3, 4])],
        vec![(GateKind::Ry(0.9), vec![0]), (GateKind::X, vec![2])],
    ];
    let mut cfg = SimConfig::with_block_size(8);
    cfg.num_threads = 1;
    let mut ckt = Ckt::with_config(5, cfg);
    let mut nets = Vec::new();
    let mut gates: Vec<Vec<GateId>> = Vec::new();
    for level in &levels {
        let net = ckt.push_net();
        nets.push(net);
        gates.push(
            level
                .iter()
                .map(|(k, q)| ckt.insert_gate(*k, net, q).unwrap())
                .collect(),
        );
    }
    ckt.update_state().unwrap();
    check(&ckt, "initial");
    let mut present = vec![true; levels.len()];
    for (step, &lvl) in [1usize, 3, 3, 1, 2, 0].iter().enumerate() {
        if present[lvl] {
            for g in gates[lvl].clone() {
                ckt.remove_gate(g).unwrap();
            }
        } else {
            gates[lvl] = levels[lvl]
                .iter()
                .map(|(k, q)| ckt.insert_gate(*k, nets[lvl], q).unwrap())
                .collect();
        }
        present[lvl] = !present[lvl];
        ckt.update_state().unwrap();
        check(&ckt, &format!("after toggle #{step} of level {lvl}"));
    }
}

/// The operational invariant holds through a random modifier storm, with
/// the reachability validator run after every modifier.
#[test]
fn reachability_invariant_survives_storm() {
    use rand::prelude::*;
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..6 {
        let n = rng.random_range(3..=6u8);
        let block = 1usize << rng.random_range(0..=3u32);
        let mut cfg = SimConfig::with_block_size(block);
        cfg.num_threads = 2;
        let mut ckt = Ckt::with_config(n, cfg);
        let mut nets = Vec::new();
        for _ in 0..4 {
            nets.push(ckt.push_net());
        }
        let mut live: Vec<GateId> = Vec::new();
        for step in 0..40 {
            if live.is_empty() || rng.random_bool(0.6) {
                let (kind, qubits) = qtask::bench_circuits::random::random_gate(&mut rng, n);
                let net = nets[rng.random_range(0..nets.len())];
                if let Ok(gid) = ckt.insert_gate(kind, net, &qubits) {
                    live.push(gid);
                }
            } else {
                let i = rng.random_range(0..live.len());
                ckt.remove_gate(live.swap_remove(i)).unwrap();
            }
            ckt.validate_reachability()
                .unwrap_or_else(|e| panic!("trial {trial} step {step}: {e}"));
            if rng.random_bool(0.4) {
                ckt.update_state().unwrap();
            }
        }
        ckt.update_state().unwrap();
        check(&ckt, &format!("storm trial {trial}"));
    }
}
