//! Retained-task-graph stress: the write path scales with the edit, not
//! the circuit.
//!
//! Grows a depth-2048 circuit, then applies constant-size edits at the
//! tail and checks the three incrementality contracts of the retained
//! graph ([`UpdateReport`]'s new counters):
//!
//! * `graph_nodes_patched` for a constant-size edit is *identical* at
//!   depth 256 and depth 2048 — structural graph maintenance is O(edit),
//!   never O(depth).
//! * `staged_ops` equals exactly the journal ops each `edit` batch
//!   committed.
//! * `graph_nodes_reused` accounts for every re-executed partition that
//!   predates the edit — the graph really is retained, not rebuilt.
//!
//! Every state is checked amplitude-for-amplitude against the serial
//! [`qtask_baselines::NaiveSim`] oracle, and a randomized interleaved
//! storm (edits + removals + updates) guards the patching rules under
//! adversarial orderings.

use qtask::prelude::*;
use qtask_baselines::{NaiveSim, Simulator};
use qtask_num::vecops;
use rand::prelude::*;
use std::sync::{Arc, Barrier};

const NUM_QUBITS: u8 = 5;

/// Deterministic linear-gate cycle (no superposition: rows stay 1:1 with
/// gates, so "depth" is exactly the row count). Length 8 divides both
/// test depths, so the tail window — and therefore the local coverage
/// structure a tail edit links into — is identical at every depth.
fn cycle_gate(i: usize) -> (GateKind, Vec<u8>) {
    match i % 8 {
        0 => (GateKind::X, vec![0]),
        1 => (GateKind::T, vec![1]),
        2 => (GateKind::S, vec![2]),
        3 => (GateKind::Z, vec![3]),
        4 => (GateKind::X, vec![4]),
        5 => (GateKind::Cx, vec![1, 3]),
        6 => (GateKind::T, vec![0]),
        _ => (GateKind::Swap, vec![2, 4]),
    }
}

/// Builds the depth-`depth` chain. Returns the engine, the oracle, and
/// the first (H-carrying) net of each.
fn chain(depth: usize) -> (Ckt, NaiveSim, NetId, NetId) {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(NUM_QUBITS, cfg);
    let mut oracle = NaiveSim::new(NUM_QUBITS);
    // One H up front so the deep tail transforms a superposed state.
    let (first, ofirst) = (ckt.push_net(), oracle.push_net());
    ckt.insert_gate(GateKind::H, first, &[0]).unwrap();
    oracle.insert_gate(GateKind::H, ofirst, &[0]).unwrap();
    for i in 0..depth {
        let (kind, qubits) = cycle_gate(i);
        let (n, on) = (ckt.push_net(), oracle.push_net());
        ckt.insert_gate(kind, n, &qubits).unwrap();
        oracle.insert_gate(kind, on, &qubits).unwrap();
    }
    ckt.update_state().unwrap();
    (ckt, oracle, first, ofirst)
}

fn assert_agreement(ckt: &Ckt, oracle: &mut NaiveSim, what: &str) {
    oracle.update_state();
    let (got, want) = (ckt.state(), oracle.state_vec());
    assert!(
        vecops::approx_eq(&got, &want, 1e-8),
        "{what}: diverged from naive oracle by {}",
        vecops::max_abs_diff(&got, &want)
    );
}

/// One constant-size tail edit cycle — append an X-gate net through the
/// journal overlay, update, remove it again, update — returning the total
/// structural patches the retained graph absorbed. Asserts the
/// staged-ops accounting exactly along the way.
fn tail_toggle_patches(ckt: &mut Ckt, oracle: &mut NaiveSim) -> usize {
    let (net, receipt) = ckt
        .edit(|tx| {
            let net = tx.push_net();
            tx.insert_gate(GateKind::X, net, &[0])?;
            Ok(net)
        })
        .unwrap();
    let on = oracle.push_net();
    oracle.insert_gate(GateKind::X, on, &[0]).unwrap();
    let r1 = ckt.update_state().unwrap();
    assert_eq!(
        r1.staged_ops, receipt.ops_applied,
        "staged_ops must equal the journal ops committed"
    );
    assert_eq!(receipt.ops_applied, 2, "push_net + insert_gate");
    assert_agreement(ckt, oracle, "tail insert");

    let ((), receipt) = ckt.edit(|tx| tx.remove_net(net).map(|_| ())).unwrap();
    oracle.remove_net(on).unwrap();
    let r2 = ckt.update_state().unwrap();
    assert_eq!(r2.staged_ops, receipt.ops_applied);
    assert_agreement(ckt, oracle, "tail remove");
    let patched = r1.graph_nodes_patched + r2.graph_nodes_patched;
    assert!(patched > 0, "an edit must patch the graph");
    patched
}

/// The headline contract: the same logical tail edit patches *exactly*
/// as many retained-graph nodes/edges at depth 2048 as at depth 256.
/// (Time-based flatness is recorded by the `edit_pipeline` bench; this
/// asserts the structural count, which is deterministic.)
#[test]
fn constant_edit_patches_are_depth_independent() {
    let (mut shallow, mut shallow_oracle, _, _) = chain(256);
    let (mut deep, mut deep_oracle, _, _) = chain(2048);
    // Warm both: the first toggle may lazily size scratch.
    tail_toggle_patches(&mut shallow, &mut shallow_oracle);
    tail_toggle_patches(&mut deep, &mut deep_oracle);
    let at_256 = tail_toggle_patches(&mut shallow, &mut shallow_oracle);
    let at_2048 = tail_toggle_patches(&mut deep, &mut deep_oracle);
    assert_eq!(
        at_256, at_2048,
        "constant-size edit must patch a depth-independent node/edge count"
    );
    // And the count itself is edit-sized: a one-gate net at block size 4
    // touches a handful of partitions, nowhere near the graph's size.
    assert!(
        at_2048 <= 64,
        "tail toggle patched {at_2048} — not edit-bounded"
    );
    deep.validate_graph().unwrap();
}

/// A front-of-the-circuit edit re-executes the whole dirty cone, but the
/// cone's veterans are *reused* retained nodes: only the edit's own
/// partitions are fresh, everything downstream re-runs through retained
/// structure — and the structural patching stays edit-sized even though
/// the execution is circuit-sized.
#[test]
fn dirty_cone_reuses_retained_nodes() {
    let (mut ckt, mut oracle, first, ofirst) = chain(512);
    let (_, receipt) = ckt
        .edit(|tx| tx.insert_gate(GateKind::Z, first, &[1]).map(|_| ()))
        .unwrap();
    oracle.insert_gate(GateKind::Z, ofirst, &[1]).unwrap();
    let report = ckt.update_state().unwrap();
    assert_eq!(report.staged_ops, receipt.ops_applied);
    // The cone spans (nearly) the whole circuit…
    assert!(
        report.partitions_executed > 500,
        "front edit must dirty the downstream cone ({} partitions)",
        report.partitions_executed
    );
    // …but all of it except the fresh Z-row partitions is reused.
    let fresh = report.partitions_executed - report.graph_nodes_reused;
    assert!(
        fresh <= 8,
        "only the edit's own partitions may be fresh (got {fresh})"
    );
    assert!(
        report.graph_nodes_patched <= 64,
        "front edit patched {} — not edit-bounded",
        report.graph_nodes_patched
    );
    assert_agreement(&ckt, &mut oracle, "front insert");
}

/// Randomized storm at depth 1024: interleaved inserts, removals, and
/// updates, mirrored into the oracle, with the patch counter checked
/// against a per-edit budget and the graph (partition + retained +
/// coverage coherence) validated throughout. Catches stale-node and
/// stale-edge bugs the deterministic tests cannot reach.
#[test]
fn deep_interleaved_storm_stays_edit_bounded() {
    let mut rng = StdRng::seed_from_u64(0x9E7A11);
    let (mut ckt, mut oracle, _, _) = chain(1024);
    // An idle update patches nothing.
    let report = ckt.update_state().unwrap();
    assert_eq!(report.graph_nodes_patched, 0, "idle update patches nothing");
    let mut live: Vec<(NetId, NetId)> = Vec::new();
    let mut edits_since_update = 0usize;
    for step in 0..120 {
        if !live.is_empty() && rng.random_bool(0.4) {
            let (net, onet) = live.swap_remove(rng.random_range(0..live.len()));
            ckt.remove_net(net).unwrap();
            oracle.remove_net(onet).unwrap();
        } else {
            let (kind, qubits) = cycle_gate(rng.random_range(0..8));
            let (net, onet) = (ckt.push_net(), oracle.push_net());
            ckt.insert_gate(kind, net, &qubits).unwrap();
            oracle.insert_gate(kind, onet, &qubits).unwrap();
            live.push((net, onet));
        }
        edits_since_update += 1;
        if step % 3 == 0 {
            let report = ckt.update_state().unwrap();
            // Each edit touches one single-gate net: the patch budget is
            // a constant per edit, independent of the 1024-deep circuit
            // behind it.
            assert!(
                report.graph_nodes_patched <= 256 * edits_since_update,
                "step {step}: {} patches for {edits_since_update} edits",
                report.graph_nodes_patched
            );
            edits_since_update = 0;
        }
        if step % 20 == 0 {
            ckt.update_state().unwrap();
            ckt.validate_graph()
                .unwrap_or_else(|e| panic!("step {step}: {e}"));
            assert_agreement(&ckt, &mut oracle, &format!("storm step {step}"));
        }
    }
    ckt.update_state().unwrap();
    ckt.validate_graph().unwrap();
    assert_agreement(&ckt, &mut oracle, "storm final");
}

/// Two engines on one shared two-worker pool, each edited from its own
/// thread — the service layer's arrangement. With two callers the
/// workers stay awake, so a worker can complete a run's first root (an
/// MxV row's `sync` barrier) while `run_dirty` is still publishing;
/// every update must still run each dirty partition exactly once and
/// return only when all of them are done, which the oracle sees as the
/// right amplitudes after every toggle.
#[test]
fn two_engines_on_one_shared_executor_match_the_oracle() {
    let pool = Arc::new(Executor::new(2));
    let start = Barrier::new(2);
    std::thread::scope(|s| {
        for engine in 0..2u8 {
            let (pool, start) = (Arc::clone(&pool), &start);
            s.spawn(move || {
                let mut ckt = Ckt::with_executor(NUM_QUBITS, SimConfig::with_block_size(4), pool);
                let mut oracle = NaiveSim::new(NUM_QUBITS);
                // A toggle net between an entangling prefix and a linear
                // suffix: toggling dirties the H row and everything after.
                let mut toggle = None;
                for i in 0..12 {
                    let (net, onet) = (ckt.push_net(), oracle.push_net());
                    if i == 4 {
                        toggle = Some((net, onet));
                        continue;
                    }
                    let (kind, qubits) = match i {
                        0 => (GateKind::H, vec![engine % NUM_QUBITS]),
                        1 => (GateKind::Cx, vec![0, 1]),
                        _ => cycle_gate(i),
                    };
                    ckt.insert_gate(kind, net, &qubits).unwrap();
                    oracle.insert_gate(kind, onet, &qubits).unwrap();
                }
                let (net, onet) = toggle.expect("toggle net");
                ckt.update_state().unwrap();
                assert_agreement(&ckt, &mut oracle, "shared pool: initial");
                start.wait();
                for round in 0..1500 {
                    let gid = ckt.insert_gate(GateKind::H, net, &[3]).unwrap();
                    ckt.update_state().unwrap();
                    if round % 100 == 0 {
                        let ogid = oracle.insert_gate(GateKind::H, onet, &[3]).unwrap();
                        assert_agreement(&ckt, &mut oracle, "shared pool: H in");
                        oracle.remove_gate(ogid).unwrap();
                    }
                    ckt.remove_gate(gid).unwrap();
                    ckt.update_state().unwrap();
                    if round % 100 == 0 {
                        assert_agreement(&ckt, &mut oracle, "shared pool: H out");
                    }
                }
                ckt.validate_graph().unwrap();
                assert_agreement(&ckt, &mut oracle, "shared pool: final");
            });
        }
    });
}
