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
//! adversarial orderings. A batch-link equivalence check builds random
//! circuits once in one link pass and once gate at a time, and holds the
//! two engines together through an edit storm.

use qtask::prelude::*;
use qtask_baselines::{NaiveSim, Simulator};
use qtask_num::vecops;
use rand::prelude::*;
use std::collections::{BTreeSet, HashMap};
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
    let (got, want) = (ckt.latest_snapshot().unwrap().state(), oracle.state_vec());
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

/// The engine's bookkeeping after one tail toggle cycle: memory
/// accounting (owned blocks are owner-index entries), rows, partitions
/// and frontier.
fn bookkeeping(ckt: &Ckt) -> (qtask_core::queries::MemStats, usize, usize, usize) {
    (
        ckt.memory_stats(),
        ckt.num_rows(),
        ckt.num_partitions(),
        ckt.frontier_len(),
    )
}

/// Toggling a tail net on and off leaves nothing behind: after every
/// append/remove cycle the owner index, rows, partitions and frontier are
/// exactly as they were after the first, and the index stays well
/// formed. The shape is the benchmark's `inc.tail` scaled down: an H
/// wall, a T chain, a `Ccz` tail on the top qubits and a marginal view
/// over them.
#[test]
fn tail_toggles_leave_bookkeeping_flat() {
    const N: u8 = 10;
    const TOP: [u8; 3] = [N - 1, N - 2, N - 3];
    let mut cfg = SimConfig::with_block_size(16);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(N, cfg);
    let mut oracle = NaiveSim::new(N);
    let (wall, owall) = (ckt.push_net(), oracle.push_net());
    for q in 0..N {
        ckt.insert_gate(GateKind::H, wall, &[q]).unwrap();
        oracle.insert_gate(GateKind::H, owall, &[q]).unwrap();
    }
    for _ in 0..256 {
        let (n, on) = (ckt.push_net(), oracle.push_net());
        ckt.insert_gate(GateKind::T, n, &[N - 1]).unwrap();
        oracle.insert_gate(GateKind::T, on, &[N - 1]).unwrap();
    }
    let marginal = vec![TOP[2], TOP[1], TOP[0]];
    let registry = ViewRegistry::new();
    registry.attach(&mut ckt);
    let view = registry.register(Box::new(ProbabilityView::marginal(marginal.clone())));
    ckt.update_state().unwrap();

    let mut first = None;
    for cycle in 1..=300 {
        let (net, _) = ckt
            .edit(|tx| {
                let net = tx.push_net();
                tx.insert_gate(GateKind::Ccz, net, &TOP)?;
                Ok(net)
            })
            .unwrap();
        ckt.update_state().unwrap();
        ckt.edit(|tx| tx.remove_net(net)).unwrap();
        ckt.update_state().unwrap();
        ckt.validate_owner_index()
            .unwrap_or_else(|e| panic!("cycle {cycle}: {e}"));
        let now = bookkeeping(&ckt);
        assert_eq!(*first.get_or_insert(now), now, "cycle {cycle}");
    }

    oracle.update_state();
    let mut want = vec![0.0; 1 << marginal.len()];
    for (i, amp) in oracle.state_vec().iter().enumerate() {
        let bin: usize = marginal
            .iter()
            .enumerate()
            .map(|(k, &q)| ((i >> q) & 1) << k)
            .sum();
        want[bin] += amp.norm_sqr();
    }
    let reading = view.reading().expect("the view was patched");
    assert_eq!(reading.version, ckt.snapshot_version());
    let ViewValue::Vector(got) = reading.value else {
        panic!("a marginal reads as a vector");
    };
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(&want) {
        assert!((g - w).abs() < 1e-12, "view {got:?} vs oracle {want:?}");
    }
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
/// workers stay awake, so a worker can complete a run's first root (a
/// partition of the toggled H row) while `run_dirty` is still publishing;
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

/// Gate kinds of the batch-link circuits: every linear class plus
/// controlled and uncontrolled superposition gates.
const BATCH_KINDS: [GateKind; 12] = [
    GateKind::X,
    GateKind::Z,
    GateKind::T,
    GateKind::H,
    GateKind::Ry(0.7),
    GateKind::U3(0.3, 0.8, 1.1),
    GateKind::Cx,
    GateKind::Cz,
    GateKind::Ch,
    GateKind::Cp(0.4),
    GateKind::Swap,
    GateKind::Ccx,
];

/// A random gate on qubits of `n` outside `occupied`, if enough are free.
fn random_gate(rng: &mut StdRng, n: u8, occupied: u64) -> Option<(GateKind, Vec<u8>)> {
    let kind = BATCH_KINDS[rng.random_range(0..BATCH_KINDS.len())];
    let mut free: Vec<u8> = (0..n).filter(|q| occupied & (1 << q) == 0).collect();
    (free.len() >= kind.arity()).then(|| {
        let qubits = (0..kind.arity())
            .map(|_| free.swap_remove(rng.random_range(0..free.len())))
            .collect();
        (kind, qubits)
    })
}

fn random_circuit(rng: &mut StdRng, n: u8) -> Circuit {
    let mut circuit = Circuit::new(n);
    for _ in 0..rng.random_range(3..=14) {
        let net = circuit.push_net();
        for _ in 0..rng.random_range(1..=4) {
            let occupied = circuit.net(net).unwrap().occupied_mask();
            if let Some((kind, qubits)) = random_gate(rng, n, occupied) {
                circuit.insert_gate(kind, net, &qubits).unwrap();
            }
        }
    }
    circuit
}

/// The partition graph's edges, each endpoint named by its row label and
/// block span (engine-independent), read off the DOT dump.
fn edge_set(ckt: &Ckt) -> BTreeSet<(String, String)> {
    let dot = ckt.dump_graph_string();
    let mut names = HashMap::new();
    let mut edges = Vec::new();
    for line in dot.lines().map(str::trim) {
        if let Some((from, to)) = line.split_once(" -> ") {
            edges.push((from.to_string(), to.trim_end_matches(';').to_string()));
        } else if let Some((node, rest)) = line.split_once(" [label=\"") {
            let label = rest.split('"').next().unwrap();
            names.insert(node.to_string(), label.to_string());
        }
    }
    edges
        .into_iter()
        .map(|(a, b)| (names[&a].clone(), names[&b].clone()))
        .collect()
}

/// The state a gate-at-a-time naive simulator reaches on `circuit`.
fn naive_state(circuit: &Circuit) -> Vec<Complex64> {
    let mut sim = NaiveSim::new(circuit.num_qubits());
    for net in circuit.net_ids() {
        let on = sim.push_net();
        for (_, gate) in circuit.net_gates(net) {
            sim.insert_gate(gate.kind(), on, gate.qubits()).unwrap();
        }
    }
    sim.update_state();
    sim.state_vec()
}

/// Updates both engines and checks they agree bit for bit, match the
/// naive oracle and audit clean.
fn update_pair(batch: &mut Ckt, replay: &mut Ckt, ctx: &str) {
    batch.update_state().unwrap();
    replay.update_state().unwrap();
    assert_eq!(batch.audit(), vec![], "{ctx}: batch audit");
    assert_eq!(replay.audit(), vec![], "{ctx}: replay audit");
    let state = batch.latest_snapshot().unwrap().state();
    assert_eq!(
        state,
        replay.latest_snapshot().unwrap().state(),
        "{ctx}: batch and replay diverged"
    );
    let want = naive_state(batch.circuit());
    assert!(
        vecops::approx_eq(&state, &want, 1e-8),
        "{ctx}: diverged from naive oracle by {}",
        vecops::max_abs_diff(&state, &want)
    );
}

/// One seeded storm step, applied identically to both engines: a gate
/// inserted mid-circuit, a gate or net removed, or a multi-op `edit`
/// that inserts into a fresh net and removes a gate in the same commit.
fn storm_step(rng: &mut StdRng, batch: &mut Ckt, replay: &mut Ckt) {
    let n = batch.num_qubits();
    let nets: Vec<NetId> = batch.circuit().net_ids().collect();
    let gates: Vec<GateId> = batch.circuit().ordered_gates().map(|(id, _)| id).collect();
    match rng.random_range(0..4u32) {
        0 => {
            let net = nets[rng.random_range(0..nets.len())];
            let occupied = batch.circuit().net(net).unwrap().occupied_mask();
            if let Some((kind, qubits)) = random_gate(rng, n, occupied) {
                let id = batch.insert_gate(kind, net, &qubits).unwrap();
                assert_eq!(replay.insert_gate(kind, net, &qubits).unwrap(), id);
            }
        }
        1 if !gates.is_empty() => {
            let gate = gates[rng.random_range(0..gates.len())];
            batch.remove_gate(gate).unwrap();
            replay.remove_gate(gate).unwrap();
        }
        2 if nets.len() > 2 => {
            let net = nets[rng.random_range(0..nets.len())];
            batch.remove_net(net).unwrap();
            replay.remove_net(net).unwrap();
        }
        _ => {
            let after = nets[rng.random_range(0..nets.len())];
            let victim = (!gates.is_empty()).then(|| gates[rng.random_range(0..gates.len())]);
            let new_gates: Vec<_> = (0..rng.random_range(2..=4))
                .map(|_| random_gate(rng, n, 0).unwrap())
                .collect();
            let edit = |tx: &mut EditTxn<'_>| {
                let net = tx.insert_net_after(after)?;
                let mut occupied = 0u64;
                for (kind, qubits) in &new_gates {
                    let mask = qubits.iter().fold(0u64, |m, q| m | 1 << q);
                    if mask & occupied == 0 {
                        tx.insert_gate(*kind, net, qubits)?;
                        occupied |= mask;
                    }
                }
                if let Some(gate) = victim {
                    tx.remove_gate(gate)?;
                }
                Ok(())
            };
            let (_, a) = batch.edit(edit).unwrap();
            let (_, b) = replay.edit(edit).unwrap();
            // The frontiers may differ: a removal seeds it with the
            // removed partitions' successors, and the replay keeps
            // redundant edges the batch never made.
            let frontier_blind = |r: EditReceipt| EditReceipt {
                frontier_len: 0,
                ..r
            };
            assert_eq!(
                frontier_blind(a),
                frontier_blind(b),
                "both commits did the same"
            );
        }
    }
}

/// One link pass over a whole circuit builds the same simulation as
/// linking it gate at a time: on seeded random circuits (3–10 qubits,
/// blocks of 1–32) the states are `==`, both graphs validate (coherence
/// and nearest-cover reachability), and the batch's edges are a subset
/// of the replay's — strictly fewer on some circuits, where a row landed
/// between linked rows of its net. A seeded
/// edit storm then keeps both engines `==` to each other and ≈ the naive
/// oracle, with a clean audit after every update.
#[test]
fn batch_link_matches_gate_at_a_time_replay() {
    let mut rng = StdRng::seed_from_u64(0xBA7C_41C5);
    let mut fewer_edges = 0;
    for case in 0..40 {
        let n = rng.random_range(3..=10u8);
        let mut cfg = SimConfig::with_block_size(1 << rng.random_range(0..=5u32));
        cfg.num_threads = 2;
        let circuit = random_circuit(&mut rng, n);
        let mut batch = Ckt::from_circuit(&circuit, cfg.clone());
        let mut replay = Ckt::with_config(n, cfg);
        for net in circuit.net_ids() {
            let rn = replay.push_net();
            for (_, gate) in circuit.net_gates(net) {
                replay.insert_gate(gate.kind(), rn, gate.qubits()).unwrap();
            }
        }
        let ctx = format!("case {case} ({n} qubits)");
        for ckt in [&batch, &replay] {
            ckt.validate_graph()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
            ckt.validate_reachability()
                .unwrap_or_else(|e| panic!("{ctx}: {e}"));
        }
        let (batch_edges, replay_edges) = (edge_set(&batch), edge_set(&replay));
        assert!(
            batch_edges.is_subset(&replay_edges),
            "{ctx}: batch edges {:?} missing from the replay",
            batch_edges.difference(&replay_edges).collect::<Vec<_>>()
        );
        if batch_edges.len() < replay_edges.len() {
            fewer_edges += 1;
        }
        update_pair(&mut batch, &mut replay, &ctx);
        if case % 4 == 0 {
            for step in 0..30 {
                storm_step(&mut rng, &mut batch, &mut replay);
                if rng.random_bool(0.5) {
                    update_pair(&mut batch, &mut replay, &format!("{ctx} step {step}"));
                }
            }
            update_pair(&mut batch, &mut replay, &format!("{ctx} storm end"));
            batch.validate_reachability().unwrap();
        }
    }
    assert!(fewer_edges > 0, "no circuit dropped a redundant edge");
}
