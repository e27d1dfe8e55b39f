//! Transient rows against every row retained.
//!
//! A default engine lets a row rewrite its predecessor's buffer in place and replays the evicted entry inside
//! the run or publication whose read lands on it. This suite drives it
//! and an engine
//! whose every row is a retained checkpoint ([`retain_every_row`])
//! through the same seeded storm of inserts, removals and multi-op
//! edits — edits landing inside a chain of linear rows, two tail
//! removals read back by `snapshot()` with no update in between, and a
//! reader pinning a snapshot across edits — and after every step
//! requires the two states to be `==`, both to match the serial
//! [`NaiveSim`] oracle, and both audits to be empty. A fixed chain does
//! the same around entries a superposition row evicted, a test runs
//! two audits of one engine at once over evicted final entries, and a
//! last one toggles qft levels and bounds the bytes held.

use qtask::core::test_support::retain_every_row;
use qtask::prelude::*;
use qtask_baselines::{NaiveSim, Simulator};
use qtask_num::vecops;
use rand::prelude::*;
use std::fmt::Debug;

const LINEAR: [GateKind; 8] = [
    GateKind::X,
    GateKind::T,
    GateKind::S,
    GateKind::Z,
    GateKind::Cx,
    GateKind::Cz,
    GateKind::Swap,
    GateKind::Ccx,
];

const DENSE: [GateKind; 2] = [GateKind::H, GateKind::Ry(0.7)];

/// A random gate on distinct qubits: linear four times in five.
fn random_gate(rng: &mut StdRng, n: u8) -> (GateKind, Vec<u8>) {
    let kind = if rng.random_bool(0.8) {
        LINEAR[rng.random_range(0..LINEAR.len())]
    } else {
        DENSE[rng.random_range(0..DENSE.len())]
    };
    let mut qubits: Vec<u8> = (0..n).collect();
    qubits.shuffle(rng);
    qubits.truncate(kind.arity());
    (kind, qubits)
}

/// The state of `circuit` by the serial oracle.
fn naive_state(circuit: &Circuit) -> Vec<Complex64> {
    let mut naive = NaiveSim::new(circuit.num_qubits());
    for (net, _) in circuit.nets() {
        let copy = naive.push_net();
        for (_, gate) in circuit.net_gates(net) {
            naive.insert_gate(gate.kind(), copy, gate.qubits()).unwrap();
        }
    }
    naive.update_state();
    naive.state_vec()
}

/// The default engine and the every-row-retained one, fed the same ops.
struct Pair {
    lean: Ckt,
    retained: Ckt,
}

impl Pair {
    fn new(n: u8, cfg: SimConfig) -> Pair {
        let mut retained = Ckt::with_config(n, cfg.clone());
        retain_every_row(&mut retained);
        Pair {
            lean: Ckt::with_config(n, cfg),
            retained,
        }
    }

    /// Runs `op` on both engines; its results (ids, errors) must agree.
    fn both<T: PartialEq + Debug>(&mut self, op: impl Fn(&mut Ckt) -> T) -> T {
        let got = op(&mut self.lean);
        assert_eq!(got, op(&mut self.retained), "the engines diverged");
        got
    }

    /// Updates both engines. Their runs execute the same new partitions;
    /// the lean one's also replays the evicted entries its run reads, so
    /// it executes no fewer in all.
    fn update(&mut self) {
        let fresh = |r: &UpdateReport| r.partitions_executed - r.graph_nodes_reused;
        let lean = self.lean.update_state().unwrap();
        let retained = self.retained.update_state().unwrap();
        assert_eq!(fresh(&lean), fresh(&retained), "the engines diverged");
        assert!(lean.partitions_executed >= retained.partitions_executed);
    }

    /// The step's checks: `snapshot()` on both engines agrees bit for
    /// bit and with the oracle, and both audits are empty.
    fn check(&mut self, ctx: &str) {
        let lean = self.lean.snapshot().state();
        assert_eq!(
            lean,
            self.retained.snapshot().state(),
            "{ctx}: transient rows changed the state"
        );
        let want = naive_state(self.lean.circuit());
        assert!(
            vecops::approx_eq(&lean, &want, 1e-9),
            "{ctx}: off the oracle by {}",
            vecops::max_abs_diff(&lean, &want)
        );
        assert_eq!(self.lean.audit(), vec![], "{ctx}: audit");
        assert_eq!(self.retained.audit(), vec![], "{ctx}: retained audit");
        self.lean
            .validate_owner_index()
            .unwrap_or_else(|e| panic!("{ctx}: {e}"));
    }
}

#[test]
fn transient_rows_match_every_row_retained() {
    let mut rng = StdRng::seed_from_u64(0x7_2a45);
    // Buffers the lean engine held without the retained one holding them
    // fewer, and captures that had to replay a tail.
    let (mut leaner, mut rematerialized, mut pinned_checks) = (0, 0, 0);
    for trial in 0..6 {
        let n = rng.random_range(4..=6u8);
        let mut cfg = SimConfig::with_block_size(1 << rng.random_range(0..=3u32));
        cfg.num_threads = 2;
        let mut pair = Pair::new(n, cfg);
        // A superposed head, then a chain of one-gate nets.
        let head = pair.both(|ckt| ckt.push_net());
        for q in 0..n.min(3) {
            pair.both(|ckt| ckt.insert_gate(GateKind::H, head, &[q]).ok());
        }
        let mut nets = vec![head];
        let mut live = Vec::new();
        for _ in 0..32 {
            let (kind, qubits) = random_gate(&mut rng, n);
            let net = pair.both(|ckt| ckt.push_net());
            nets.push(net);
            live.extend(pair.both(|ckt| ckt.insert_gate(kind, net, &qubits).ok()));
        }
        pair.update();
        pair.check(&format!("trial {trial} build"));
        let mut pinned: Option<(StateSnapshot, Vec<Complex64>)> = None;
        for step in 0..50 {
            let ctx = format!("trial {trial} step {step}");
            match rng.random_range(0..10) {
                // One gate into a random net: inside the chain mostly.
                0..=2 => {
                    let (kind, qubits) = random_gate(&mut rng, n);
                    let net = nets[rng.random_range(0..nets.len())];
                    live.extend(pair.both(|ckt| ckt.insert_gate(kind, net, &qubits).ok()));
                }
                3..=4 if !live.is_empty() => {
                    let g = live.swap_remove(rng.random_range(0..live.len()));
                    pair.both(|ckt| ckt.remove_gate(g).unwrap());
                }
                // A multi-op edit: removals, and a fresh net inside the
                // chain with a gate or two.
                5..=6 => {
                    let mut victims = Vec::new();
                    for _ in 0..rng.random_range(0..=2) {
                        if !live.is_empty() {
                            victims.push(live.swap_remove(rng.random_range(0..live.len())));
                        }
                    }
                    let after = nets[rng.random_range(0..nets.len())];
                    let adds: Vec<_> = (0..rng.random_range(1..=2))
                        .map(|_| random_gate(&mut rng, n))
                        .collect();
                    let (net, added) = pair.both(|ckt| {
                        ckt.edit(|tx| {
                            for &g in &victims {
                                tx.remove_gate(g)?;
                            }
                            let net = tx.insert_net_after(after)?;
                            let added: Vec<GateId> = adds
                                .iter()
                                .filter_map(|(k, q)| tx.insert_gate(*k, net, q).ok())
                                .collect();
                            Ok((net, added))
                        })
                        .map(|(value, _)| value)
                        .unwrap()
                    });
                    nets.push(net);
                    live.extend(added);
                }
                // Three linear tail nets run together, then the last two
                // removed and read back with no update in between: the
                // first one's buffers went to the second, so the capture
                // replays them.
                7 => {
                    let mut tail = Vec::new();
                    for _ in 0..3 {
                        let kind = LINEAR[rng.random_range(0..LINEAR.len())];
                        let mut qubits: Vec<u8> = (1..n).collect();
                        qubits.shuffle(&mut rng);
                        qubits[kind.arity() - 1] = 0;
                        qubits.truncate(kind.arity());
                        let net = pair.both(|ckt| ckt.push_net());
                        nets.push(net);
                        tail.push(pair.both(|ckt| ckt.insert_gate(kind, net, &qubits).unwrap()));
                    }
                    pair.update();
                    live.push(tail[0]);
                    for &g in tail[1..].iter().rev() {
                        pair.both(|ckt| ckt.remove_gate(g).unwrap());
                    }
                    let held = pair.lean.memory_stats().owned_blocks;
                    pair.check(&format!("{ctx} tail removals"));
                    if pair.lean.memory_stats().owned_blocks > held {
                        rematerialized += 1;
                    }
                    continue;
                }
                // A reader pins the current version across what follows.
                _ => {
                    if let Some((snap, state)) = pinned.take() {
                        assert_eq!(snap.state(), state, "{ctx}: pinned version moved");
                        pinned_checks += 1;
                    }
                    let snap = pair.lean.snapshot();
                    let state = snap.state();
                    pinned = Some((snap, state));
                }
            }
            pair.update();
            pair.check(&ctx);
            let (lean, retained) = (pair.lean.memory_stats(), pair.retained.memory_stats());
            assert!(lean.owned_blocks <= retained.owned_blocks, "{ctx}");
            if lean.owned_blocks < retained.owned_blocks {
                leaner += 1;
            }
        }
        if let Some((snap, state)) = pinned {
            assert_eq!(snap.state(), state, "trial {trial}: pinned version moved");
        }
    }
    assert!(leaner > 100, "transient rows held fewer buffers {leaner}x");
    assert!(
        rematerialized > 5,
        "tail captures re-materialized {rematerialized}x"
    );
    assert!(pinned_checks > 5, "pinned readers checked {pinned_checks}x");
}

/// A superposition row takes its transient predecessor's buffers as any
/// row does. On blocks of 4 amplitudes, H(q0) inside a linear chain
/// rewrites the buffers of the S(q0) row before it in place and
/// evicts that row's entries. A gate inserted between the two then reads
/// those entries while the run is planned, and after the tail back to
/// H(q0) is removed, `snapshot()` reads the entries H(q0)'s successor
/// took, whose segment runs the H row again from the inserted row's
/// entries, which it had taken too.
#[test]
fn dense_rows_evict_and_rematerialize() {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut pair = Pair::new(5, cfg);
    let chain: [(GateKind, &[u8]); 11] = [
        (GateKind::H, &[3]),
        (GateKind::X, &[0]),
        (GateKind::T, &[1]),
        (GateKind::Cx, &[2, 0]),
        (GateKind::S, &[0]),
        (GateKind::H, &[0]),
        (GateKind::T, &[0]),
        (GateKind::X, &[1]),
        (GateKind::Cz, &[0, 4]),
        (GateKind::X, &[0]),
        (GateKind::T, &[0]),
    ];
    let (mut nets, mut gates) = (Vec::new(), Vec::new());
    for (kind, qubits) in chain {
        let net = pair.both(|ckt| ckt.push_net());
        gates.push(pair.both(|ckt| ckt.insert_gate(kind, net, qubits).unwrap()));
        nets.push(net);
    }
    pair.update();
    pair.check("build");
    let inserted = pair.both(|ckt| ckt.insert_net_after(nets[4]).unwrap());
    pair.both(|ckt| ckt.insert_gate(GateKind::Y, inserted, &[1]).unwrap());
    pair.update();
    pair.check("a gate inserted before the H(q0) row");
    for &g in gates[6..].iter().rev() {
        pair.both(|ckt| ckt.remove_gate(g).unwrap());
    }
    let held = pair.lean.memory_stats().owned_blocks;
    pair.check("the tail removed back to the H(q0) row");
    assert!(
        pair.lean.memory_stats().owned_blocks > held,
        "the capture re-materialized nothing"
    );
}

/// `audit()` takes `&self`, so two threads may audit one engine at once.
/// After two tail removals the final entries are evicted; both audits
/// only read, skip those blocks (the next publication replays them) and
/// the norm check, and neither reports a violation. Once `snapshot()`
/// has replayed them, every final entry is held again and the audit
/// checks the norm.
#[test]
fn concurrent_audits_read_without_tearing() {
    for round in 0..40 {
        let mut cfg = SimConfig::with_block_size(2);
        cfg.num_threads = 2;
        let mut ckt = Ckt::with_config(7, cfg);
        let head = ckt.push_net();
        ckt.insert_gate(GateKind::H, head, &[3]).unwrap();
        let chain: Vec<GateId> = (0..12)
            .map(|i| {
                let net = ckt.push_net();
                let kind = [GateKind::X, GateKind::T, GateKind::Cx][i % 3];
                let qubits: &[u8] = if kind == GateKind::Cx { &[3, 0] } else { &[0] };
                ckt.insert_gate(kind, net, qubits).unwrap()
            })
            .collect();
        ckt.update_state().unwrap();
        for &g in chain[10..].iter().rev() {
            ckt.remove_gate(g).unwrap();
        }
        let audits = std::thread::scope(|s| {
            let runs: Vec<_> = (0..2).map(|_| s.spawn(|| ckt.audit())).collect();
            runs.into_iter()
                .map(|r| r.join().unwrap())
                .collect::<Vec<_>>()
        });
        assert_eq!(audits, vec![vec![], vec![]], "round {round}");
        let want = naive_state(ckt.circuit());
        let got = ckt.snapshot().state();
        assert!(vecops::approx_eq(&got, &want, 1e-9), "round {round}");
        assert_eq!(
            ckt.audit(),
            vec![],
            "round {round}: audit after the snapshot"
        );
    }
}

/// The paper's Fig. 16 edit loop, checked amplitude by amplitude. qft@11
/// loaded level by level on 2 pool threads, with blocks of 64 amplitudes
/// so its H rows take both pair shapes: partners inside a block (q0–q5)
/// and partners in another block (q6–q10).
/// Batches of 1–3 levels go out
/// and come back, as in the benchmark's `inc.mixed`. After every update
/// the full state must match the serial [`NaiveSim`] oracle of the
/// edited circuit to 1e-10 and the audit must be empty. Probabilities
/// alone would not do: those of qft|0…0⟩ are uniform whatever its phase
/// and swap rows compute.
#[test]
fn toggle_protocol_matches_oracle_amplitudes() {
    let mut rng = StdRng::seed_from_u64(0xf167_091e);
    let qft = qtask::bench_circuits::build("qft", Some(11)).unwrap();
    let mut cfg = SimConfig::with_block_size(64);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(11, cfg);
    type Level = Vec<(GateKind, Vec<u8>)>;
    let levels: Vec<Level> = qft
        .net_ids()
        .map(|net| {
            let gates = qft.net_gates(net);
            gates
                .map(|(_, g)| (g.kind(), g.qubits().to_vec()))
                .collect()
        })
        .collect();
    let nets: Vec<NetId> = levels.iter().map(|_| ckt.push_net()).collect();
    let mut ids: Vec<Vec<GateId>> = vec![Vec::new(); levels.len()];
    let mut toggle = |ckt: &mut Ckt, lvl: usize| {
        if ids[lvl].is_empty() {
            for (kind, qubits) in &levels[lvl] {
                ids[lvl].push(ckt.insert_gate(*kind, nets[lvl], qubits).unwrap());
            }
        } else {
            for id in ids[lvl].drain(..) {
                ckt.remove_gate(id).unwrap();
            }
        }
    };
    for lvl in 0..levels.len() {
        toggle(&mut ckt, lvl);
    }
    let check = |ckt: &mut Ckt, ctx: &str| {
        ckt.update_state().unwrap();
        let got = ckt.snapshot().state();
        let want = naive_state(ckt.circuit());
        assert!(
            vecops::approx_eq(&got, &want, 1e-10),
            "{ctx}: off the oracle by {}",
            vecops::max_abs_diff(&got, &want)
        );
        assert_eq!(ckt.audit(), vec![], "{ctx}: audit");
    };
    check(&mut ckt, "build");
    for batch in 0..16 {
        let first = rng.random_range(0..levels.len());
        let mut batch_levels = vec![first];
        for _ in 0..rng.random_range(0..3) {
            let extra = rng.random_range(first..levels.len());
            if !batch_levels.contains(&extra) {
                batch_levels.push(extra);
            }
        }
        for back in ["out", "back in"] {
            for &lvl in &batch_levels {
                toggle(&mut ckt, lvl);
            }
            check(&mut ckt, &format!("batch {batch} {batch_levels:?} {back}"));
        }
    }
}

/// Held bytes do not climb with edits (ROADMAP 13). qft@11 is loaded
/// level by level, as the benchmark's `inc.mixed` loads qft@15, and
/// simulated once; then 100 seeded levels go out and come back, one
/// update each way. A replayed segment hands its buffers on as a run
/// does, so after every update the lean engine holds at most 1.5× the
/// bytes it held after the build, its state is `==` the every-row-
/// retained twin's and matches the serial [`NaiveSim`] oracle to 1e-10,
/// and its audit is empty.
#[test]
fn toggled_levels_keep_held_bytes_near_the_build() {
    let mut rng = StdRng::seed_from_u64(0x13_a11d);
    let qft = qtask::bench_circuits::build("qft", Some(11)).unwrap();
    let mut cfg = SimConfig::with_block_size(64);
    cfg.num_threads = 2;
    let mut pair = Pair::new(11, cfg);
    type Level = Vec<(GateKind, Vec<u8>)>;
    let levels: Vec<Level> = qft
        .net_ids()
        .map(|net| {
            let gates = qft.net_gates(net);
            gates
                .map(|(_, g)| (g.kind(), g.qubits().to_vec()))
                .collect()
        })
        .collect();
    let nets: Vec<NetId> = levels
        .iter()
        .map(|_| pair.both(|ckt| ckt.push_net()))
        .collect();
    let mut ids: Vec<Vec<GateId>> = vec![Vec::new(); levels.len()];
    let mut toggle = |pair: &mut Pair, lvl: usize| {
        if ids[lvl].is_empty() {
            for (kind, qubits) in &levels[lvl] {
                ids[lvl].push(pair.both(|ckt| ckt.insert_gate(*kind, nets[lvl], qubits).unwrap()));
            }
        } else {
            for id in ids[lvl].drain(..) {
                pair.both(|ckt| ckt.remove_gate(id).unwrap());
            }
        }
    };
    for lvl in 0..levels.len() {
        toggle(&mut pair, lvl);
    }
    pair.update();
    let built = pair.lean.memory_stats().owned_bytes;
    for round in 0..100 {
        let lvl = rng.random_range(0..levels.len());
        for way in ["out", "back in"] {
            let ctx = format!("round {round}: level {lvl} {way}");
            toggle(&mut pair, lvl);
            pair.update();
            let held = pair.lean.memory_stats().owned_bytes;
            assert!(
                2 * held <= 3 * built,
                "{ctx}: {held} bytes held, {built} after the build"
            );
            let lean = pair.lean.latest_snapshot().unwrap().state();
            let retained = pair.retained.latest_snapshot().unwrap().state();
            assert_eq!(lean, retained, "{ctx}: transient rows changed the state");
            let want = naive_state(pair.lean.circuit());
            assert!(
                vecops::approx_eq(&lean, &want, 1e-10),
                "{ctx}: off the oracle by {}",
                vecops::max_abs_diff(&lean, &want)
            );
            assert_eq!(pair.lean.audit(), vec![], "{ctx}: audit");
        }
    }
}

/// Replays are counted where runs are counted. In a chain of nine X
/// rows on blocks of 4 amplitudes, the fifth row took the fourth's
/// buffers; removing it re-runs the rows after it, whose first reads land
/// on the fourth row's evicted entries, so the run replays that row and
/// `partitions_executed` counts it on top of what the every-row-retained
/// twin runs.
#[test]
fn replayed_partitions_count_as_executed() {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut pair = Pair::new(5, cfg);
    let gates: Vec<GateId> = (0..9u8)
        .map(|i| {
            let net = pair.both(|ckt| ckt.push_net());
            pair.both(|ckt| ckt.insert_gate(GateKind::X, net, &[i % 3]).unwrap())
        })
        .collect();
    pair.update();
    pair.both(|ckt| ckt.remove_gate(gates[4]).unwrap());
    let lean = pair.lean.update_state().unwrap();
    let retained = pair.retained.update_state().unwrap();
    assert!(
        lean.partitions_executed > retained.partitions_executed,
        "{} executed, {} without replays",
        lean.partitions_executed,
        retained.partitions_executed
    );
    pair.check("after the replay");
}

/// A snapshot that replays runs a pending frontier through its run as
/// passes, and the frontier stays new. Two tail removals from a chain of
/// X rows leave the final entries of the first survivor evicted, a gate
/// is inserted, and `snapshot()` replays the survivor before the update
/// simulates the insert. That update executes the same new partitions
/// as the every-row-retained twin's, which replayed nothing
/// (`Pair::update`).
#[test]
fn snapshot_replay_leaves_pending_partitions_new() {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut pair = Pair::new(5, cfg);
    let gates: Vec<GateId> = (0..9u8)
        .map(|i| {
            let net = pair.both(|ckt| ckt.push_net());
            pair.both(|ckt| ckt.insert_gate(GateKind::X, net, &[i % 3]).unwrap())
        })
        .collect();
    pair.update();
    for &g in gates[7..].iter().rev() {
        pair.both(|ckt| ckt.remove_gate(g).unwrap());
    }
    let net = pair.both(|ckt| ckt.push_net());
    pair.both(|ckt| ckt.insert_gate(GateKind::H, net, &[1]).unwrap());
    let held = pair.lean.memory_stats().owned_blocks;
    let lean = pair.lean.snapshot().state();
    assert_eq!(
        lean,
        pair.retained.snapshot().state(),
        "the snapshots diverged"
    );
    assert!(
        pair.lean.memory_stats().owned_blocks > held,
        "the snapshot replayed nothing"
    );
    pair.update();
    pair.check("after the update");
}
