//! Deep-circuit stress test for owner-index maintenance (ISSUE 1).
//!
//! Builds ~300 rows across several nets, then interleaves
//! `insert_gate`/`remove_gate`/`update_state` while mirroring every
//! modifier into the serial [`qtask_baselines::NaiveSim`] oracle. After
//! every update both simulators must agree amplitude-for-amplitude, and
//! the owner index must stay well formed, each settled row owning exactly
//! the blocks it writes — the removal path is where a stale index would silently corrupt reads, so
//! removals are weighted heavily and often batched without intervening
//! updates.

use qtask::prelude::*;
use qtask_baselines::NaiveSim;
use qtask_num::vecops;
use rand::prelude::*;

const NUM_QUBITS: u8 = 5;

fn random_gate(rng: &mut StdRng, n: u8) -> (GateKind, Vec<u8>) {
    let mut qubits: Vec<u8> = (0..n).collect();
    qubits.shuffle(rng);
    match rng.random_range(0..14u32) {
        0 => (GateKind::H, vec![qubits[0]]),
        1 => (GateKind::X, vec![qubits[0]]),
        2 => (GateKind::Y, vec![qubits[0]]),
        // Phase gates own only the target=1 half of the blocks: they are
        // the rows that create long-distance resolutions.
        3 | 4 => (GateKind::T, vec![qubits[0]]),
        5 => (GateKind::S, vec![qubits[0]]),
        6 => (GateKind::Rz(rng.random_range(-3.0..3.0)), vec![qubits[0]]),
        7 => (GateKind::Ry(rng.random_range(-3.0..3.0)), vec![qubits[0]]),
        8 => (GateKind::Cx, vec![qubits[0], qubits[1]]),
        9 => (GateKind::Cz, vec![qubits[0], qubits[1]]),
        10 => (
            GateKind::Cp(rng.random_range(-3.0..3.0)),
            vec![qubits[0], qubits[1]],
        ),
        11 => (GateKind::Swap, vec![qubits[0], qubits[1]]),
        12 => (GateKind::Ccx, vec![qubits[0], qubits[1], qubits[2]]),
        _ => (GateKind::Rx(rng.random_range(-3.0..3.0)), vec![qubits[0]]),
    }
}

fn assert_agreement(ckt: &Ckt, oracle: &mut NaiveSim, what: &str) {
    use qtask_baselines::Simulator;
    oracle.update_state();
    let got = ckt.latest_snapshot().unwrap().state();
    let want = oracle.state_vec();
    assert!(
        vecops::approx_eq(&got, &want, 1e-8),
        "{what}: diverged from naive oracle by {}",
        vecops::max_abs_diff(&got, &want)
    );
}

fn run_storm(seed: u64) {
    use qtask_baselines::Simulator;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(NUM_QUBITS, cfg);
    let mut oracle = NaiveSim::new(NUM_QUBITS);

    // Phase 1 — grow deep: a net holds at most one gate per qubit, so
    // reaching ~300 rows needs a long chain of nets. Push a fresh net
    // every other attempt; each linear gate is one row and dense gates
    // share sync+MxV pairs.
    let mut nets: Vec<NetId> = vec![ckt.push_net()];
    let mut oracle_nets: Vec<NetId> = vec![oracle.push_net()];
    // `live` pairs engine gate ids with the oracle's ids for mirrored
    // removal.
    let mut live: Vec<(GateId, GateId)> = Vec::new();
    while ckt.num_rows() < 300 {
        if rng.random_bool(0.5) {
            nets.push(ckt.push_net());
            oracle_nets.push(oracle.push_net());
        }
        let (kind, qubits) = random_gate(&mut rng, NUM_QUBITS);
        let slot = rng.random_range(0..nets.len().clamp(1, 8));
        let slot = nets.len() - 1 - slot; // bias toward recent nets
        match (
            ckt.insert_gate(kind, nets[slot], &qubits),
            oracle.insert_gate(kind, oracle_nets[slot], &qubits),
        ) {
            (Ok(a), Ok(b)) => live.push((a, b)),
            (Err(_), Err(_)) => {} // same qubit conflict in both
            (a, b) => panic!("engine/oracle disagree on insert: {a:?} vs {b:?}"),
        }
    }
    assert!(ckt.num_rows() >= 300, "stress circuit too shallow");
    ckt.update_state().unwrap();
    ckt.validate_owner_index().unwrap();
    assert_agreement(&ckt, &mut oracle, "after deep build");

    // Phase 2 — interleaved modifier storm, removal-heavy, with updates
    // only every few steps so removals batch up against a live index.
    for step in 0..400 {
        let remove = !live.is_empty() && rng.random_bool(0.45);
        if remove {
            let i = rng.random_range(0..live.len());
            let (g_ckt, g_oracle) = live.swap_remove(i);
            ckt.remove_gate(g_ckt).unwrap();
            oracle.remove_gate(g_oracle).unwrap();
        } else {
            let (kind, qubits) = random_gate(&mut rng, NUM_QUBITS);
            let slot = rng.random_range(0..nets.len());
            match (
                ckt.insert_gate(kind, nets[slot], &qubits),
                oracle.insert_gate(kind, oracle_nets[slot], &qubits),
            ) {
                (Ok(a), Ok(b)) => live.push((a, b)),
                (Err(_), Err(_)) => {}
                (a, b) => panic!("engine/oracle disagree on insert: {a:?} vs {b:?}"),
            }
        }
        ckt.validate_owner_index()
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        if step % 7 == 0 {
            ckt.update_state().unwrap();
            ckt.validate_owner_index()
                .unwrap_or_else(|e| panic!("step {step} post-update: {e}"));
        }
        if step % 40 == 0 {
            ckt.update_state().unwrap();
            assert_agreement(&ckt, &mut oracle, &format!("storm step {step}"));
        }
    }
    ckt.update_state().unwrap();
    ckt.validate_graph().unwrap();
    ckt.validate_owner_index().unwrap();
    assert_agreement(&ckt, &mut oracle, "final state");
    assert!((ckt.latest_snapshot().unwrap().norm_sqr() - 1.0).abs() < 1e-8);
}

#[test]
fn deep_storm_owner_index() {
    run_storm(0xDEE9);
}

#[test]
fn deep_storm_owner_index_second_seed() {
    run_storm(0x5EED);
}

/// A gate of the same arity as `qubits`, on the same qubits: the
/// replacement half of a remove-then-insert edit.
fn replacement_gate(rng: &mut StdRng, qubits: &[u8]) -> GateKind {
    let angle = rng.random_range(-3.0..3.0);
    match (qubits.len(), rng.random_range(0..4u32)) {
        (1, 0) => GateKind::H,
        (1, 1) => GateKind::Ry(angle),
        (1, 2) => GateKind::T,
        (1, _) => GateKind::X,
        (2, 0) => GateKind::Ch,
        (2, 1) => GateKind::Cp(angle),
        (2, 2) => GateKind::Swap,
        (2, _) => GateKind::Cx,
        (_, 0 | 1) => GateKind::Ccz,
        _ => GateKind::Ccx,
    }
}

/// Differential storm at grain > block. At 9–10 qubits and B=4 the
/// dispatch grain is 16–32 blocks, so superposition gates form MxV
/// partitions of many blocks, linear partitions fan out grain-sized
/// chunks, and controlled/phase rows span blocks their items never
/// touch — which removals must reconnect across. Inserts, removals and
/// replacements (remove + insert on the same qubits, no update between)
/// interleave with updates; after every update the engine must agree
/// with [`NaiveSim`] and `audit()` must be clean.
fn run_grain_storm(n: u8, seed: u64) {
    use qtask_baselines::Simulator;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(n, cfg);
    assert!(ckt.geometry().grain() >= 16 * ckt.geometry().block_size());
    let mut oracle = NaiveSim::new(n);
    let mut nets: Vec<(NetId, NetId)> = vec![(ckt.push_net(), oracle.push_net())];
    // (engine gate, oracle gate, index into `nets`)
    let mut live: Vec<(GateId, GateId, usize)> = Vec::new();
    let mut multi_block_mxv = false;
    let mut sparse_span = false;
    let mut updates = 0;
    for step in 0..360 {
        let roll = rng.random_range(0..10u32);
        if roll == 0 {
            nets.push((ckt.push_net(), oracle.push_net()));
        } else if roll <= 2 && !live.is_empty() {
            let (g_ckt, g_oracle, _) = live.swap_remove(rng.random_range(0..live.len()));
            ckt.remove_gate(g_ckt).unwrap();
            oracle.remove_gate(g_oracle).unwrap();
        } else if roll <= 4 && !live.is_empty() {
            let (g_ckt, g_oracle, slot) = live.swap_remove(rng.random_range(0..live.len()));
            let qubits = ckt.circuit().gate(g_ckt).unwrap().qubits().to_vec();
            ckt.remove_gate(g_ckt).unwrap();
            oracle.remove_gate(g_oracle).unwrap();
            let kind = replacement_gate(&mut rng, &qubits);
            let a = ckt.insert_gate(kind, nets[slot].0, &qubits).unwrap();
            let b = oracle.insert_gate(kind, nets[slot].1, &qubits).unwrap();
            live.push((a, b, slot));
        } else {
            let (kind, qubits) = random_gate(&mut rng, n);
            let slot = nets.len() - 1 - rng.random_range(0..nets.len().min(6));
            match (
                ckt.insert_gate(kind, nets[slot].0, &qubits),
                oracle.insert_gate(kind, nets[slot].1, &qubits),
            ) {
                (Ok(a), Ok(b)) => live.push((a, b, slot)),
                (Err(_), Err(_)) => {} // same qubit conflict in both
                (a, b) => panic!("engine/oracle disagree on insert: {a:?} vs {b:?}"),
            }
        }
        if rng.random_bool(0.3) {
            ckt.update_state().unwrap();
            updates += 1;
            let what = format!("{n} qubits, seed {seed:#x}, step {step}");
            assert_eq!(ckt.audit(), vec![], "{what}: audit");
            assert_agreement(&ckt, &mut oracle, &what);
            let parts = ckt.debug_partitions();
            multi_block_mxv |= parts.iter().any(|p| p.0.starts_with("MxV") && p.2 > p.1);
            for (label, owned) in ckt.debug_rows() {
                if !label.starts_with('G') {
                    continue; // linear rows are labelled G<seq>
                }
                let spanned: usize = parts
                    .iter()
                    .filter(|p| p.0 == label)
                    .map(|p| (p.2 - p.1 + 1) as usize)
                    .sum();
                sparse_span |= spanned > owned.len();
            }
        }
    }
    ckt.update_state().unwrap();
    assert_eq!(ckt.audit(), vec![]);
    ckt.validate_reachability().unwrap();
    assert_agreement(&ckt, &mut oracle, "final state");
    assert!(updates > 50, "only {updates} updates");
    assert!(multi_block_mxv, "no MxV partition spanned several blocks");
    assert!(sparse_span, "no linear span held a block its items skip");
}

#[test]
fn grain_storm_matches_oracle_at_9_and_10_qubits() {
    run_grain_storm(9, 0x6A19);
    run_grain_storm(10, 0x6A1A);
}
