//! Differential suite for incremental views: a seeded edit storm
//! (inserts, transactional batches, gate/net removals) drives the
//! engine, and after EVERY published version each registered view's
//! incrementally maintained value is compared against an oracle
//! recomputed from scratch off the published snapshot.

use qtask::core::{block_norm_sqr, BlockDelta, SnapshotObserver};
use qtask::prelude::*;
use rand::{Rng, SeedableRng};
use std::sync::{Arc, Mutex};

const EPS: f64 = 1e-9;

/// The observable vocabulary under differential test, with its oracle.
struct Tracked {
    handle: qtask::views::ViewHandle,
    oracle: Box<dyn Fn(&StateSnapshot) -> ViewValue>,
    label: &'static str,
}

fn oracle_pauli(snap: &StateSnapshot, xmask: usize, zmask: usize) -> f64 {
    let state = snap.state();
    let phase = match (xmask & zmask).count_ones() % 4 {
        0 => Complex64::ONE,
        1 => Complex64::I,
        2 => c64(-1.0, 0.0),
        _ => c64(0.0, -1.0),
    };
    let mut acc = Complex64::ZERO;
    for (m, amp) in state.iter().enumerate() {
        let partner = m ^ xmask;
        let sign = if (partner & zmask).count_ones() & 1 == 1 {
            -1.0
        } else {
            1.0
        };
        acc += amp.conj() * state[partner] * phase * sign;
    }
    acc.re
}

fn assert_values_close(got: &ViewValue, want: &ViewValue, ctx: &str) {
    match (got, want) {
        (ViewValue::Scalar(g), ViewValue::Scalar(w)) => {
            assert!((g - w).abs() < EPS, "{ctx}: got {g}, want {w}");
        }
        (ViewValue::Vector(g), ViewValue::Vector(w)) => {
            assert_eq!(g.len(), w.len(), "{ctx}: dims");
            for (i, (gv, wv)) in g.iter().zip(w).enumerate() {
                assert!((gv - wv).abs() < EPS, "{ctx}[{i}]: got {gv}, want {wv}");
            }
        }
        _ => panic!("{ctx}: scalar/vector shape mismatch"),
    }
}

fn random_kind(rng: &mut rand::StdRng) -> GateKind {
    match rng.random_range(0..10u32) {
        0 => GateKind::H,
        1 => GateKind::X,
        2 => GateKind::Y,
        3 => GateKind::Z,
        4 => GateKind::S,
        5 => GateKind::T,
        6 => GateKind::Sx,
        7 => GateKind::Rx(rng.random_range(-3.0..3.0)),
        8 => GateKind::Ry(rng.random_range(-3.0..3.0)),
        _ => GateKind::Rz(rng.random_range(-3.0..3.0)),
    }
}

fn two_qubit_kind(rng: &mut rand::StdRng) -> GateKind {
    match rng.random_range(0..3u32) {
        0 => GateKind::Cx,
        1 => GateKind::Cz,
        _ => GateKind::Swap,
    }
}

#[test]
fn views_match_oracle_at_every_version_through_edit_storm() {
    const N: u8 = 6;
    for case in 0..4u64 {
        let mut cfg = SimConfig::with_block_size(4);
        cfg.num_threads = 2;
        let mut ckt = Ckt::with_config(N, cfg);
        let registry = ViewRegistry::new();
        registry.attach(&mut ckt);

        let mut tracked: Vec<Tracked> = vec![
            Tracked {
                handle: registry.register(Box::new(NormView::new())),
                oracle: Box::new(|s| ViewValue::Scalar(s.norm_sqr())),
                label: "norm",
            },
            Tracked {
                handle: registry.register(Box::new(ProbabilityView::basis(5))),
                oracle: Box::new(|s| ViewValue::Scalar(s.amplitude(5).norm_sqr())),
                label: "prob[5]",
            },
            Tracked {
                handle: registry.register(Box::new(ProbabilityView::marginal(vec![0, 3]))),
                oracle: Box::new(|s| {
                    let mut dist = vec![0.0; 4];
                    for (m, p) in s.probabilities().iter().enumerate() {
                        dist[(m & 1) | ((m >> 3) & 1) << 1] += p;
                    }
                    ViewValue::Vector(dist)
                }),
                label: "marginal[0,3]",
            },
            Tracked {
                // X on q1, Z on q4 — X-support forces the pairing-partner
                // support closure on every patch.
                handle: registry.register(Box::new(ExpectationView::pauli(0b10, 0b10000))),
                oracle: Box::new(|s| ViewValue::Scalar(oracle_pauli(s, 0b10, 0b10000))),
                label: "pauli[x=2,z=16]",
            },
            Tracked {
                // Y on q2 (X and Z both) — exercises the i^{|Y|} phase.
                handle: registry.register(Box::new(ExpectationView::pauli(0b100, 0b100))),
                oracle: Box::new(|s| ViewValue::Scalar(oracle_pauli(s, 0b100, 0b100))),
                label: "pauli[y=4]",
            },
            Tracked {
                handle: registry.register(Box::new(ExpectationView::diagonal(
                    "hamming",
                    |j: usize| j.count_ones() as f64,
                ))),
                oracle: Box::new(|s| {
                    ViewValue::Scalar(
                        s.probabilities()
                            .iter()
                            .enumerate()
                            .map(|(j, p)| p * j.count_ones() as f64)
                            .sum(),
                    )
                }),
                label: "diag:hamming",
            },
        ];

        let mut rng = rand::StdRng::seed_from_u64(0x51EE5 ^ case);
        let mut nets: Vec<NetId> = Vec::new();
        let mut gates: Vec<GateId> = Vec::new();
        for round in 0..30 {
            match rng.random_range(0..10u32) {
                // Plain insert: a new net with 1–3 single-qubit gates.
                0..=3 => {
                    let net = ckt.push_net();
                    nets.push(net);
                    for _ in 0..rng.random_range(1..4u32) {
                        let kind = random_kind(&mut rng);
                        let q = rng.random_range(0..N);
                        if let Ok(g) = ckt.insert_gate(kind, net, &[q]) {
                            gates.push(g);
                        }
                    }
                }
                // Transactional batch with a two-qubit gate.
                4..=6 => {
                    // A qubit of the pair is deliberately re-claimed by a
                    // 1q gate half the time: those transactions conflict
                    // and must roll back without perturbing any view.
                    let reclaim = rng.random_range(0..2u32) == 0;
                    let committed = ckt.edit(|tx| {
                        let net = tx.push_net();
                        let kind = two_qubit_kind(&mut rng);
                        let a = rng.random_range(0..N);
                        let b = (a + rng.random_range(1..N)) % N;
                        let g2 = tx.insert_gate(kind, net, &[a, b])?;
                        if reclaim {
                            tx.insert_gate(GateKind::H, net, &[a])?;
                        }
                        Ok((net, g2))
                    });
                    if let Ok(((net, g2), _)) = committed {
                        nets.push(net);
                        gates.push(g2);
                    }
                }
                // Removal: a random surviving gate.
                7..=8 => {
                    if !gates.is_empty() {
                        let g = gates.swap_remove(rng.random_range(0..gates.len()));
                        let _ = ckt.remove_gate(g);
                    }
                }
                // Removal: a whole net (drops its gates from the pool).
                _ => {
                    if !nets.is_empty() {
                        let net = nets.swap_remove(rng.random_range(0..nets.len()));
                        if ckt.remove_net(net).is_ok() {
                            let circuit = ckt.circuit();
                            gates.retain(|g| circuit.gate_net(*g).is_some());
                        }
                    }
                }
            }
            ckt.update_state().expect("storm update");

            // Midway, register a NEW view: it starts at version 0, so the
            // next delta is a version gap it must full-refresh across.
            if round == 10 {
                tracked.push(Tracked {
                    handle: registry.register(Box::new(ProbabilityView::basis(0))),
                    oracle: Box::new(|s| ViewValue::Scalar(s.amplitude(0).norm_sqr())),
                    label: "prob[0] (late)",
                });
            }

            let snap = ckt.latest_snapshot().expect("published");
            for t in &tracked {
                let Some(reading) = t.handle.reading() else {
                    // Only legal for the late view before its first delta.
                    assert_eq!(t.label, "prob[0] (late)", "missing reading");
                    continue;
                };
                assert_eq!(
                    reading.version,
                    snap.version(),
                    "case {case} round {round}: {} is stale",
                    t.label
                );
                let want = (t.oracle)(&snap);
                assert_values_close(
                    &reading.value,
                    &want,
                    &format!("case {case} round {round}: {}", t.label),
                );
            }
        }

        // The storm must have taken the cheap path most of the time:
        // incremental patches, not per-publication rescans.
        let report = registry.report();
        assert!(
            report.patches > report.full_refreshes,
            "case {case}: patches {} vs full refreshes {} — delta propagation is not engaging",
            report.patches,
            report.full_refreshes
        );
    }
}

/// Records every `(snapshot, delta)` pair the engine publishes.
#[derive(Default)]
struct Publications(Mutex<Vec<(StateSnapshot, BlockDelta)>>);

impl SnapshotObserver for Publications {
    fn on_publish(&self, snap: &StateSnapshot, delta: &BlockDelta) {
        self.0.lock().unwrap().push((snap.clone(), delta.clone()));
    }
}

/// A sparse linear row's delta names exactly the blocks the row writes,
/// not its partitions' whole spans. At 12 qubits and 16-amplitude blocks
/// the grain is 512 items, so the two partitions of a CX whose control
/// (qubit 5) is bit 1 of the block index span 252 blocks, of which the
/// row writes only the 128 with that bit set. The views patched from that
/// delta still match the oracle.
#[test]
fn sparse_linear_row_delta_names_only_written_blocks() {
    const N: u8 = 12;
    let mut cfg = SimConfig::with_block_size(16);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(N, cfg);
    assert!(ckt.geometry().grain() > ckt.geometry().block_size());
    let log = Arc::new(Publications::default());
    ckt.attach_observer(log.clone());
    let registry = ViewRegistry::new();
    registry.attach(&mut ckt);
    let norm = registry.register(Box::new(NormView::new()));
    let marginal = registry.register(Box::new(ProbabilityView::marginal(vec![0, 5])));
    let pauli = registry.register(Box::new(ExpectationView::pauli(0b1, 0b10_0000)));

    // A state with no symmetry the CX could hide behind.
    let first = ckt.push_net();
    for q in 0..N {
        ckt.insert_gate(GateKind::Ry(0.3 + 0.17 * f64::from(q)), first, &[q])
            .unwrap();
    }
    ckt.update_state().unwrap();
    let rows_before: Vec<String> = ckt.debug_rows().into_iter().map(|(l, _)| l).collect();

    let tail = ckt.push_net();
    ckt.insert_gate(GateKind::Cx, tail, &[5, 0]).unwrap();
    ckt.update_state().unwrap();

    let (label, owned) = ckt
        .debug_rows()
        .into_iter()
        .find(|(l, _)| !rows_before.contains(l))
        .expect("the CX row");
    let want: Vec<usize> = (0..ckt.geometry().num_blocks())
        .filter(|b| b & 0b10 != 0)
        .collect();
    assert_eq!(
        owned, want,
        "the CX writes the blocks with its control bit set"
    );
    let spanned: u32 = ckt
        .debug_partitions()
        .iter()
        .filter(|p| p.0 == label)
        .map(|p| p.2 - p.1 + 1)
        .sum();
    assert_eq!(
        spanned, 252,
        "the spans must cover blocks the row never writes"
    );
    let (_, delta) = log.0.lock().unwrap().pop().expect("a delta");
    assert!(!delta.full);
    assert_eq!(delta.dirty, owned, "delta names exactly the written blocks");

    let snap = ckt.latest_snapshot().unwrap();
    let probs = snap.probabilities();
    let mut dist = vec![0.0; 4];
    for (m, p) in probs.iter().enumerate() {
        dist[(m & 1) | ((m >> 5) & 1) << 1] += p;
    }
    for (handle, want, label) in [
        (&norm, ViewValue::Scalar(snap.norm_sqr()), "norm"),
        (&marginal, ViewValue::Vector(dist), "marginal[0,5]"),
        (
            &pauli,
            ViewValue::Scalar(oracle_pauli(&snap, 0b1, 0b10_0000)),
            "pauli[x=1,z=32]",
        ),
    ] {
        let reading = handle.reading().expect("a reading");
        assert_eq!(reading.version, snap.version(), "{label} is stale");
        assert_values_close(&reading.value, &want, label);
    }
    assert!(
        registry.report().patches > 0,
        "the views were patched, not rebuilt"
    );
}

/// Where a marginal's qubits sit relative to the block width.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Shape {
    AboveBlock,
    InBlock,
    Straddling,
}

fn shape(qubits: &[u8], block_size: usize) -> Shape {
    let log2_block = block_size.trailing_zeros();
    let inside = qubits
        .iter()
        .filter(|&&q| u32::from(q) < log2_block)
        .count();
    match inside {
        0 => Shape::AboveBlock,
        n if n == qubits.len() => Shape::InBlock,
        _ => Shape::Straddling,
    }
}

/// A marginal's per-block partials computed the direct way: every
/// amplitude's bin from its full basis index, added in index order.
fn reference_marginal_partials(snap: &StateSnapshot, qubits: &[u8]) -> Vec<f64> {
    let geom = snap.geometry();
    let (bs, dims) = (geom.block_size(), 1usize << qubits.len());
    let bin = |j: usize| -> usize { (0..).zip(qubits).map(|(k, &q)| ((j >> q) & 1) << k).sum() };
    let mut out = vec![0.0; geom.num_blocks() * dims];
    for b in 0..geom.num_blocks() {
        let row = &mut out[b * dims..(b + 1) * dims];
        match snap.raw_block(b) {
            Some(d) => {
                for (off, z) in d.iter().enumerate() {
                    row[bin(b * bs + off)] += z.norm_sqr();
                }
            }
            None if b == 0 => row[0] = 1.0,
            None => {}
        }
    }
    out
}

/// Patching is bit-exact: at every published version of an edit storm,
/// each patched view's per-block partials are `==` to those of a view
/// refreshed from scratch on the same snapshot, and a marginal's are `==`
/// to the per-amplitude reference — for every marginal
/// shape (above, inside and straddling the block width) and for block
/// sizes 1 to 64. The engine's `BlockDelta::norms` must also equal the
/// block norms recomputed from the snapshot.
#[test]
fn patched_partials_equal_refresh_bit_exactly() {
    const N: u8 = 8;
    const MARGINALS: [&[u8]; 6] = [&[7, 6], &[5, 7], &[0, 1], &[1, 3], &[2, 6, 4], &[0, 5, 3]];
    let mut shapes = std::collections::HashSet::new();
    let mut patches = 0usize;
    for block_size in [1usize, 4, 16, 64] {
        let mut cfg = SimConfig::with_block_size(block_size);
        cfg.num_threads = 2;
        let mut ckt = Ckt::with_config(N, cfg);
        let log = Arc::new(Publications::default());
        ckt.attach_observer(log.clone());
        let mut norm = NormView::new();
        let mut marginals: Vec<ProbabilityView> = MARGINALS
            .iter()
            .map(|q| ProbabilityView::marginal(q.to_vec()))
            .collect();
        for q in MARGINALS {
            shapes.insert(shape(q, block_size));
        }

        let mut rng = rand::StdRng::seed_from_u64(0xB17E ^ block_size as u64);
        let mut gates: Vec<GateId> = Vec::new();
        for round in 0..40 {
            if !gates.is_empty() && rng.random_range(0..4u32) == 0 {
                let g = gates.swap_remove(rng.random_range(0..gates.len()));
                ckt.remove_gate(g).unwrap();
            } else {
                let net = ckt.push_net();
                let a = rng.random_range(0..N);
                let g = if rng.random_range(0..3u32) == 0 {
                    let b = (a + rng.random_range(1..N)) % N;
                    ckt.insert_gate(two_qubit_kind(&mut rng), net, &[a, b])
                } else {
                    ckt.insert_gate(random_kind(&mut rng), net, &[a])
                };
                gates.push(g.unwrap());
            }
            ckt.update_state().unwrap();
            for (snap, delta) in log.0.lock().unwrap().drain(..) {
                let ctx = format!("B={block_size} round {round} v{}", snap.version());
                if delta.full {
                    norm.refresh(&snap);
                    marginals.iter_mut().for_each(|m| m.refresh(&snap));
                    continue;
                }
                for (b, n) in delta.dirty_norms() {
                    assert_eq!(n, block_norm_sqr(b, snap.raw_block(b)), "{ctx}: norms[{b}]");
                }
                patches += 1;
                norm.patch(&snap, &delta);
                let mut fresh = NormView::new();
                fresh.refresh(&snap);
                assert!(norm.partials() == fresh.partials(), "{ctx}: norm");
                for (m, q) in marginals.iter_mut().zip(MARGINALS) {
                    m.patch(&snap, &delta);
                    let mut fresh = ProbabilityView::marginal(q.to_vec());
                    fresh.refresh(&snap);
                    assert!(m.partials() == fresh.partials(), "{ctx}: marginal{q:?}");
                    assert!(
                        m.partials() == reference_marginal_partials(&snap, q),
                        "{ctx}: marginal{q:?} vs reference"
                    );
                }
            }
        }
    }
    assert!(patches > 100, "only {patches} incremental publications");
    for s in [Shape::AboveBlock, Shape::InBlock, Shape::Straddling] {
        assert!(shapes.contains(&s), "no {s:?} marginal was exercised");
    }
}
