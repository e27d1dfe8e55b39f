//! Criterion micro-benchmarks of the building blocks: gate kernels,
//! item-pattern enumeration, partition derivation, executor fan-out, and
//! the COW resolve chain.

use criterion::{criterion_group, criterion_main, Criterion};
use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use qtask_num::{vecops, Complex64};
use qtask_partition::{derive_partitions, kernels, BlockGeometry, LinearOp};
use qtask_taskflow::{Executor, NodeId, RetainedGraph};
use std::hint::black_box;

fn bench_kernels(c: &mut Criterion) {
    let n = 16u8;
    let mut state = vecops::ket_zero(n as usize);
    kernels::apply_gate(GateKind::H, 0, &[0], &mut state);
    let mut g = c.benchmark_group("kernels_16q");
    g.sample_size(20);
    g.bench_function("cnot", |b| {
        b.iter(|| kernels::apply_gate(GateKind::Cx, 1 << 15, &[0], black_box(&mut state)))
    });
    g.bench_function("rz", |b| {
        b.iter(|| kernels::apply_gate(GateKind::Rz(0.3), 0, &[7], black_box(&mut state)))
    });
    g.bench_function("hadamard_dense", |b| {
        b.iter(|| kernels::apply_gate(GateKind::H, 0, &[7], black_box(&mut state)))
    });
    g.finish();
}

fn bench_pattern(c: &mut Criterion) {
    let op = LinearOp::AntiDiag {
        controls: 1 << 20,
        target: 3,
        a01: Complex64::ONE,
        a10: Complex64::ONE,
    };
    let pattern = op.pattern(24);
    let mut g = c.benchmark_group("pattern");
    g.sample_size(20);
    g.bench_function("iter_1M_lows", |b| {
        b.iter(|| {
            let mut acc = 0u64;
            for low in pattern.iter_lows(0..1_000_000) {
                acc = acc.wrapping_add(low);
            }
            black_box(acc)
        })
    });
    g.bench_function("nth_low", |b| {
        b.iter(|| black_box(pattern.nth_low(black_box(123_456))))
    });
    g.finish();
}

fn bench_derive(c: &mut Criterion) {
    let geom = BlockGeometry::new(22, 256);
    let op = LinearOp::AntiDiag {
        controls: 1 << 21,
        target: 2,
        a01: Complex64::ONE,
        a10: Complex64::ONE,
    };
    let pattern = op.pattern(22);
    let mut g = c.benchmark_group("derive_partitions");
    g.sample_size(20);
    g.bench_function("cnot_22q_B256", |b| {
        b.iter(|| black_box(derive_partitions(black_box(&pattern), &geom)))
    });
    g.finish();
}

fn bench_executor(c: &mut Criterion) {
    let ex = Executor::new(8);
    let mut graph = RetainedGraph::<()>::new();
    let name: std::sync::Arc<str> = std::sync::Arc::from("t");
    let nodes: Vec<NodeId> = (0..1000)
        .map(|_| graph.insert((), 0, name.clone()))
        .collect();
    let mut g = c.benchmark_group("executor");
    g.sample_size(10);
    g.bench_function("run_1000_noop_tasks", |b| {
        b.iter(|| {
            for &node in &nodes {
                graph.mark_dirty(node);
            }
            ex.run_dirty(&mut graph, &|_, _| {}).unwrap()
        })
    });
    g.finish();
}

fn bench_incremental_update(c: &mut Criterion) {
    // Steady-state incremental update cost: toggle one late gate of a
    // 14-qubit QFT and update.
    let circuit = qtask_bench_circuits::build("qft", Some(14)).unwrap();
    let mut ckt = Ckt::from_circuit(&circuit, SimConfig::default());
    // A dedicated trailing net so the toggled gate never conflicts.
    let extra_net = ckt.push_net();
    ckt.update_state().unwrap();
    let mut g = c.benchmark_group("incremental");
    g.sample_size(20);
    g.bench_function("toggle_last_net_gate_qft14", |b| {
        b.iter(|| {
            let gid = ckt.insert_gate(GateKind::Z, extra_net, &[0]).unwrap();
            ckt.update_state().unwrap();
            ckt.remove_gate(gid).unwrap();
            ckt.update_state().unwrap();
        })
    });
    g.finish();
}

fn bench_query(c: &mut Criterion) {
    let circuit = qtask_bench_circuits::build("qft", Some(14)).unwrap();
    let mut ckt = Ckt::from_circuit(&circuit, SimConfig::default());
    ckt.update_state().unwrap();
    let snap = ckt.latest_snapshot().expect("update publishes");
    let mut g = c.benchmark_group("query");
    g.sample_size(20);
    g.bench_function("amplitude_snapshot_qft14", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 4097) & ((1 << 14) - 1);
            black_box(snap.amplitude(i))
        })
    });
    g.finish();
}

// The concurrent snapshot-reader protocol lives in the standalone
// `snapshot_readers` bench now (it emits `BENCH_snapshot.json`).

/// Builds a depth-`depth` T-gate chain on the top qubit. Every chain row
/// owns only the top half of the blocks, so reads of bottom-half blocks
/// from the chain's tail must look past the whole chain — the
/// depth-proportional resolution pattern the owner index collapses to a
/// binary search.
fn phase_chain(depth: usize) -> Ckt {
    // 8 qubits over 4-amplitude blocks = 64 blocks: a fine partitioning,
    // so resolution (not amplitude arithmetic) dominates each update.
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    let mut ckt = Ckt::with_config(8, cfg);
    for _ in 0..depth {
        let net = ckt.push_net();
        ckt.insert_gate(GateKind::T, net, &[7]).unwrap();
    }
    ckt
}

/// Appends a trailing net with one H(q0) to `ckt` and simulates once.
/// Afterwards the H row is the last row and owns every block, so toggling
/// a second H in that net is an O(1) modifier whose update re-executes
/// its partitions — and each partition read resolves blocks *before*
/// them, through the whole chain.
fn with_trailing_h(mut ckt: Ckt) -> (Ckt, qtask_circuit::NetId) {
    let net = ckt.push_net();
    ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
    ckt.update_state().unwrap();
    (ckt, net)
}

/// One steady-state toggle: add and remove a second trailing H, and
/// re-simulate. The toggle patches one row in and out, so the measured
/// cost is block resolution plus that patch and a fixed executor floor.
fn toggle_once(ckt: &mut Ckt, net: qtask_circuit::NetId) -> u64 {
    let gid = ckt.insert_gate(GateKind::H, net, &[1]).unwrap();
    let report = ckt.update_state().unwrap();
    ckt.remove_gate(gid).unwrap();
    ckt.update_state().unwrap();
    report.owner_probes
}

/// Per-update block-resolution cost at the tail of a T chain, swept over
/// depth. The chain's T rows own only the top-half blocks, so every
/// bottom-half read must look past the whole chain; the owner index
/// answers each in O(log owners), so the cost stays flat as depth grows
/// 16×.
fn bench_deep_chain_resolution(c: &mut Criterion) {
    let mut g = c.benchmark_group("deep_chain_resolution");
    g.sample_size(20);
    for depth in [64usize, 256, 512, 1024] {
        let (mut ckt, net) = with_trailing_h(phase_chain(depth));
        g.bench_function(format!("owner_index_d{depth}"), |b| {
            b.iter(|| black_box(toggle_once(&mut ckt, net)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_pattern,
    bench_derive,
    bench_executor,
    bench_incremental_update,
    bench_query,
    bench_deep_chain_resolution
);
criterion_main!(benches);
