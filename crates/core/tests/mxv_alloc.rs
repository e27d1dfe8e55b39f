//! Allocation profile of the warm execution paths (MxV and linear).
//!
//! This test lives in its own binary on purpose: it installs the counting
//! global allocator and asserts an *exact* zero over a code region, which
//! only holds when no other test thread allocates concurrently — the
//! tests serialize on `ALLOC_LOCK`.
//!
//! All engines here disable snapshot publication: a snapshot held by the
//! engine pins every resolved block, so re-executing partitions would
//! copy-on-write fork (allocate) *by design* — MVCC isolation. What these
//! tests pin down is the pin-free fast path, which `update_state` also
//! reaches under the default `Publish` policy by detaching the previous
//! snapshot's dirty blocks before execution when no external reader
//! shares it.

use qtask_core::test_support;
use qtask_core::{Ckt, KernelPolicy, SimConfig, SnapshotPolicy};
use qtask_gates::GateKind;
use qtask_util::alloc_counter::CountingAlloc;
use std::sync::{Mutex, MutexGuard};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The allocation counter is process-global and libtest runs the tests of
/// a binary on parallel threads; every test holds this lock so no other
/// test allocates inside its measurement window.
static ALLOC_LOCK: Mutex<()> = Mutex::new(());

fn alloc_guard() -> MutexGuard<'static, ()> {
    ALLOC_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn alloc_test_config() -> SimConfig {
    let mut cfg = SimConfig::with_block_size(8).with_snapshots(SnapshotPolicy::Disabled);
    cfg.num_threads = 1;
    cfg
}

/// Once the `FusedOp` cache is warm and the output buffers are
/// materialized, re-executing MxV partitions — the body of a repeated
/// incremental update — performs zero heap allocations.
#[test]
fn warm_mxv_reexecution_allocates_nothing() {
    let _serial = alloc_guard();
    let cfg = alloc_test_config();
    assert_eq!(cfg.kernels, KernelPolicy::Batched);
    let mut ckt = Ckt::with_config(6, cfg);
    let net = ckt.push_net();
    // A two-factor group (the default cap), one gate controlled: the
    // fused signature spans controls and targets.
    ckt.insert_gate(GateKind::H, net, &[1]).unwrap();
    ckt.insert_gate(GateKind::Ch, net, &[4, 2]).unwrap();
    // First update builds the fused cache and materializes the buffers.
    ckt.update_state().unwrap();
    let pids = test_support::mxv_partitions(&ckt);
    assert!(!pids.is_empty());
    // One more warm pass outside the measurement window (owner-index
    // entries and lazily sized scratch reach steady state).
    test_support::reexec_mxv_partitions(&ckt, &pids);
    let before = CountingAlloc::alloc_calls();
    test_support::reexec_mxv_partitions(&ckt, &pids);
    let after = CountingAlloc::alloc_calls();
    assert_eq!(
        after - before,
        0,
        "warm fused MxV re-execution must not touch the heap"
    );
    // And the state is still right: H(1) · CH(4,2) on |0…0⟩ puts equal
    // weight on |000000⟩ and |000010⟩.
    let inv = 1.0 / 2.0f64.sqrt();
    assert!((ckt.amplitude(0).re - inv).abs() < 1e-12);
    assert!((ckt.amplitude(2).re - inv).abs() < 1e-12);
    assert!(ckt.probability(1 << 2) < 1e-20);
}

/// Linear-row parity (ROADMAP, PR 2 follow-up): once the partition
/// scratch pools and output buffers are warm, re-executing linear
/// partitions performs zero heap allocations too — diagonal, cross-block
/// anti-diagonal, and controlled kinds alike.
#[test]
fn warm_linear_reexecution_allocates_nothing() {
    let _serial = alloc_guard();
    let mut ckt = Ckt::with_config(6, alloc_test_config());
    // One gate per net, covering each linear kernel shape: Diag (T),
    // AntiDiag crossing blocks (X on a high qubit), controlled AntiDiag
    // (CNOT), and Swap.
    for (kind, qubits) in [
        (GateKind::T, &[1u8][..]),
        (GateKind::X, &[5]),
        (GateKind::Cx, &[2, 4]),
        (GateKind::Swap, &[0, 5]),
    ] {
        let net = ckt.push_net();
        ckt.insert_gate(kind, net, qubits).unwrap();
    }
    ckt.update_state().unwrap();
    let pids = test_support::linear_partitions(&ckt);
    assert!(!pids.is_empty());
    // Warm pass: grows each partition's scratch pool and the entry-vector
    // capacities to their steady state.
    test_support::reexec_linear_partitions(&ckt, &pids);
    let before = CountingAlloc::alloc_calls();
    test_support::reexec_linear_partitions(&ckt, &pids);
    let after = CountingAlloc::alloc_calls();
    assert_eq!(
        after - before,
        0,
        "warm linear re-execution must not touch the heap"
    );
    // Linear re-execution is idempotent (blocks re-materialize from the
    // previous row), so the state still matches the gate-at-a-time
    // oracle.
    let mut want = qtask_num::vecops::ket_zero(6);
    let t = GateKind::T.base_matrix().unwrap();
    let x = GateKind::X.base_matrix().unwrap();
    qtask_partition::kernels::apply_dense(0, 1, &t, 6, &mut want);
    qtask_partition::kernels::apply_dense(0, 5, &x, 6, &mut want);
    qtask_partition::kernels::apply_dense(1 << 2, 4, &x, 6, &mut want);
    qtask_partition::kernels::apply_gate(GateKind::Swap, 0, &[0, 5], &mut want);
    assert!(qtask_num::vecops::approx_eq(&ckt.state(), &want, 1e-12));
}

/// The full `update_state` of a repeated incremental toggle stays cheap
/// too: the fused cache rebuilds only when the factor group changes.
#[test]
fn fused_cache_survives_unrelated_updates() {
    let _serial = alloc_guard();
    let mut ckt = Ckt::with_config(6, alloc_test_config());
    let net = ckt.push_net();
    ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
    let tail = ckt.push_net();
    ckt.update_state().unwrap();
    // Toggling a later linear gate must not disturb the MxV row's warm
    // buffers or require re-resolving more than the dirty partitions.
    for _ in 0..3 {
        let gid = ckt.insert_gate(GateKind::Z, tail, &[0]).unwrap();
        let report = ckt.update_state().unwrap();
        assert!(report.partitions_executed > 0);
        ckt.remove_gate(gid).unwrap();
        // Removing the tail row leaves no dirty successors: the update is
        // a no-op and queries see through the cleared COW layer.
        ckt.update_state().unwrap();
    }
    let inv = 1.0 / 2.0f64.sqrt();
    assert!((ckt.amplitude(0).re - inv).abs() < 1e-12);
    assert!((ckt.amplitude(1).re - inv).abs() < 1e-12);
}

/// Retained-graph parity for the whole write path: once scratch, pools,
/// and arena free lists reach steady state, *identical* toggles have
/// *identical* allocation profiles (A/A-stability). The retained graph
/// is what makes this hold for `update_state` itself — no per-update
/// closure boxing or graph rebuild whose footprint could creep with
/// history — and arena free-list reuse makes it hold for the modifiers.
#[test]
fn warm_retained_update_is_allocation_stable() {
    let _serial = alloc_guard();
    let mut ckt = Ckt::with_config(6, alloc_test_config());
    let net = ckt.push_net();
    ckt.insert_gate(GateKind::H, net, &[0]).unwrap();
    let tail = ckt.push_net();
    ckt.insert_gate(GateKind::X, tail, &[3]).unwrap();
    ckt.update_state().unwrap();
    let toggle = |ckt: &mut Ckt| {
        let gid = ckt.insert_gate(GateKind::Z, tail, &[1]).unwrap();
        let report = ckt.update_state().unwrap();
        assert!(report.partitions_executed > 0);
        ckt.remove_gate(gid).unwrap();
        ckt.update_state().unwrap();
    };
    // Two warm-up rounds: dirty-list, run-pool, and scratch capacities
    // reach their high-water marks.
    toggle(&mut ckt);
    toggle(&mut ckt);
    let before = CountingAlloc::alloc_calls();
    toggle(&mut ckt);
    let first = CountingAlloc::alloc_calls() - before;
    let before = CountingAlloc::alloc_calls();
    toggle(&mut ckt);
    let second = CountingAlloc::alloc_calls() - before;
    assert_eq!(
        first, second,
        "steady-state toggles must have identical allocation profiles"
    );
}

/// The end-to-end guarantee behind the two micro-tests above: a whole
/// warm `update_state` — graph build aside, nothing else — reclaims its
/// buffers through the default `Publish` policy too, because the writer
/// detaches the previous snapshot's dirty blocks when no reader shares
/// it. With an external reader holding the snapshot, the same update
/// must fork instead (strictly more allocations).
#[test]
fn publish_policy_forks_only_for_live_readers() {
    let _serial = alloc_guard();
    let mut cfg = SimConfig::with_block_size(8);
    cfg.num_threads = 1;
    assert_eq!(cfg.snapshots, SnapshotPolicy::Publish);
    let mut ckt = Ckt::with_config(6, cfg);
    let net = ckt.push_net();
    ckt.insert_gate(GateKind::H, net, &[1]).unwrap();
    let tail = ckt.push_net();
    ckt.insert_gate(GateKind::X, tail, &[2]).unwrap();
    ckt.update_state().unwrap();
    let toggle = |ckt: &mut Ckt| {
        let gid = ckt.insert_gate(GateKind::Z, tail, &[1]).unwrap();
        ckt.update_state().unwrap();
        ckt.remove_gate(gid).unwrap();
        ckt.update_state().unwrap();
    };
    // Warm up twice: steady-state graph scratch, pools, buffers.
    toggle(&mut ckt);
    toggle(&mut ckt);
    let before = CountingAlloc::alloc_calls();
    toggle(&mut ckt);
    let unpinned = CountingAlloc::alloc_calls() - before;
    // Same toggle while a reader holds the previous version: the write
    // set must fork, so strictly more allocations happen.
    let reader = ckt.latest_snapshot().expect("publish policy");
    let before = CountingAlloc::alloc_calls();
    toggle(&mut ckt);
    let pinned = CountingAlloc::alloc_calls() - before;
    assert!(
        pinned > unpinned,
        "reader pins must force copy-on-write forks ({pinned} vs {unpinned})"
    );
    drop(reader);
}

/// The chunked spine's payoff: a *long-lived* reader — one that keeps an
/// old version pinned across many publications — stops perturbing the
/// writer. Only the first toggle after pinning pays copy-on-write forks
/// (the write set and its spine chunks detach from the pinned version);
/// every toggle after that runs the ordinary detach path and must match
/// the unpinned warm allocation profile exactly, version after version.
#[test]
fn long_lived_reader_does_not_perturb_warm_profile() {
    let _serial = alloc_guard();
    let mut cfg = SimConfig::with_block_size(8);
    cfg.num_threads = 1;
    let mut ckt = Ckt::with_config(6, cfg);
    let net = ckt.push_net();
    ckt.insert_gate(GateKind::H, net, &[1]).unwrap();
    let tail = ckt.push_net();
    ckt.insert_gate(GateKind::X, tail, &[2]).unwrap();
    ckt.update_state().unwrap();
    let toggle = |ckt: &mut Ckt| {
        let gid = ckt.insert_gate(GateKind::Z, tail, &[1]).unwrap();
        ckt.update_state().unwrap();
        ckt.remove_gate(gid).unwrap();
        ckt.update_state().unwrap();
    };
    toggle(&mut ckt);
    toggle(&mut ckt);
    let before = CountingAlloc::alloc_calls();
    toggle(&mut ckt);
    let unpinned = CountingAlloc::alloc_calls() - before;

    let reader = ckt.latest_snapshot().expect("publish policy");
    let pinned_version = reader.version();
    let pinned_state = reader.state();
    // The toggle right after pinning is the only one allowed to fork.
    toggle(&mut ckt);
    let before = CountingAlloc::alloc_calls();
    toggle(&mut ckt);
    let first = CountingAlloc::alloc_calls() - before;
    let before = CountingAlloc::alloc_calls();
    toggle(&mut ckt);
    let second = CountingAlloc::alloc_calls() - before;
    assert_eq!(first, second, "pinned steady state must be flat");
    assert_eq!(
        first, unpinned,
        "a long-lived reader must not perturb the writer's warm profile \
         ({first} vs {unpinned})"
    );
    // And the pinned version is still immutable through it all.
    assert_eq!(reader.version(), pinned_version);
    assert_eq!(reader.state(), pinned_state);
    drop(reader);
}
