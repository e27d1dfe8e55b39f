//! Allocation profile of the warm execution path and the warm update.
//!
//! This test lives in its own binary on purpose: it installs the counting
//! global allocator and asserts exact counts over code regions, which only
//! hold when nothing else in the process allocates concurrently. The
//! counter is process-wide, so the binary has no test harness (whose
//! threads and result reports would land inside a window): `main` runs
//! the cases one after another and reports them in the harness's format.
//!
//! Every engine runs the default configuration, which publishes a
//! snapshot at each update. The engine's own snapshot pins every resolved
//! block, and a warm `update_state` detaches the dirty blocks from it
//! before execution, so re-executing partitions reclaim their buffers
//! unless an external reader shares the snapshot. The isolated re-exec
//! cases run outside `update_state`, so they drop that pin first
//! ([`test_support::unpin_snapshot`]).

use qtask_core::test_support;
use qtask_core::{Ckt, SimConfig};
use qtask_gates::GateKind;
use qtask_taskflow::{Executor, RetainedGraph};
use qtask_util::alloc_counter::CountingAlloc;
use std::panic::{catch_unwind, UnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::Instant;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn alloc_test_config() -> SimConfig {
    let mut cfg = SimConfig::with_block_size(8);
    cfg.num_threads = 1;
    cfg
}

/// A 6-qubit engine on an executor of its own whose worker thread has
/// started. A thread's start-up allocates, and a worker that got going
/// late, inside a measured window, would add those allocations to it.
fn engine() -> Ckt {
    let cfg = alloc_test_config();
    let executor = Arc::new(Executor::new(cfg.num_threads));
    // Two chunks that wait for each other run on two threads at once:
    // the caller and the worker.
    let met = Barrier::new(2);
    let mut fan = RetainedGraph::new();
    fan.insert((), 2, Arc::from("start-worker"));
    executor
        .run_dirty(&mut fan, &|_, _| {
            met.wait();
        })
        .unwrap();
    Ckt::with_executor(6, cfg, executor)
}

/// Once the output buffers are materialized, re-executing partitions
/// performs zero heap allocations: diagonal, cross-block anti-diagonal,
/// controlled and swap rows, and superposition gates with a target
/// inside the 8-amplitude block, above it, and under a control.
fn warm_linear_reexecution_allocates_nothing() {
    let mut ckt = engine();
    // One gate per net, covering each kernel shape: Diag (T), AntiDiag
    // crossing blocks (X on a high qubit), controlled AntiDiag (CNOT),
    // Swap, and dense pairs (H low, Ry high, controlled H).
    let gates = [
        (GateKind::T, &[1u8][..]),
        (GateKind::X, &[5]),
        (GateKind::Cx, &[2, 4]),
        (GateKind::Swap, &[0, 5]),
        (GateKind::H, &[1]),
        (GateKind::Ry(0.7), &[4]),
        (GateKind::Ch, &[5, 2]),
    ];
    for (kind, qubits) in gates {
        let net = ckt.push_net();
        ckt.insert_gate(kind, net, qubits).unwrap();
    }
    ckt.update_state().unwrap();
    test_support::unpin_snapshot(&mut ckt);
    let pids = test_support::linear_partitions(&ckt);
    assert!(!pids.is_empty());
    // Warm pass: every owner-list entry holds a buffer the next pass can
    // take back.
    test_support::reexec_linear_partitions(&ckt, &pids);
    let before = CountingAlloc::alloc_calls();
    test_support::reexec_linear_partitions(&ckt, &pids);
    let after = CountingAlloc::alloc_calls();
    assert_eq!(
        after - before,
        0,
        "warm re-execution must not touch the heap"
    );
    // Re-execution is idempotent (blocks re-materialize from the
    // previous row), so the state still matches the gate-at-a-time
    // oracle.
    let mut want = qtask_num::vecops::ket_zero(6);
    for (kind, qubits) in gates {
        let (controls, targets) = qubits.split_at(kind.num_controls());
        let mask = controls.iter().map(|&c| 1u64 << c).sum();
        qtask_partition::kernels::apply_gate(kind, mask, targets, &mut want);
    }
    assert!(qtask_num::vecops::approx_eq(
        &ckt.snapshot().state(),
        &want,
        1e-12
    ));
}

/// Retained-graph parity for the whole write path: once scratch, pools,
/// and arena free lists reach steady state, *identical* toggles have
/// *identical* allocation profiles (A/A-stability). The retained graph
/// is what makes this hold for `update_state` itself — no per-update
/// closure boxing or graph rebuild whose footprint could creep with
/// history — and arena free-list reuse makes it hold for the modifiers.
fn warm_retained_update_is_allocation_stable() {
    let mut ckt = engine();
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
    // The toggles leave H(0) X(3)|0⟩: (|8⟩ + |9⟩)/√2.
    let inv = 1.0 / 2.0f64.sqrt();
    let snap = ckt.snapshot();
    assert!((snap.amplitude(8).re - inv).abs() < 1e-12);
    assert!((snap.amplitude(9).re - inv).abs() < 1e-12);
}

/// The end-to-end guarantee behind the two micro-tests above: a whole
/// warm `update_state` — graph build aside, nothing else — reclaims its
/// buffers while publishing, because the writer detaches the previous
/// snapshot's dirty blocks when no reader shares it. With an external
/// reader holding the snapshot, the same update must fork instead
/// (strictly more allocations).
fn publish_policy_forks_only_for_live_readers() {
    let mut ckt = engine();
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
    let reader = ckt.latest_snapshot().expect("every update publishes");
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
fn long_lived_reader_does_not_perturb_warm_profile() {
    let mut ckt = engine();
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

    let reader = ckt.latest_snapshot().expect("every update publishes");
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

/// Runs `case` and prints its outcome line; true when it passed.
fn run(name: &str, case: impl FnOnce() + UnwindSafe) -> bool {
    let ok = catch_unwind(case).is_ok();
    println!("test {name} ... {}", if ok { "ok" } else { "FAILED" });
    ok
}

fn main() {
    let cases: [(&str, fn()); 4] = [
        (
            "warm_linear_reexecution_allocates_nothing",
            warm_linear_reexecution_allocates_nothing,
        ),
        (
            "warm_retained_update_is_allocation_stable",
            warm_retained_update_is_allocation_stable,
        ),
        (
            "publish_policy_forks_only_for_live_readers",
            publish_policy_forks_only_for_live_readers,
        ),
        (
            "long_lived_reader_does_not_perturb_warm_profile",
            long_lived_reader_does_not_perturb_warm_profile,
        ),
    ];
    // The harness's command line, as far as selecting cases goes.
    let (mut filters, mut skips, mut exact, mut list, mut ignored) =
        (Vec::new(), Vec::new(), false, false, false);
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--exact" => exact = true,
            "--list" => list = true,
            "--ignored" => ignored = true, // no case here is ignored
            "--skip" => skips.extend(args.next()),
            // Harness options whose value is not a filter.
            "--test-threads" | "--color" | "--format" | "--logfile" | "-Z" => {
                args.next();
            }
            _ if arg.starts_with('-') => {}
            _ => filters.push(arg),
        }
    }
    let hit = |name: &str, pat: &String| {
        if exact {
            name == pat
        } else {
            name.contains(pat.as_str())
        }
    };
    let selected: Vec<_> = cases
        .iter()
        .filter(|(name, _)| {
            !ignored
                && (filters.is_empty() || filters.iter().any(|f| hit(name, f)))
                && !skips.iter().any(|s| hit(name, s))
        })
        .collect();
    if list {
        for (name, _) in &selected {
            println!("{name}: test");
        }
        return;
    }
    println!("\nrunning {} tests", selected.len());
    let t0 = Instant::now();
    let failed = selected
        .iter()
        .filter(|(name, case)| !run(name, *case))
        .count();
    println!(
        "\ntest result: {}. {} passed; {failed} failed; 0 ignored; 0 measured; {} filtered out; \
         finished in {:.2}s\n",
        if failed == 0 { "ok" } else { "FAILED" },
        selected.len() - failed,
        cases.len() - selected.len(),
        t0.elapsed().as_secs_f64()
    );
    if failed > 0 {
        std::process::exit(101);
    }
}
