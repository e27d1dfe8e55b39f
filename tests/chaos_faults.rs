//! Chaos suite: one injected fault at every probe site the engine
//! registers, in every flavor the site supports, verifying the failure
//! contract end to end (requires `--features faults`):
//!
//! - a typed [`EngineError`] leaves the observable state exactly where
//!   it was (the engine keeps working and still matches the oracle), or
//! - the engine poisons itself, every public API reports
//!   [`EngineError::Poisoned`], and [`Ckt::recover`] rebuilds a state
//!   bit-identical to a from-scratch re-simulation of the surviving
//!   circuit (and ≈ the gate-at-a-time naive oracle).
//!
//! No hangs, no torn reads: task panics, on a worker or on the calling
//! thread, are contained by the executor, and snapshots published before the fault keep reading the
//! old consistent version.

#![cfg(feature = "faults")]

use qtask::core::test_support::full_state;
use qtask::prelude::*;
use qtask_faults::{self as faults, FaultKind, FaultPlan};
use qtask_partition::kernels;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};

/// The fault registry is process-global; chaos tests must not overlap.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const EPS: f64 = 1e-9;

fn scenario_config() -> SimConfig {
    let mut cfg = SimConfig::with_block_size(4);
    cfg.num_threads = 2;
    cfg
}

/// The scenario's default width: 5 qubits at B=4, where the dispatch
/// grain equals the block (the paper's Figure 4 shape).
const NARROW: u8 = 5;

/// 7 qubits at B=4: the grain is 16 amplitudes, so every MxV partition
/// spans 4 blocks and `exec/mxv_task` fires once per multi-block span.
const WIDE: u8 = 7;

fn fresh_engine(n_qubits: u8) -> Ckt {
    let mut ckt = Ckt::with_config(n_qubits, scenario_config());
    // A live incremental view puts view maintenance inside the chaos
    // blast radius: every publication now crosses the `views/patch`
    // probe. The handle is dropped on purpose — the slot stays
    // registered for the engine's lifetime.
    let registry = ViewRegistry::new();
    registry.attach(&mut ckt);
    registry.register(Box::new(ProbabilityView::marginal(vec![0, 1])));
    ckt
}

/// Replays the engine's current circuit gate-at-a-time on a flat vector
/// — the naive oracle every surviving state must match.
fn oracle_state(ckt: &Ckt) -> Vec<Complex64> {
    let n = ckt.num_qubits();
    let mut state = qtask::num::vecops::ket_zero(n as usize);
    for (_, gate) in ckt.circuit().ordered_gates() {
        kernels::apply_gate(gate.kind(), gate.control_mask(), gate.targets(), &mut state);
    }
    state
}

fn assert_close(got: &[Complex64], want: &[Complex64], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g.re - w.re).abs() < EPS && (g.im - w.im).abs() < EPS,
            "{ctx}: amplitude {i}: got {g:?}, want {w:?}"
        );
    }
}

/// The deterministic chaos scenario: incremental builds, transactions,
/// removals, a re-materialization, queries, and snapshots — it crosses
/// every probe site the engine registers. Fallible end to end so
/// injected errors surface.
fn run_scenario(ckt: &mut Ckt) -> Result<(), EngineError> {
    let a = ckt.push_net();
    ckt.insert_gate(GateKind::H, a, &[0])?;
    ckt.insert_gate(GateKind::Cx, a, &[1, 2])?;
    ckt.update_state()?;

    let b = ckt.insert_net_after(a)?;
    ckt.insert_gate(GateKind::Ry(0.3), b, &[2])?;
    ckt.insert_gate(GateKind::Cz, b, &[0, 1])?;
    ckt.update_state()?;

    let (victim, _receipt) = ckt.edit(|tx| {
        let c = tx.push_net();
        tx.insert_gate(GateKind::H, c, &[3])?;
        let victim = tx.insert_gate(GateKind::X, c, &[4])?;
        tx.insert_gate(GateKind::Swap, c, &[0, 1])?;
        Ok(victim)
    })?;
    ckt.update_state()?;

    ckt.remove_gate(victim)?;
    ckt.update_state()?;
    ckt.remove_net(b)?;
    ckt.update_state()?;

    // Three linear rows run together: the middle one rewrites the first
    // one's buffers in place, so once it is gone the next update
    // re-materializes them.
    let (middle, _receipt) = ckt.edit(|tx| {
        let d = tx.push_net();
        tx.insert_gate(GateKind::X, d, &[0])?;
        let e = tx.push_net();
        let middle = tx.insert_gate(GateKind::Z, e, &[1])?;
        let f = tx.push_net();
        tx.insert_gate(GateKind::X, f, &[1])?;
        Ok(middle)
    })?;
    ckt.update_state()?;
    ckt.remove_gate(middle)?;
    ckt.update_state()?;

    let snap = ckt.try_snapshot()?;
    let norm = snap.norm_sqr();
    assert!((norm - 1.0).abs() < EPS, "scenario norm² = {norm}");
    Ok(())
}

/// Every probe site the tentpole threads through the engine. The trace
/// assertion below keeps this list honest: a renamed or dropped probe
/// fails the suite instead of silently shrinking the injection space.
const EXPECTED_SITES: &[&str] = &[
    "engine/graph_patch",
    "engine/insert_gate",
    "engine/rematerialize",
    "engine/remove_gate",
    "engine/update_build",
    "engine/update_publish",
    "exec/alloc_block",
    "exec/corrupt_row",
    "exec/linear_task",
    "exec/mxv_task",
    "exec/publish_row",
    "snapshot/publish",
    "taskflow/task",
    "txn/commit_op",
    "txn/edit_begin",
    "txn/overlay_commit",
    "views/patch",
];

fn traced_sites(n_qubits: u8) -> Vec<(String, u64)> {
    faults::site_hits(|| {
        let mut ckt = fresh_engine(n_qubits);
        run_scenario(&mut ckt).expect("untampered scenario");
    })
}

/// Checks the full poisoned contract: every fallible public API returns
/// [`EngineError::Poisoned`] until recovery.
fn assert_fully_poisoned(ckt: &mut Ckt, ctx: &str) {
    assert!(ckt.is_poisoned(), "{ctx}: engine should be poisoned");
    assert!(ckt.poison_reason().is_some(), "{ctx}: missing reason");
    assert!(
        ckt.audit()
            .iter()
            .any(|v| matches!(v, InvariantViolation::EnginePoisoned { .. })),
        "{ctx}: audit must report the poisoning"
    );
    let gate = ckt.circuit().ordered_gates().next().map(|(id, _)| id);
    let net = ckt.circuit().nets().next().map(|(id, _)| id);
    let poisoned = |r: Result<(), EngineError>, what: &str| match r {
        Err(e) if e.is_poisoned() => {}
        other => panic!("{ctx}: {what} should return Poisoned, got {other:?}"),
    };
    poisoned(ckt.try_snapshot().map(drop), "try_snapshot");
    poisoned(ckt.update_state().map(drop), "update_state");
    poisoned(ckt.edit(|_tx| Ok(())).map(drop), "edit");
    if let Some(net) = net {
        poisoned(
            ckt.insert_gate(GateKind::H, net, &[0]).map(drop),
            "insert_gate",
        );
        poisoned(ckt.insert_net_after(net).map(drop), "insert_net_after");
        poisoned(ckt.remove_net(net), "remove_net");
    }
    if let Some(gate) = gate {
        poisoned(ckt.remove_gate(gate).map(drop), "remove_gate");
    }
}

/// Recovery must match a from-scratch re-simulation bit for bit (the
/// engine's addition order is deterministic) and the naive oracle up to
/// rounding, with a clean audit.
fn assert_recovered_matches_oracles(ckt: &mut Ckt, ctx: &str) {
    let report = ckt
        .recover()
        .unwrap_or_else(|e| panic!("{ctx}: recover failed: {e}"));
    assert!(!ckt.is_poisoned(), "{ctx}: still poisoned after recover");
    assert_eq!(ckt.audit(), vec![], "{ctx}: audit after recover");
    assert_eq!(
        report.rows,
        ckt.num_rows(),
        "{ctx}: recovery report row count"
    );

    let recovered = full_state(ckt);
    let mut resim = Ckt::from_circuit(ckt.circuit(), scenario_config());
    resim.update_state().unwrap();
    assert_eq!(
        recovered,
        full_state(&mut resim),
        "{ctx}: recovered state is not bit-identical to a fresh re-simulation"
    );
    assert_close(&recovered, &oracle_state(ckt), ctx);
}

/// After a contained typed error (or an escaped pre-mutation panic) the
/// engine keeps working: the next update succeeds and matches the
/// oracle for whatever circuit survived.
fn assert_usable_and_consistent(ckt: &mut Ckt, ctx: &str) {
    assert_eq!(ckt.audit(), vec![], "{ctx}: audit");
    ckt.update_state()
        .unwrap_or_else(|e| panic!("{ctx}: engine unusable after typed error: {e}"));
    assert_close(&full_state(ckt), &oracle_state(ckt), ctx);
}

/// The heart of the suite: for every reached probe site, every fault
/// kind, at both the first and the last dynamic hit, the scenario must
/// end in one of the contract's outcomes — at grain == block and at a
/// grain of several blocks.
#[test]
fn every_probe_site_fails_safe() {
    let _guard = chaos_guard();
    for n_qubits in [NARROW, WIDE] {
        sweep_probe_sites(n_qubits);
    }
}

fn sweep_probe_sites(n_qubits: u8) {
    let sites = traced_sites(n_qubits);
    for expected in EXPECTED_SITES {
        assert!(
            sites.iter().any(|(name, _)| name == expected),
            "probe site '{expected}' was never reached by the chaos scenario \
             at {n_qubits} qubits (trace: {sites:?})"
        );
    }

    const KINDS: [FaultKind; 5] = [
        FaultKind::Panic,
        FaultKind::AllocFail,
        FaultKind::Error,
        FaultKind::CorruptNan,
        FaultKind::CorruptInf,
    ];
    let mut injected = 0usize;
    for (site, max_hits) in &sites {
        let mut nths = vec![1u64];
        if *max_hits > 1 {
            nths.push(*max_hits);
        }
        for nth in nths {
            for kind in KINDS {
                let ctx = format!("{n_qubits}q {site}@{nth}/{kind:?}");
                faults::arm(FaultPlan::at_hit(site, kind, nth));
                let mut ckt = fresh_engine(n_qubits);
                let outcome = catch_unwind(AssertUnwindSafe(|| run_scenario(&mut ckt)));
                let summary = faults::disarm();
                assert!(
                    summary.fired,
                    "{ctx}: the armed hit was never reached (hits={})",
                    summary.hits_of_site
                );
                injected += 1;
                match outcome {
                    Ok(Ok(())) => {
                        // The kind does not apply to this site flavor
                        // (e.g. CorruptNan at a panic-only probe): the
                        // run must be indistinguishable from fault-free.
                        assert!(!ckt.is_poisoned(), "{ctx}: poisoned on no-op fault");
                        assert_eq!(ckt.audit(), vec![], "{ctx}: audit");
                        assert_close(&full_state(&mut ckt), &oracle_state(&ckt), &ctx);
                    }
                    Ok(Err(err)) if ckt.is_poisoned() => {
                        assert_fully_poisoned(&mut ckt, &ctx);
                        assert_recovered_matches_oracles(&mut ckt, &ctx);
                        let _ = err;
                    }
                    Ok(Err(err)) => {
                        // Typed failure without poisoning: the engine
                        // rejected the operation and stayed consistent.
                        assert!(
                            !matches!(err, EngineError::Poisoned { .. }),
                            "{ctx}: Poisoned error from a healthy engine"
                        );
                        assert_usable_and_consistent(&mut ckt, &ctx);
                    }
                    Err(_payload) => {
                        // A panic escaped to the caller: legal only for
                        // probes placed before any engine mutation
                        // (transaction begin), so the engine
                        // must still be healthy and consistent.
                        assert!(
                            !ckt.is_poisoned(),
                            "{ctx}: escaped panic from a poisoning site"
                        );
                        assert_usable_and_consistent(&mut ckt, &ctx);
                    }
                }
            }
        }
    }
    assert!(injected >= EXPECTED_SITES.len() * KINDS.len());
}

/// Seeded sweep of the poisoned-state semantics: whatever unwind fault
/// the seed picks, once poisoned *every* public API reports Poisoned,
/// and recovery restores oracle-exact state.
#[test]
fn seeded_poisoning_recovers_to_oracle() {
    let _guard = chaos_guard();
    let sites = traced_sites(NARROW);
    let mut poisonings = 0usize;
    for seed in 0..48u64 {
        let plan = FaultPlan::seeded(seed, &sites).expect("non-empty trace");
        let ctx = format!("seed {seed} -> {plan:?}");
        let site = plan.site.clone();
        faults::arm(plan);
        let mut ckt = fresh_engine(NARROW);
        let outcome = catch_unwind(AssertUnwindSafe(|| run_scenario(&mut ckt)));
        faults::disarm();
        match outcome {
            // View patching contains its own unwinds by design — the
            // view degrades to a full refresh and the scenario runs to
            // completion. Every other site's unwind must not succeed.
            Ok(Ok(())) if site == "views/patch" => {
                assert!(!ckt.is_poisoned(), "{ctx}: contained view fault poisoned");
                assert_eq!(ckt.audit(), vec![], "{ctx}: audit");
                assert_close(&full_state(&mut ckt), &oracle_state(&ckt), &ctx);
            }
            Ok(Ok(())) => unreachable!("{ctx}: unwind faults cannot succeed"),
            Ok(Err(_)) if ckt.is_poisoned() => {
                poisonings += 1;
                assert_fully_poisoned(&mut ckt, &ctx);
                assert_recovered_matches_oracles(&mut ckt, &ctx);
            }
            Ok(Err(_)) | Err(_) => assert_usable_and_consistent(&mut ckt, &ctx),
        }
    }
    assert!(
        poisonings >= 16,
        "seeded sweep poisoned only {poisonings}/48 runs; the space is \
         not being explored"
    );
}

/// A fault inside a multi-block MxV partition — after part of its span
/// (or of its row) is already published — still ends in a typed error,
/// and recovery is bit-identical to a fresh simulation. With one pool
/// worker the run executes on two threads, the caller and the worker,
/// so hit 2 of the per-block probes lands mid-span of the first
/// partition or at the start of a second one running beside it, and hit
/// 2 of `exec/mxv_task` starts a second partition while the first is
/// publishing its span — either way part of the row is already out.
#[test]
fn mxv_fault_mid_span_recovers_bit_identical() {
    let _guard = chaos_guard();
    let mut cfg = scenario_config();
    cfg.num_threads = 1;
    for site in ["exec/mxv_task", "exec/alloc_block", "exec/publish_row"] {
        let ctx = format!("{site}@2");
        let mut ckt = Ckt::with_config(WIDE, cfg.clone());
        let a = ckt.push_net();
        ckt.insert_gate(GateKind::H, a, &[0]).unwrap();
        ckt.insert_gate(GateKind::Ry(0.4), a, &[5]).unwrap();
        let spans: Vec<u32> = ckt
            .debug_partitions()
            .iter()
            .filter(|p| p.0.starts_with("MxV"))
            .map(|p| p.2 - p.1 + 1)
            .collect();
        assert_eq!(spans, vec![4; 8], "{ctx}: MxV partitions span a grain");
        faults::arm(FaultPlan::at_hit(site, FaultKind::Panic, 2));
        let err = ckt.update_state().unwrap_err();
        let summary = faults::disarm();
        assert!(summary.fired, "{ctx}: the armed hit was never reached");
        assert!(err.is_poisoned(), "{ctx}: wanted Poisoned, got {err:?}");
        assert_fully_poisoned(&mut ckt, &ctx);
        assert_recovered_matches_oracles(&mut ckt, &ctx);
    }
}

/// A tail edit whose dirty set is one single-chunk partition runs on the
/// thread that called `update_state`, so a task panic there is raised on
/// the caller, not on a worker. It is contained all the same: the update
/// returns Poisoned, and recovery is bit-identical to a fresh simulation
/// and ≈ the naive oracle.
#[test]
fn caller_thread_task_panic_recovers_bit_identical() {
    let _guard = chaos_guard();
    let mut ckt = fresh_engine(NARROW);
    let a = ckt.push_net();
    for q in 0..NARROW {
        ckt.insert_gate(GateKind::H, a, &[q]).unwrap();
    }
    ckt.update_state().unwrap();
    // The tail Ccz touches only indices with bits 2-4 set: one block.
    let tail = ckt.push_net();
    let ccz = ckt.insert_gate(GateKind::Ccz, tail, &[3, 4, 2]).unwrap();
    let report = ckt.update_state().unwrap();
    assert_eq!(report.tasks_executed, 1, "the tail edit must be one task");
    ckt.remove_gate(ccz).unwrap();
    ckt.update_state().unwrap();
    ckt.insert_gate(GateKind::Ccz, tail, &[3, 4, 2]).unwrap();

    // Record which thread raises the injected panic.
    let raised_on = Arc::new(Mutex::new(Vec::new()));
    let record = Arc::clone(&raised_on);
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if info.to_string().contains("fault point 'taskflow/task'") {
            record.lock().unwrap().push(std::thread::current().id());
        }
        default_hook(info);
    }));
    faults::arm(FaultPlan::first("taskflow/task", FaultKind::Panic));
    let result = ckt.update_state();
    let summary = faults::disarm();
    drop(std::panic::take_hook());

    assert!(summary.fired, "taskflow/task was never reached");
    let err = result.unwrap_err();
    assert!(err.is_poisoned(), "wanted Poisoned, got {err:?}");
    assert_eq!(
        *raised_on.lock().unwrap(),
        vec![std::thread::current().id()],
        "the panic must be raised once, on the calling thread"
    );
    assert_fully_poisoned(&mut ckt, "caller-thread task panic");
    assert_recovered_matches_oracles(&mut ckt, "caller-thread task panic");
}

/// A circuit whose nets mix linear rows with sync + MxV pairs, updated
/// once.
fn linked_engine() -> Ckt {
    let mut ckt = fresh_engine(WIDE);
    let a = ckt.push_net();
    ckt.insert_gate(GateKind::H, a, &[0]).unwrap();
    ckt.insert_gate(GateKind::Cx, a, &[1, 2]).unwrap();
    ckt.insert_gate(GateKind::Ry(0.4), a, &[5]).unwrap();
    let b = ckt.push_net();
    ckt.insert_gate(GateKind::Swap, b, &[0, 6]).unwrap();
    ckt.insert_gate(GateKind::T, b, &[3]).unwrap();
    ckt.update_state().unwrap();
    ckt
}

/// The multi-gate edit of [`link_pass_faults_fail_safe`]: a net holding
/// a linear gate, a superposition gate and a swap, committed at once.
fn three_gate_edit(ckt: &mut Ckt) -> Result<(), EngineError> {
    let first = ckt.circuit().first_net().expect("engine has nets");
    ckt.edit(|tx| {
        let net = tx.insert_net_after(first)?;
        tx.insert_gate(GateKind::Cx, net, &[4, 1])?;
        tx.insert_gate(GateKind::H, net, &[2])?;
        tx.insert_gate(GateKind::Swap, net, &[3, 6])?;
        Ok(())
    })
    .map(drop)
}

/// Traces `engine/graph_patch` while `f` runs against `ckt` and returns
/// the hit count with the partitions `f` created (partitions after minus
/// before). Building removes nothing and `create_partitions` carries no
/// probe, so when the two are equal every hit was the link pass's
/// one-per-partition probe inside `link_pending`.
fn link_pass_hits(ckt: &mut Ckt, f: impl FnOnce(&mut Ckt)) -> (u64, u64) {
    let before = ckt.num_partitions();
    let mut created = 0;
    let sites = faults::site_hits(|| {
        f(ckt);
        created = ckt.num_partitions() - before;
    });
    let hits = sites
        .iter()
        .find(|(site, _)| site == "engine/graph_patch")
        .map_or(0, |(_, hits)| *hits);
    (hits, created as u64)
}

/// The link pass fails safe at its first and last probe hit, in both
/// places it runs as a batch: rebuilding through `from_circuit` inside
/// `recover()` (a typed `RecoveryFailed` that leaves the engine as it
/// was), and committing a multi-gate `edit` (Poisoned). Either way a
/// disarmed `recover()` is then bit-identical to a fresh simulation.
#[test]
fn link_pass_faults_fail_safe() {
    let _guard = chaos_guard();

    let mut ckt = linked_engine();
    let (hits, _) = link_pass_hits(&mut ckt, |ckt| {
        ckt.recover().expect("untampered rebuild");
    });
    // A rebuild starts from an empty engine: it links every partition.
    assert_eq!(
        hits,
        ckt.num_partitions() as u64,
        "every rebuild hit lies in the link pass"
    );
    for nth in [1, hits] {
        let ctx = format!("recover: engine/graph_patch@{nth}/{hits}");
        let mut ckt = linked_engine();
        faults::arm(FaultPlan::at_hit(
            "engine/graph_patch",
            FaultKind::Panic,
            nth,
        ));
        let err = ckt.recover().unwrap_err();
        let summary = faults::disarm();
        assert!(summary.fired, "{ctx}: the armed hit was never reached");
        assert!(
            matches!(err, EngineError::RecoveryFailed { .. }),
            "{ctx}: wanted RecoveryFailed, got {err:?}"
        );
        assert!(!ckt.is_poisoned(), "{ctx}: a failed rebuild is discarded");
        assert_recovered_matches_oracles(&mut ckt, &ctx);
    }

    let mut probe = linked_engine();
    let (hits, created) = link_pass_hits(&mut probe, |ckt| {
        three_gate_edit(ckt).expect("untampered edit");
    });
    assert!(created >= 3, "the edit links several partitions");
    assert_eq!(hits, created, "every commit hit lies in the link pass");
    for nth in [1, hits] {
        let ctx = format!("edit: engine/graph_patch@{nth}/{hits}");
        let mut ckt = linked_engine();
        faults::arm(FaultPlan::at_hit(
            "engine/graph_patch",
            FaultKind::Panic,
            nth,
        ));
        let err = three_gate_edit(&mut ckt).unwrap_err();
        let summary = faults::disarm();
        assert!(summary.fired, "{ctx}: the armed hit was never reached");
        assert!(err.is_poisoned(), "{ctx}: wanted Poisoned, got {err:?}");
        assert_fully_poisoned(&mut ckt, &ctx);
        assert_recovered_matches_oracles(&mut ckt, &ctx);
    }
}

/// No torn reads: a snapshot published before the fault keeps serving
/// the old, consistent version even while the engine is poisoned.
#[test]
fn published_snapshots_survive_poisoning() {
    let _guard = chaos_guard();
    let mut ckt = fresh_engine(NARROW);
    let a = ckt.push_net();
    ckt.insert_gate(GateKind::H, a, &[0]).unwrap();
    ckt.insert_gate(GateKind::Cx, a, &[1, 2]).unwrap();
    ckt.update_state().unwrap();
    let pre = ckt.latest_snapshot().expect("published snapshot");
    let pre_state = pre.state();
    let pre_version = pre.version();

    faults::arm(FaultPlan::first("exec/publish_row", FaultKind::Panic));
    let b = ckt.insert_net_after(a).unwrap();
    ckt.insert_gate(GateKind::Ry(1.2), b, &[2]).unwrap();
    let err = ckt.update_state().unwrap_err();
    faults::disarm();
    assert!(err.is_poisoned() || ckt.is_poisoned(), "got {err:?}");

    // The old snapshot is immutable and still internally consistent.
    assert_eq!(pre.version(), pre_version);
    assert_eq!(pre.state(), pre_state);
    assert!((pre.norm_sqr() - 1.0).abs() < EPS);

    assert_fully_poisoned(&mut ckt, "publish_row panic");
    assert_recovered_matches_oracles(&mut ckt, "publish_row panic");
}

/// Corrupted amplitudes (NaN / Inf smuggled into a published block) are
/// caught at publish time under the strict policy and recovery scrubs
/// them completely.
#[test]
fn corruption_is_detected_at_publish() {
    let _guard = chaos_guard();
    for kind in [FaultKind::CorruptNan, FaultKind::CorruptInf] {
        let ctx = format!("{kind:?}");
        faults::arm(FaultPlan::first("exec/corrupt_row", kind));
        let mut ckt = fresh_engine(NARROW);
        let a = ckt.push_net();
        ckt.insert_gate(GateKind::H, a, &[0]).unwrap();
        let err = ckt.update_state().unwrap_err();
        faults::disarm();
        assert!(
            matches!(err, EngineError::NonFinite { .. }),
            "{ctx}: wanted NonFinite, got {err:?}"
        );
        assert_fully_poisoned(&mut ckt, &ctx);
        assert_recovered_matches_oracles(&mut ckt, &ctx);
        let norm = ckt.try_snapshot().unwrap().norm_sqr();
        assert!((norm - 1.0).abs() < EPS, "{ctx}: norm² {norm}");
    }
}

/// A poisoned view patch — every kind the `views/patch` probe honors —
/// degrades that one view to a full refresh: the reading still tracks
/// the newly published version with oracle-exact values, the engine
/// stays healthy, and the registry's report shows the refresh (and no
/// successful patch) for that publication.
#[test]
fn poisoned_view_degrades_to_full_refresh_never_stale() {
    let _guard = chaos_guard();
    for kind in [FaultKind::Panic, FaultKind::AllocFail, FaultKind::Error] {
        let ctx = format!("views/patch {kind:?}");
        let mut ckt = Ckt::with_config(5, scenario_config());
        let registry = ViewRegistry::new();
        registry.attach(&mut ckt);
        let view = registry.register(Box::new(ProbabilityView::marginal(vec![0, 2])));
        let a = ckt.push_net();
        ckt.insert_gate(GateKind::H, a, &[0]).unwrap();
        ckt.insert_gate(GateKind::Cx, a, &[1, 2]).unwrap();
        ckt.update_state().unwrap();
        let before = registry.report();

        // Fire at the first patch attempt of the next publication.
        faults::arm(FaultPlan::first("views/patch", kind));
        let b = ckt.insert_net_after(a).unwrap();
        ckt.insert_gate(GateKind::Ry(0.7), b, &[2]).unwrap();
        ckt.update_state()
            .unwrap_or_else(|e| panic!("{ctx}: update failed: {e}"));
        let summary = faults::disarm();
        assert!(summary.fired, "{ctx}: patch probe never reached");

        assert!(!ckt.is_poisoned(), "{ctx}: engine poisoned by view fault");
        let snap = ckt.latest_snapshot().unwrap();
        let reading = view.reading().expect("view has a reading");
        assert_eq!(reading.version, snap.version(), "{ctx}: stale reading");
        let got = reading.value.as_vector().unwrap();
        let mut want = vec![0.0; 4];
        for (m, p) in snap.probabilities().iter().enumerate() {
            want[(m & 1) | ((m >> 2) & 1) << 1] += p;
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            assert!((g - w).abs() < EPS, "{ctx}[{i}]: got {g}, want {w}");
        }
        let after = registry.report();
        assert_eq!(
            after.full_refreshes,
            before.full_refreshes + 1,
            "{ctx}: fallback refresh not taken"
        );
        assert_eq!(after.patches, before.patches, "{ctx}: patch must not count");
    }
}

/// The numerical policy at the drift boundary: a tolerance every honest
/// update exceeds poisons the engine at the first publish, and the audit
/// then reports the drift and the poisoning — nothing else tore.
#[test]
fn numerical_policy_strict_vs_renormalize() {
    let _guard = chaos_guard();

    let mut strict_cfg = scenario_config();
    strict_cfg.norm_tolerance = -1.0; // any drift (even 0) now "exceeds"
    let mut strict = Ckt::with_config(3, strict_cfg);
    let a = strict.push_net();
    strict.insert_gate(GateKind::H, a, &[0]).unwrap();
    let err = strict.update_state().unwrap_err();
    assert!(
        matches!(err, EngineError::NormDrift { .. }),
        "strict: {err:?}"
    );
    assert!(strict.is_poisoned());
    // Under the impossible tolerance the audit reports the drift and the
    // poisoning it caused — and nothing else: every other invariant held.
    let audit = strict.audit();
    assert!(
        audit
            .iter()
            .any(|v| matches!(v, InvariantViolation::NormDrift { .. })),
        "audit: {audit:?}"
    );
    assert!(
        audit.iter().all(|v| matches!(
            v,
            InvariantViolation::NormDrift { .. } | InvariantViolation::EnginePoisoned { .. }
        )),
        "audit: {audit:?}"
    );
}

/// With the feature compiled in but nothing armed, probes are inert:
/// the scenario behaves exactly like a default build.
#[test]
fn disarmed_probes_change_nothing() {
    let _guard = chaos_guard();
    let mut ckt = fresh_engine(NARROW);
    run_scenario(&mut ckt).unwrap();
    assert_eq!(ckt.audit(), vec![]);
    assert_close(&full_state(&mut ckt), &oracle_state(&ckt), "disarmed");
}
