//! Chaos suite for the service layer (requires `--features faults`):
//! one injected fault at every service probe site, at the first and the
//! last dynamic hit, in every applicable flavor, verifying the
//! acceptance contract end to end:
//!
//! - the request fails with a typed [`ServiceError`] and the session's
//!   observable state is unchanged, **or**
//! - the watchdog quarantines the session, [`qtask::core::Ckt::recover`]
//!   heals it, and a subsequent query is bit-identical to a fresh
//!   re-simulation of the surviving circuit;
//! - sibling sessions are never disturbed;
//! - a one-shot fault never trips the circuit breaker, while K
//!   consecutive injected recovery failures trip it to terminal
//!   `Failed` with a [`SessionReport`] autopsy.

#![cfg(feature = "faults")]

use qtask::prelude::*;
use qtask_faults::{self as faults, FaultKind, FaultPlan};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The fault registry is process-global; chaos tests must not overlap.
static CHAOS_LOCK: Mutex<()> = Mutex::new(());

fn chaos_guard() -> std::sync::MutexGuard<'static, ()> {
    CHAOS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn sim_cfg() -> SimConfig {
    SimConfig::with_block_size(4)
}

fn service_cfg() -> ServiceConfig {
    ServiceConfig::default()
        .with_threads(2)
        .with_default_deadline(Duration::from_secs(20))
        .with_breaker(3, Duration::from_secs(20))
}

/// A victim session plus an idle sibling (no caller takes a turn on it,
/// so it reaches no probe sites while a plan is armed). Built *before* arming
/// so its setup traffic does not consume hits.
struct Fixture {
    mgr: SessionManager,
    victim: SessionHandle,
    sibling: SessionHandle,
    sibling_state: Vec<Complex64>,
}

fn open_fixture() -> Fixture {
    let mgr = SessionManager::new(service_cfg());
    let victim = mgr.open(4, sim_cfg()).expect("open victim");
    let sibling = mgr.open(3, sim_cfg()).expect("open sibling");
    sibling
        .edit(|tx| {
            let net1 = tx.push_net();
            tx.insert_gate(GateKind::H, net1, &[0])?;
            let net2 = tx.insert_net_after(net1)?;
            tx.insert_gate(GateKind::Cx, net2, &[0, 1])?;
            Ok(())
        })
        .expect("sibling setup");
    sibling.sync().expect("sibling idle");
    let sibling_state = sibling.snapshot().expect("sibling snapshot").state();
    Fixture {
        mgr,
        victim,
        sibling,
        sibling_state,
    }
}

/// The deterministic chaos scenario: edits, a barrier, an inspection, a
/// writer kill (panicking client closure) with supervised recovery, and
/// a post-recovery edit. It crosses every service probe site — enqueue
/// on the caller thread, the writer loop, and the recovery path — and
/// is fallible end to end so injected errors surface.
fn run_scenario(victim: &SessionHandle) -> Result<(), ServiceError> {
    victim.edit(|tx| {
        let net = tx.push_net();
        tx.insert_gate(GateKind::H, net, &[0])?;
        tx.insert_gate(GateKind::Cx, net, &[1, 2])?;
        Ok(())
    })?;
    victim.edit(|tx| {
        let net = tx.push_net();
        tx.insert_gate(GateKind::Ry(0.3), net, &[2])?;
        Ok(())
    })?;
    victim.sync()?;
    victim.circuit()?;
    // Kill the writer mid-request: untampered, the panicking closure
    // must surface as SessionPoisoned (never a commit).
    match victim.edit(|_| panic!("chaos: client closure bug")) {
        Ok(_) => unreachable!("a panicking closure cannot commit"),
        Err(ServiceError::SessionPoisoned { .. }) => {}
        Err(other) => return Err(other),
    }
    // The turn is the barrier: sync waits until the watchdog has
    // restarted the writer (or surfaces the terminal error).
    victim.sync()?;
    victim.edit(|tx| {
        let net = tx.push_net();
        tx.insert_gate(GateKind::X, net, &[3])?;
        Ok(())
    })?;
    victim.sync()?;
    Ok(())
}

/// Every probe site the service threads through its layers. The trace
/// assertion in the sweep keeps this list honest: a renamed or dropped
/// probe fails the suite instead of silently shrinking the space.
const EXPECTED_SITES: &[&str] = &["service/enqueue", "service/recover", "service/writer"];

fn traced_service_sites() -> Vec<(String, u64)> {
    let fx = open_fixture();
    let trace = faults::site_hits(|| {
        run_scenario(&fx.victim).expect("untampered scenario");
    });
    fx.mgr.shutdown();
    trace
        .into_iter()
        .filter(|(site, _)| site.starts_with("service/"))
        .collect()
}

/// Blocks until the victim's writer answers again (recovery done) and
/// returns the serving state. A one-shot fault must never leave the
/// session `Failed`.
fn await_serving(victim: &SessionHandle, ctx: &str) -> SessionState {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let state = victim.state();
        assert!(
            state != SessionState::Failed,
            "{ctx}: one-shot fault tripped the breaker: {:?}",
            victim.report()
        );
        assert!(
            state != SessionState::Closed,
            "{ctx}: session closed itself"
        );
        match victim.sync() {
            Ok(_) => return victim.state(),
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "{ctx}: writer never came back: {e}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
        }
    }
}

/// The surviving circuit is the oracle: a fresh re-simulation of it must
/// be bit-identical to what the session serves (the engine's addition
/// order is deterministic).
fn assert_victim_consistent(victim: &SessionHandle, ctx: &str) {
    let (circuit, cv) = victim
        .circuit()
        .unwrap_or_else(|e| panic!("{ctx}: inspect: {e}"));
    let snap = victim
        .snapshot()
        .unwrap_or_else(|| panic!("{ctx}: degraded-read surface went dark"));
    assert_eq!(snap.version(), cv, "{ctx}: snapshot/circuit version skew");
    let mut resim = Ckt::from_circuit(&circuit, sim_cfg());
    resim.update_state().unwrap();
    assert_eq!(
        snap.state(),
        resim.latest_snapshot().unwrap().state(),
        "{ctx}: served state is not bit-identical to a fresh re-simulation"
    );
    assert!((snap.norm_sqr() - 1.0).abs() < 1e-9, "{ctx}: norm drifted");
}

fn assert_sibling_undisturbed(fx: &Fixture, ctx: &str) {
    assert_eq!(
        fx.sibling.state(),
        SessionState::Active,
        "{ctx}: sibling left Active"
    );
    let snap = fx.sibling.snapshot().expect("sibling snapshot");
    assert_eq!(
        snap.state(),
        fx.sibling_state,
        "{ctx}: sibling state disturbed"
    );
    assert!(
        fx.sibling.edit(|_| Ok(())).is_ok(),
        "{ctx}: sibling stopped serving"
    );
}

/// The heart of the suite: every service probe site × {first, last}
/// dynamic hit × every applicable fault kind must end inside the
/// contract — typed error or supervised recovery, victim consistent,
/// sibling untouched, breaker untripped.
#[test]
fn every_service_site_fails_safe() {
    let _guard = chaos_guard();
    let sites = traced_service_sites();
    for expected in EXPECTED_SITES {
        assert!(
            sites.iter().any(|(name, _)| name == expected),
            "probe site '{expected}' was never reached by the chaos scenario \
             (trace: {sites:?})"
        );
    }

    const KINDS: [FaultKind; 3] = [FaultKind::Panic, FaultKind::AllocFail, FaultKind::Error];
    let mut injected = 0usize;
    for (site, max_hits) in &sites {
        let mut nths = vec![1u64];
        if *max_hits > 1 {
            nths.push(*max_hits);
        }
        for nth in nths {
            for kind in KINDS {
                let ctx = format!("{site}@{nth}/{kind:?}");
                let fx = open_fixture();
                faults::arm(FaultPlan::at_hit(site, kind, nth));
                let outcome = catch_unwind(AssertUnwindSafe(|| run_scenario(&fx.victim)));
                let summary = faults::disarm();
                assert!(
                    summary.fired,
                    "{ctx}: the armed hit was never reached (hits={})",
                    summary.hits_of_site
                );
                injected += 1;
                match outcome {
                    // The kind does not apply to this site flavor (e.g.
                    // Error at the unwind-only writer probe), or the
                    // watchdog healed in-band: the scenario completed.
                    Ok(Ok(())) => {}
                    // Typed failure: the fault surfaced as a
                    // ServiceError, never as a torn state.
                    Ok(Err(err)) => {
                        assert!(
                            matches!(
                                err,
                                ServiceError::Injected { .. }
                                    | ServiceError::SessionPoisoned { .. }
                            ),
                            "{ctx}: unexpected error {err:?}"
                        );
                    }
                    // An escaped panic is legal only on the caller's own
                    // thread — the enqueue probe runs before the caller
                    // takes a ticket.
                    Err(_payload) => {
                        assert_eq!(
                            site.as_str(),
                            "service/enqueue",
                            "{ctx}: panic escaped from a writer-side site"
                        );
                    }
                }
                // Whatever happened, one fault is never fatal: the
                // session converges back to serving, consistent with a
                // fresh re-simulation, and the sibling never noticed.
                let state = await_serving(&fx.victim, &ctx);
                assert!(
                    matches!(state, SessionState::Active | SessionState::Recovered),
                    "{ctx}: converged to {state:?}"
                );
                assert_victim_consistent(&fx.victim, &ctx);
                assert!(
                    !fx.victim.report().breaker_tripped,
                    "{ctx}: breaker tripped"
                );
                assert_sibling_undisturbed(&fx, &ctx);
                fx.mgr.shutdown();
            }
        }
    }
    assert!(injected >= EXPECTED_SITES.len() * KINDS.len());
}

/// K consecutive injected recovery failures trip the circuit breaker:
/// the session lands in terminal `Failed` with a full autopsy, requests
/// get the typed terminal error, degraded reads keep serving the last
/// published version, and the sibling never notices.
#[test]
fn repeated_recovery_faults_trip_breaker_with_autopsy() {
    let _guard = chaos_guard();
    let fx = open_fixture();
    let v_pre = fx.victim.version();
    // Every recovery attempt fails until the breaker (threshold 3) trips.
    faults::arm(FaultPlan::repeated(
        "service/recover",
        FaultKind::Error,
        1,
        99,
    ));
    let err = fx
        .victim
        .edit(|_| panic!("chaos: kill the writer"))
        .unwrap_err();
    assert!(matches!(err, ServiceError::SessionPoisoned { .. }), "{err}");
    let state = fx
        .victim
        .wait_for(|s| s == SessionState::Failed, Duration::from_secs(30));
    let summary = faults::disarm();
    assert_eq!(state, SessionState::Failed);
    assert_eq!(summary.fires, 3, "exactly K = breaker_threshold attempts");

    let report = fx.victim.report();
    assert!(report.breaker_tripped);
    assert_eq!(report.state, SessionState::Failed);
    assert_eq!(report.recovery_failures, 3);
    assert_eq!(report.recoveries, 0);
    assert!(report.last_error.is_some(), "autopsy must carry the reason");
    assert_eq!(report.last_version, v_pre);

    // Terminal typed errors for writes; degraded reads still serve.
    assert!(matches!(
        fx.victim.edit(|_| Ok(())),
        Err(ServiceError::SessionFailed { .. })
    ));
    let snap = fx.victim.snapshot().expect("degraded reads survive Failed");
    assert_eq!(snap.version(), v_pre);

    assert_sibling_undisturbed(&fx, "breaker trip");

    let autopsy = fx.mgr.close(fx.victim.id()).expect("close failed session");
    assert_eq!(autopsy.state, SessionState::Failed);
    assert!(autopsy.breaker_tripped);
    fx.mgr.shutdown();
}

/// The process-wide count of callers waiting in line for a turn, over
/// every session.
fn mailbox_depth() -> i64 {
    qtask_obs::snapshot()
        .gauge("service.mailbox_depth")
        .unwrap_or(0)
}

/// Callers waiting in line for a session's turn while the holder of the
/// turn trips the breaker each get the terminal `SessionFailed`: the
/// trip wakes them, and none of their requests runs.
#[test]
fn requests_queued_behind_a_breaker_trip_get_session_failed() {
    let _guard = chaos_guard();
    let fx = open_fixture();
    let (started_tx, started_rx) = mpsc::channel();
    let (kill_tx, kill_rx) = mpsc::channel::<()>();
    let victim = fx.victim.clone();
    let serving = std::thread::spawn(move || {
        victim.edit(move |_| {
            started_tx.send(()).unwrap();
            let _ = kill_rx.recv();
            panic!("chaos: kill the writer")
        })
    });
    started_rx.recv().unwrap();
    let depth = mailbox_depth();
    let queue = |op: fn(&SessionHandle) -> Result<(), ServiceError>| {
        let victim = fx.victim.clone();
        std::thread::spawn(move || op(&victim))
    };
    let queued: Vec<JoinHandle<Result<(), ServiceError>>> = vec![
        queue(|h| h.sync().map(|_| ())),
        queue(|h| h.circuit().map(|_| ())),
        queue(|h| h.view_report().map(|_| ())),
        queue(|h| h.edit(|_| Ok(())).map(|_| ())),
    ];
    let start = Instant::now();
    while mailbox_depth() < depth + queued.len() as i64 {
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "requests never queued"
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    // Every recovery attempt fails until the breaker (threshold 3) trips.
    faults::arm(FaultPlan::repeated(
        "service/recover",
        FaultKind::Error,
        1,
        99,
    ));
    kill_tx.send(()).unwrap();
    let killed = serving
        .join()
        .expect("the serving caller contains the panic");
    let summary = faults::disarm();
    assert!(
        matches!(killed, Err(ServiceError::SessionPoisoned { .. })),
        "{killed:?}"
    );
    assert_eq!(summary.fires, 3, "exactly K = breaker_threshold attempts");
    for request in queued {
        let result = request.join().unwrap();
        assert!(
            matches!(result, Err(ServiceError::SessionFailed { .. })),
            "{result:?}"
        );
    }
    let report = fx.victim.report();
    assert_eq!(report.state, SessionState::Failed);
    assert_eq!(report.recovery_failures, 3);
    assert_sibling_undisturbed(&fx, "queued at the trip");
    fx.mgr.shutdown();
}

/// With the feature compiled in but nothing armed, the probes are
/// inert: the scenario behaves exactly like a default build.
#[test]
fn disarmed_service_probes_change_nothing() {
    let _guard = chaos_guard();
    let fx = open_fixture();
    run_scenario(&fx.victim).expect("disarmed scenario");
    let report = fx.victim.report();
    assert_eq!(
        report.recoveries, 1,
        "the scenario's writer kill heals once"
    );
    assert!(!report.breaker_tripped);
    assert_victim_consistent(&fx.victim, "disarmed");
    assert_sibling_undisturbed(&fx, "disarmed");
    fx.mgr.shutdown();
}
